"""Constructors for the atlases the engine verifies.

Every family is derived from its big cells, glued through
Z_J = B_IJ^-1 Z_I with the new coordinates read off the free columns, one
pair per orbit of the cells' column symmetries and the rest renamed.  The
projective superspace P^{n|m} is the rank-(1|0) super Grassmannian
G(1|0; n+1|m) and comes from its cells only.  P^n_Pi alone has a second
route, the paper's closed-form transition formulas; the two routes are
kept independent so they can be checked against each other.

Coordinate naming goes through coordinate_name(prefix, *indices), which
runs the indices together while each is a single digit (z10, x12) and puts
an underscore before each index otherwise (z_10_0, x_1_10):

  * projective-style charts U_i carry z and th indexed (k, i): k is an
    ambient column label, the chart index comes last;
  * rank-2 cells, every (2|0) cell of G(2|0; N|0) and every Pi-cell of
    G_Pi(2, N), follow the row-wise scheme x, y with odd partners th, xi,
    indexed (m, s): m counts free columns and s numbers the cell, so the
    reduced G_Pi(2, N) is G(2|0; N|0) name for name;
  * other cell shapes use a generic row/column scheme x{r}_{m} etc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .atlas import Atlas, Symmetry, TransitionMap, orbits, rename_transition, symmetry_renamings
from .rational import exact, gauss_jordan
from .superalgebra import Chart, SuperFunction
from .supermatrix import EVEN_FUNCTIONS, SuperMatrix, grid_mul


class CellOverlapError(ValueError):
    """The selected columns of a big cell are not invertible."""


@dataclass
class BigCell:
    """A chart of a super Grassmannian presented as a coordinate supermatrix.

    The columns listed in index_even / index_odd form the identity; every
    other column holds coordinate entries.  layout maps grid positions to
    (coordinate name, sign) so derived matrices can be read off without
    guessing.
    """

    chart: Chart
    shape: tuple[int, int, int, int]  # d0, d1, n, m
    index_even: tuple[int, ...]
    index_odd: tuple[int, ...]
    matrix: SuperMatrix
    layout: dict[tuple[int, int], tuple[str, int]]


def _cell(
    chart_name: str,
    shape: tuple[int, int, int, int],
    index_even: tuple[int, ...],
    index_odd: tuple[int, ...],
    entry: Callable[[int, int], tuple[str, int]],
) -> BigCell:
    """The big cell of shape (d0|d1) x (n|m) whose index columns form the identity.

    entry(r, c) gives the (coordinate name, sign) at every other grid
    position.  Rows from d0 on and columns from n on are odd, and an entry
    is even when its row and column have the same parity.  The chart lists
    each name once, evens apart from odds, in the row-major order of the
    position where it first appears.
    """
    d0, d1, n, m = shape
    fixed = {*index_even, *(n + c for c in index_odd)}
    units = {*enumerate(index_even), *((d0 + t, n + c) for t, c in enumerate(index_odd))}
    layout = {
        (r, c): entry(r, c)
        for r in range(d0 + d1)
        for c in range(n + m)
        if c not in fixed
    }
    names: tuple[dict[str, None], dict[str, None]] = ({}, {})
    for (r, c), (name, _) in layout.items():
        names[(r < d0) != (c < n)][name] = None
    chart = Chart(chart_name, tuple(names[0]), tuple(names[1]))
    coords = {name: SuperFunction.coordinate(chart, name) for name in chart.coords}
    zero = SuperFunction.zero(chart)
    one = SuperFunction.one(chart)

    def value(r: int, c: int) -> SuperFunction:
        if (r, c) not in layout:
            return one if (r, c) in units else zero
        name, sign = layout[(r, c)]
        return coords[name] if sign > 0 else -coords[name]

    grid = [[value(r, c) for c in range(n + m)] for r in range(d0 + d1)]
    matrix = SuperMatrix(chart, (d0, d1), (n, m), grid)
    return BigCell(chart, shape, index_even, index_odd, matrix, layout)


def make_big_cell(
    d0: int,
    d1: int,
    n: int,
    m: int,
    index_even: Sequence[int],
    index_odd: Sequence[int],
    chart_name: str,
    even_name: Callable[[int, int, int], str],
    odd_name: Callable[[int, int, int], str],
) -> BigCell:
    """Generic big cell of G(d0|d1; n|m) with freely chosen coordinate names.

    even_name(block_row, ordinal, column) names the even coordinates (block
    row 0 = even rows against free even columns, block row 1 = odd rows
    against free odd columns); odd_name does the same for the odd entries
    (block row 0 = even rows / free odd columns, 1 = odd rows / free even
    columns).
    """
    index_even = tuple(index_even)
    index_odd = tuple(index_odd)
    free_even = [c for c in range(n) if c not in index_even]
    free_odd = [c for c in range(m) if c not in index_odd]

    def entry(r: int, c: int) -> tuple[str, int]:
        odd_row, odd_col = r >= d0, c >= n
        namer = even_name if odd_row == odd_col else odd_name
        ordinal = free_odd.index(c - n) if odd_col else free_even.index(c)
        return namer(int(odd_row), r - d0 if odd_row else r, ordinal), 1

    return _cell(chart_name, (d0, d1, n, m), index_even, index_odd, entry)


def make_pi_cell(
    k: int,
    big_n: int,
    index: Sequence[int],
    chart_name: str,
    even_name: Callable[[int, int], str],
    odd_name: Callable[[int, int], str],
) -> BigCell:
    """Pi-symmetric big cell of shape (k|k) x (N|N).

    Row r pairs with row k+r: if row r reads (..., a, ... | ..., b, ...)
    then row k+r reads (..., -b, ... | ..., a, ...), the sign on the odd
    entries coming from the parity swap.  even_name(r, ordinal) and
    odd_name(r, ordinal) name the free entries of the even rows.
    """
    index = tuple(index)
    free = [c for c in range(big_n) if c not in index]

    def entry(r: int, c: int) -> tuple[str, int]:
        odd_row, odd_col = r >= k, c >= big_n
        namer = even_name if odd_row == odd_col else odd_name
        sign = -1 if odd_row and not odd_col else 1
        return namer(r % k, free.index(c % big_n)), sign

    return _cell(chart_name, (k, k, big_n, big_n), index, index, entry)


def transformed_cell(zi: BigCell, zj: BigCell) -> SuperMatrix:
    """B_IJ^-1 Z_I: the cell of Z_I rewritten in Z_J's normal form.

    Z_I's columns at Z_J's index set (even first, then odd) form B_IJ.
    Z_I is row-reduced with them moved to the front, which turns B_IJ into
    the identity and Z_I into B_IJ^-1 Z_I; CellOverlapError when they give
    fewer than d0+d1 pivots, that is when B_IJ is not invertible.
    """
    if zi.shape != zj.shape:
        raise ValueError("cells of different Grassmannians")
    d0, d1, n, m = zi.shape
    index = [*zj.index_even, *(n + c for c in zj.index_odd)]
    order = index + [c for c in range(n + m) if c not in index]
    reduced = [[row[c] for c in order] for row in zi.matrix.entries]
    if len(gauss_jordan(reduced, d0 + d1, EVEN_FUNCTIONS)) < d0 + d1:
        raise CellOverlapError(f"cells do not overlap: no pivot in {zi.chart.name} columns {index}")
    back = sorted(range(n + m), key=order.__getitem__)
    grid = [[row[k] for k in back] for row in reduced]
    return SuperMatrix(zi.chart, (d0, d1), (n, m), grid)


def _read_off(zi: BigCell, zj: BigCell) -> tuple[TransitionMap, str]:
    """The transition from B_IJ^-1 Z_I and the read-off's first disagreement,
    "" when every name that Z_J's template repeats reads the same.

    The identity columns of the transformed cell are verified (a broken
    reduction raises ValueError), and each coordinate takes the value at its
    first template position.  On a Pi-template the agreement is exactly
    Pi-symmetry: the unit columns are the paired columns I and N+I, and on
    the free columns the two positions of a name are the two sides of
    row k+r = Pi(row r) = (-b | a).
    """
    w = transformed_cell(zi, zj)
    d0, d1, n, _ = zj.shape
    one = SuperFunction.one(zi.chart)
    zero = SuperFunction.zero(zi.chart)
    unit_cols = [c for c in zj.index_even] + [n + c for c in zj.index_odd]
    for t, c in enumerate(unit_cols):
        for r in range(d0 + d1):
            if not w.entries[r][c].equals(one if r == t else zero):
                raise ValueError(
                    f"column {c} of the transformed cell is not the unit vector "
                    f"e_{t}: entry ({r}, {c}) = {w.entries[r][c].to_str()}"
                )
    images: dict[str, SuperFunction] = {}
    disagreement = ""
    for (r, c), (name, sign) in zj.layout.items():
        value = w.entries[r][c] if sign > 0 else -w.entries[r][c]
        if name not in images:
            images[name] = value
        elif not disagreement and not images[name].equals(value):
            disagreement = (
                f"inconsistent read-off for {name!r}: "
                f"{images[name].to_str()} vs {value.to_str()}"
            )
    return TransitionMap(zi.chart, zj.chart, images), disagreement


def derive_transition_from_cells(zi: BigCell, zj: BigCell) -> TransitionMap:
    """Transition expressing Z_J's coordinates in Z_I's, from B_IJ^-1 Z_I;
    ValueError when the read-off (see _read_off) disagrees with itself."""
    transition, disagreement = _read_off(zi, zj)
    if disagreement:
        raise ValueError(disagreement)
    return transition


def check_pi_symmetric(matrix: SuperMatrix) -> bool:
    """Whether the row span is stable under the parity swap v -> (-b | a).

    The matrix must contain a full set of unit columns (all our cells and
    their transforms do); the candidate coefficients of the transformed row
    are read off there and the combination is verified on every column.
    Derivations take their verdict from _read_off; this is the general test.
    """
    k2 = matrix.row_shape[0] + matrix.row_shape[1]
    if matrix.row_shape[0] != matrix.row_shape[1] or matrix.col_shape[0] != matrix.col_shape[1]:
        raise ValueError("Pi-symmetry check needs shape (k|k) x (N|N)")
    big_n = matrix.col_shape[0]
    chart = matrix.chart
    one = SuperFunction.one(chart)
    zero = SuperFunction.zero(chart)
    unit_col: list[int] = []
    for t in range(k2):
        found = None
        for c in range(2 * big_n):
            if all(
                matrix.entries[r][c].equals(one if r == t else zero)
                for r in range(k2)
            ):
                found = c
                break
        if found is None:
            raise ValueError("no unit column for row {}; span test unavailable".format(t))
        unit_col.append(found)
    for r in range(k2):
        v_pi = [-matrix.entries[r][big_n + c] for c in range(big_n)]
        v_pi += [matrix.entries[r][c] for c in range(big_n)]
        coeffs = [v_pi[unit_col[t]] for t in range(k2)]
        combination = grid_mul([coeffs], matrix.entries, chart)[0]
        if not all(acc.equals(v) for acc, v in zip(combination, v_pi)):
            return False
    return True


# -- named atlases ------------------------------------------------------------


def coordinate_name(prefix: str, *indices: int) -> str:
    """prefix followed by the indices: run together when every index is in
    0..9 (z10, x12), else each behind an underscore (z_10_0, x_1_10).  A
    run-together name holds no underscore, so no two index tuples share a
    name."""
    if all(0 <= index <= 9 for index in indices):
        return prefix + "".join(map(str, indices))
    return prefix + "".join(f"_{index}" for index in indices)


def build_projective_superspace(n: int, m: int) -> Atlas:
    """The split supermanifold with n+1 charts, odd part m copies of O(-1).

    Transitions: z_lj = z_li / z_ji (and z_ij = 1/z_ji), th_aj = th_ai / z_ji.
    It is the rank-(1|0) super Grassmannian G(1|0; n+1|m), derived from its
    big cells.
    """
    if n < 1 or m < 0:
        raise ValueError("projective superspace needs n >= 1, m >= 0")
    return build_super_grassmannian(1, 0, n + 1, m)


def build_pi_projective_closed(n: int, scale: Fraction | int = 1) -> Atlas:
    """Closed-form Pi-projective atlas on n+1 charts.

    Even transitions pick up the degree-2 correction scale * th_ji th_li /
    z_ji^2 on top of the reduced ones; odd transitions are the cotangent
    frame rules under dz <-> th.  scale=1 is the standard normalisation,
    scale=0 degenerates to the split model with the same odd part.  scale
    must be exact: a float raises TypeError.

    The formulas hold for every labelling of the charts, so the atlas
    carries the symmetries of S_{n+1} permuting the indices: sigma maps U_i
    to U_sigma(i) and renames z_ki, th_ki to z_sigma(k)sigma(i),
    th_sigma(k)sigma(i).
    """
    if n < 1:
        raise ValueError("Pi-projective space needs n >= 1")
    scale = exact(scale)
    charts = []
    for i in range(n + 1):
        labels = [k for k in range(n + 1) if k != i]
        charts.append(Chart(
            f"U{i}",
            tuple(coordinate_name("z", k, i) for k in labels),
            tuple(coordinate_name("th", k, i) for k in labels),
        ))
    transitions: dict[tuple[str, str], TransitionMap] = {}
    for i, src in enumerate(charts):
        for j, tgt in enumerate(charts):
            if i == j:
                continue
            z_ji = SuperFunction.coordinate(src, coordinate_name("z", j, i))
            th_ji = SuperFunction.coordinate(src, coordinate_name("th", j, i))
            inv = z_ji.invert()
            inv2 = inv * inv
            images: dict[str, SuperFunction] = {}
            images[coordinate_name("z", i, j)] = inv
            images[coordinate_name("th", i, j)] = -(th_ji * inv2)
            for ell in range(n + 1):
                if ell in (i, j):
                    continue
                z_li = SuperFunction.coordinate(src, coordinate_name("z", ell, i))
                th_li = SuperFunction.coordinate(src, coordinate_name("th", ell, i))
                images[coordinate_name("z", ell, j)] = (
                    z_li * inv + (th_ji * th_li * inv2).scale(scale)
                )
                images[coordinate_name("th", ell, j)] = th_li * inv - z_li * inv2 * th_ji
            transitions[(src.name, tgt.name)] = TransitionMap(src, tgt, images)
    symmetries = [
        {
            f"U{i}": (
                f"U{sigma[i]}",
                {
                    coordinate_name(prefix, k, i): coordinate_name(prefix, sigma[k], sigma[i])
                    for prefix in ("z", "th")
                    for k in range(n + 1)
                    if k != i
                },
            )
            for i in range(n + 1)
        }
        for sigma in _symmetric_generators(n + 1)
    ]
    return Atlas(charts, transitions, symmetries)


def pi_projective_cell(n: int, i: int) -> BigCell:
    """The (1|1) x (n+1|n+1) Pi-cell carried by the chart U_i."""
    free = [c for c in range(n + 1) if c != i]
    return make_pi_cell(
        1,
        n + 1,
        (i,),
        f"U{i}",
        lambda r, mi: coordinate_name("z", free[mi], i),
        lambda r, mi: coordinate_name("th", free[mi], i),
    )


def _row_wise_names(idx: int) -> tuple[Callable[[int, int], str], Callable[[int, int], str]]:
    """The rank-2 row-wise scheme of cell idx as (row, ordinal) namers:
    x/y for the even coordinates, th/xi for their odd partners."""
    return (
        lambda r, mi: coordinate_name("xy"[r], mi + 1, idx),
        lambda r, mi: coordinate_name(("th", "xi")[r], mi + 1, idx),
    )


def grassmannian_cells(d0: int, d1: int, n: int, m: int) -> list[BigCell]:
    """All big cells of G(d0|d1; n|m) in lexicographic index order."""
    if not (0 <= d0 <= n and 0 <= d1 <= m) or (d0, d1) == (0, 0):
        raise ValueError(f"invalid Grassmannian shape ({d0}|{d1}; {n}|{m})")
    cells = []
    combos = [
        (i0, i1)
        for i0 in combinations(range(n), d0)
        for i1 in combinations(range(m), d1)
    ]
    for idx, (i0, i1) in enumerate(combos, start=1):
        if d0 == 1 and d1 == 0:
            i = i0[0]
            free = [c for c in range(n) if c != i]
            cell = make_big_cell(
                d0, d1, n, m, i0, i1, f"U{i}",
                lambda block, r, mi, i=i, free=free: coordinate_name("z", free[mi], i),
                lambda block, r, mi, i=i: coordinate_name("th", mi + 1, i),
            )
        elif d0 == 2 and d1 == 0:
            even, odd = _row_wise_names(idx)
            cell = make_big_cell(
                d0, d1, n, m, i0, i1, f"U{idx}",
                lambda block, r, mi: even(r, mi),
                lambda block, r, mi: odd(r, mi),
            )
        else:
            cell = make_big_cell(
                d0, d1, n, m, i0, i1, f"U{idx}",
                lambda block, r, mi, idx=idx: f"{'xw'[block]}{r + 1}_{mi + 1}",
                lambda block, r, mi, idx=idx: f"{('et', 'ph')[block]}{r + 1}_{mi + 1}",
            )
        cells.append(cell)
    return cells


def _symmetric_generators(n: int) -> list[tuple[int, ...]]:
    """Generators of S_n as tuples of images: the transposition (0 1) and
    the n-cycle c -> c+1, which coincide for n = 2; none for n < 2."""
    if n < 2:
        return []
    swap = (1, 0, *range(2, n))
    cycle = (*range(1, n), 0)
    return [swap] if n == 2 else [swap, cycle]


def _column_symmetry(cells: list[BigCell], sigma: tuple[int, ...]) -> Symmetry:
    """The renaming by which the column permutation sigma moves the cells.

    sigma permutes the n+m grid columns, even among even and odd among
    odd.  Z_I with its columns permuted, c -> sigma(c), and its rows put
    back in order has unit columns at sigma(I): it is Z_sigma(I) with the
    coordinate at position (r, c) of Z_I standing at (r', sigma(c)), where
    r' is the row of Z_sigma(I) whose unit column is sigma of the unit
    column of row r.  Every template built here gives both positions the
    same sign; check_equivariant decides whether the renaming is a
    symmetry.
    """
    d0, _, n, _ = cells[0].shape
    by_index = {(cell.index_even, cell.index_odd): cell for cell in cells}
    symmetry: Symmetry = {}
    for cell in cells:
        index_even = tuple(sorted(sigma[c] for c in cell.index_even))
        index_odd = tuple(sorted(sigma[n + c] - n for c in cell.index_odd))
        image = by_index[(index_even, index_odd)]
        rows = [index_even.index(sigma[c]) for c in cell.index_even]
        rows += [d0 + index_odd.index(sigma[n + c] - n) for c in cell.index_odd]
        names = {
            name: image.layout[(rows[r], sigma[c])][0] for (r, c), (name, _) in cell.layout.items()
        }
        symmetry[cell.chart.name] = (image.chart.name, names)
    return symmetry


def _atlas_from_cells(
    cells: list[BigCell], columns: list[tuple[int, ...]]
) -> tuple[Atlas, dict[tuple[str, str], str]]:
    """Atlas with one transition per ordered pair of distinct cells (Atlas
    adds the identities), and the read-off's disagreement for every pair
    keyed by (source, target), "" when none; both are in pair order.

    columns lists generators of a group of grid-column permutations that
    permutes the cells; the atlas carries the symmetry of each
    (_column_symmetry).  The first pair of each orbit under that group, in
    pair order, is derived (_read_off).  When its read-off agrees, every
    other pair of the orbit is that transition renamed along the walk of
    atlas.orbits (atlas.rename_transition), keyed in the order of its
    target cell's layout as the read-off keys it.  Otherwise every pair of
    the orbit is derived, so a faulty derivation gets the transitions and
    witnesses that deriving every pair gives.

    Lemma.  Let sigma be a column permutation and R_I the renaming
    _column_symmetry reads off from Z_I onto Z_sigma(I).
      * A column permutation of Z_I, with its rows put back in order, is
        Z_sigma(I) renamed by R_I.
      * Row reduction at the index columns is unique (B^-1 Z is the one
        matrix row-equivalent to Z with the identity there), and so is
        the RatFun normal form.  So transformed_cell(Z_sigma(I),
        Z_sigma(J)) is transformed_cell(Z_I, Z_J) renamed by R_I, its
        columns and rows moved as in the first point, and its read-off
        witness is empty exactly when the seed's is.
    With an empty witness every position of a name reads the same, so
    T_sigma(I)sigma(J) maps R_J(y) to R_I(T_IJ(y)) whichever position the
    read-off takes first; a seed with a witness is not renamed for that
    reason.  A product of generators carries the composite renaming, so
    the lemma covers the whole orbit.  The checks do not rely on it:
    check_cocycle runs check_equivariant, which compares each pair renamed
    by each generator with the stored one.
    """
    by_name = {cell.chart.name: cell for cell in cells}
    symmetries = [_column_symmetry(cells, sigma) for sigma in columns]
    charts = {name: cell.chart for name, cell in by_name.items()}
    renamings = [symmetry_renamings(charts, symmetry) for symmetry in symmetries]
    layout_order = {
        name: tuple(dict.fromkeys(coord for coord, _ in cell.layout.values()))
        for name, cell in by_name.items()
    }
    pairs = [(i, j) for i in by_name for j in by_name if i != j]
    transitions: dict[tuple[str, str], TransitionMap] = {}
    disagreements: dict[tuple[str, str], str] = {}
    pair_orbits = orbits(pairs, renamings)
    seeds = {pair: seed for seed, steps in pair_orbits for pair, _, _ in steps}
    # The seeds, and the pairs of an orbit whose seed disagrees, in pair order.
    for pair in pairs:
        if pair not in seeds or disagreements[seeds[pair]]:
            transitions[pair], disagreements[pair] = _read_off(by_name[pair[0]], by_name[pair[1]])
    for seed, steps in pair_orbits:
        if disagreements[seed]:
            continue
        for pair, (i, j), renaming in steps:
            moved = rename_transition(transitions[(i, j)], renaming[i], renaming[j])
            images = {y: moved.images[y] for y in layout_order[pair[1]]}
            transitions[pair] = TransitionMap(moved.source, moved.target, images)
            disagreements[pair] = ""
    atlas = Atlas(
        [cell.chart for cell in cells], {pair: transitions[pair] for pair in pairs}, symmetries
    )
    return atlas, {pair: disagreements[pair] for pair in pairs}


def build_super_grassmannian(d0: int, d1: int, n: int, m: int) -> Atlas:
    """Atlas of G(d0|d1; n|m) with transitions derived from the big cells
    (their templates name each position once, so no read-off disagrees).

    The atlas carries the symmetries of S_n x S_m permuting the even and
    the odd columns.
    """
    columns = [sigma + tuple(range(n, n + m)) for sigma in _symmetric_generators(n)]
    columns += [tuple(range(n)) + tuple(n + c for c in tau) for tau in _symmetric_generators(m)]
    return _atlas_from_cells(grassmannian_cells(d0, d1, n, m), columns)[0]


def pi_grassmannian_cells(k: int, big_n: int) -> list[BigCell]:
    """Pi-symmetric cells: the full family for k=1, the row-wise rank-2
    cells for k=2 and N >= 3."""
    if k == 1 and big_n >= 2:
        return [pi_projective_cell(big_n - 1, i) for i in range(big_n)]
    if k == 2 and big_n >= 3:
        return [
            make_pi_cell(2, big_n, index, f"U{idx}", *_row_wise_names(idx))
            for idx, index in enumerate(combinations(range(big_n), 2), start=1)
        ]
    raise ValueError(
        f"unsupported Pi-Grassmannian shape (k={k}, N={big_n}); "
        "only k=1 with N >= 2 and k=2 with N >= 3 are exposed"
    )


def derive_pi_grassmannian(
    k: int, big_n: int
) -> tuple[Atlas, dict[tuple[str, str], str]]:
    """Pi-Grassmannian atlas from the Pi-cells, plus the Pi-symmetry witness
    of every derived cell keyed by (source, target) in pair order.

    The witness is the read-off's first disagreement (see _read_off), ""
    when the cell stayed Pi-symmetric.  A derived cell that lost
    Pi-symmetry is recorded, not raised; its transition takes each
    coordinate from its first template position.  The atlas carries the
    symmetries of S_N permuting the columns c and N+c together.
    """
    columns = [sigma + tuple(big_n + c for c in sigma) for sigma in _symmetric_generators(big_n)]
    return _atlas_from_cells(pi_grassmannian_cells(k, big_n), columns)


def build_pi_grassmannian(k: int, big_n: int) -> Atlas:
    """Atlas of the Pi-Grassmannian, transitions derived from the Pi-cells.

    Every derived cell is verified to stay Pi-symmetric; ValueError names
    the first pair that did not and its disagreeing coordinate.
    """
    atlas, witnesses = derive_pi_grassmannian(k, big_n)
    for (i, j), witness in witnesses.items():
        if witness:
            raise ValueError(f"derived cell {i}->{j} lost Pi-symmetry: {witness}")
    return atlas


def reduce_atlas(atlas: Atlas) -> Atlas:
    """Forget the odd coordinates: bodies of the even transition images."""
    reduced_charts = {
        c.name: Chart(c.name, c.even_coords, ()) for c in atlas.charts
    }
    transitions: dict[tuple[str, str], TransitionMap] = {}
    for (i, j), t in atlas.transitions.items():
        src = reduced_charts[i]
        tgt = reduced_charts[j]
        images = {}
        for name in tgt.even_coords:
            images[name] = SuperFunction.from_ratfun(src, t.images[name].body())
        transitions[(i, j)] = TransitionMap(src, tgt, images)
    return Atlas(list(reduced_charts.values()), transitions)
