"""Reference constructions that only the tests use, kept out of the package."""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Callable, Mapping

from superpi.atlas import (
    Atlas,
    Symmetry,
    TransitionMap,
    berezinian_class,
    compose,
    identity_transition,
    super_jacobian,
    transition_mismatch,
)
from superpi.builders import BigCell, _read_off, coordinate_name
from superpi.cohomology import CechCochain1, TensorSection, pullback_tensor
from superpi.report import PASS, UNDETERMINED, VerificationReport
from superpi.superalgebra import Chart, SuperFunction, substitute
from superpi.supermatrix import SuperMatrix, berezinian, even_det, grid_mul


def coboundary_of(atlas: Atlas, zero_cochain: Mapping[str, TensorSection]) -> CechCochain1:
    """delta(eta) for a 0-cochain eta: the pair (i, j) gets eta_i - eta_j on chart j."""
    sections: dict[tuple[str, str], TensorSection] = {}
    for i_name, j_name in combinations(atlas.chart_names(), 2):
        t = atlas.transition(j_name, i_name)
        pulled = pullback_tensor(zero_cochain[i_name], t)
        sections[(i_name, j_name)] = pulled - zero_cochain[j_name]
    return CechCochain1(atlas, sections)


def exhaustive_cocycle(atlas: Atlas) -> VerificationReport:
    """check_cocycle with every check composed, each through a fresh compose.

    Every ordered round trip, then for each triple all six orderings (at
    most four charts) or the increasing and decreasing one, in the order
    and with the witnesses check_cocycle reports.
    """
    names = atlas.chart_names()
    report = VerificationReport("cocycle")
    for i, j in atlas.pairs():
        threaded = compose(atlas.transition(j, i), atlas.transition(i, j))
        identity = identity_transition(atlas.chart(i))
        report.add_witness(f"roundtrip/{i}->{j}->{i}", transition_mismatch(threaded, identity))
    for combo in combinations(names, 3):
        orderings = permutations(combo) if len(names) <= 4 else [combo, combo[::-1]]
        for i, j, k in orderings:
            threaded = compose(atlas.transition(j, k), atlas.transition(i, j))
            witness = transition_mismatch(atlas.transition(i, k), threaded)
            report.add_witness(f"triple/{i},{j},{k}", witness)
    return report


def exhaustive_berezinian(atlas: Atlas) -> VerificationReport:
    """check_berezinian_trivial with the Berezinian of every ordered pair computed.

    One pair/i->j check per ordered pair, then the verdict, in the order
    and with the witnesses check_berezinian_trivial reports.
    """
    report = VerificationReport("berezinian")
    kinds = []
    for i, j in atlas.pairs():
        kind, witness = berezinian_class(berezinian(super_jacobian(atlas.transition(i, j))))
        kinds.append(kind)
        report.add(f"pair/{i}->{j}", PASS if kind in ("one", "constant") else UNDETERMINED, witness)
    if all(k == "one" for k in kinds):
        report.add("verdict", PASS, "trivial (exact)")
    elif all(k in ("one", "constant") for k in kinds):
        report.add("verdict", PASS, "trivial (constant cocycle)")
    else:
        report.add("verdict", UNDETERMINED, "undetermined")
    return report


def derive_every_pair(cells: list[BigCell]) -> tuple[Atlas, dict[tuple[str, str], str]]:
    """The atlas of the cells with every ordered pair derived through its own
    read-off, and each read-off's disagreement keyed by pair, both in pair
    order: what the cell builders build by deriving one pair per orbit, less
    the symmetries."""
    transitions: dict[tuple[str, str], TransitionMap] = {}
    disagreements: dict[tuple[str, str], str] = {}
    for zi in cells:
        for zj in cells:
            if zi is not zj:
                pair = (zi.chart.name, zj.chart.name)
                transitions[pair], disagreements[pair] = _read_off(zi, zj)
    return Atlas([cell.chart for cell in cells], transitions), disagreements


def renaming_maps(atlas: Atlas, symmetry: Symmetry, i: str) -> tuple[TransitionMap, TransitionMap]:
    """The renaming of chart i by symmetry as a transition from i to its
    image chart, and its inverse, so that composing runs through Pullback."""
    image, names = symmetry[i]
    source, target = atlas.chart(i), atlas.chart(image)
    forward = {y: SuperFunction.coordinate(source, x) for x, y in names.items()}
    back = {x: SuperFunction.coordinate(target, y) for x, y in names.items()}
    return TransitionMap(source, target, forward), TransitionMap(target, source, back)


def conjugate(atlas: Atlas, symmetry: Symmetry, t: TransitionMap) -> TransitionMap:
    """R_j o t o R_i^-1 through compose: the transition t from i to j moved
    by symmetry onto the image charts of i and j."""
    _, back = renaming_maps(atlas, symmetry, t.source.name)
    forward, _ = renaming_maps(atlas, symmetry, t.target.name)
    return compose(forward, compose(t, back))


def closed_projective_superspace(n: int, m: int) -> Atlas:
    """P^{n|m} from its transition formulas, without big cells.

    Charts U_i carry z_ki for k != i and th_ai for a in 1..m; the
    transitions are z_lj = z_li / z_ji (and z_ij = 1/z_ji), th_aj = th_ai / z_ji.
    """
    charts = [
        Chart(
            f"U{i}",
            tuple(coordinate_name("z", k, i) for k in range(n + 1) if k != i),
            tuple(coordinate_name("th", a, i) for a in range(1, m + 1)),
        )
        for i in range(n + 1)
    ]
    transitions: dict[tuple[str, str], TransitionMap] = {}
    for i, src in enumerate(charts):
        for j, tgt in enumerate(charts):
            if i == j:
                continue
            inv = SuperFunction.coordinate(src, coordinate_name("z", j, i)).invert()
            images: dict[str, SuperFunction] = {}
            for ell in range(n + 1):
                if ell == i:
                    images[coordinate_name("z", i, j)] = inv
                elif ell != j:
                    z_li = SuperFunction.coordinate(src, coordinate_name("z", ell, i))
                    images[coordinate_name("z", ell, j)] = z_li * inv
            for a in range(1, m + 1):
                th_ai = SuperFunction.coordinate(src, coordinate_name("th", a, i))
                images[coordinate_name("th", a, j)] = th_ai * inv
            transitions[(src.name, tgt.name)] = TransitionMap(src, tgt, images)
    return Atlas(charts, transitions)


def map_entries(m: SuperMatrix, fn: Callable[[SuperFunction], SuperFunction]) -> SuperMatrix:
    """fn applied to every entry of m, on the chart of the new entries."""
    grid = [[fn(entry) for entry in row] for row in m.entries]
    chart = grid[0][0].chart if grid and grid[0] else m.chart
    return SuperMatrix(chart, m.row_shape, m.col_shape, grid)


def pull_back(t: TransitionMap, f: SuperFunction) -> SuperFunction:
    """f, a function on the target chart of t, in the source coordinates of t."""
    if f.chart != t.target:
        raise ValueError("pull_back expects a function on the target chart")
    return substitute(f, t.images)


def jacobian_chain_product(j_inner: SuperMatrix, j_outer_pulled: SuperMatrix) -> SuperMatrix:
    """Contract two Jacobians in the order the left-derivative chain rule needs.

    j_inner is Jac(T1) and j_outer_pulled is Jac(T2) with entries already
    rewritten in T1's source coordinates; entry (r, c) of the result is
    sum_m j_inner[m, c] * j_outer_pulled[r, m].
    """
    if j_inner.row_shape != j_outer_pulled.col_shape:
        raise ValueError("inner rows must match outer columns")
    chart = j_inner.chart
    rows, inner = sum(j_outer_pulled.row_shape), sum(j_inner.row_shape)
    cols = sum(j_inner.col_shape)
    # The transpose of j_inner^T * j_outer_pulled^T, so each left factor is from j_inner.
    inner_t = _transpose(j_inner.entries, cols)
    grid = grid_mul(inner_t, _transpose(j_outer_pulled.entries, inner), chart, rows)
    return SuperMatrix(chart, j_outer_pulled.row_shape, j_inner.col_shape, _transpose(grid, rows))


def _transpose(grid, width: int):
    """The transpose of a grid whose rows have the given width (also when it has no rows)."""
    return [[row[c] for row in grid] for c in range(width)]


def grid_sub(x, y):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(x, y)]


def even_inverse(rows):
    """The adjugate of a square even grid over its determinant, which must have a body."""
    n = len(rows)
    det_inv = even_det(rows).invert()
    if n == 1:
        return [[det_inv]]
    inverse = []
    for i in range(n):
        inverse.append([])
        for j in range(n):
            minor = [row[:i] + row[i + 1:] for r, row in enumerate(rows) if r != j]
            cofactor = even_det(minor) * det_inv
            inverse[-1].append(-cofactor if (i + j) % 2 else cofactor)
    return inverse


def blocks(m: SuperMatrix) -> tuple[list[list[SuperFunction]], ...]:
    """The blocks (A, B, C, D) of m, cut after its even rows and columns."""
    p, r = m.row_shape[0], m.col_shape[0]
    top, bottom = m.entries[:p], m.entries[p:]
    return (
        [list(row[:r]) for row in top],
        [list(row[r:]) for row in top],
        [list(row[:r]) for row in bottom],
        [list(row[r:]) for row in bottom],
    )


def schur_inverse(m: SuperMatrix) -> SuperMatrix:
    """The block formula for the inverse of a (p|q) supermatrix with p, q > 0.

    With S = D - C A^-1 B, the inverse is
    [[A^-1 - TR C A^-1, TR], [-S^-1 C A^-1, S^-1]] with TR = -A^-1 B S^-1;
    the factors keep their order, and even blocks are inverted by their
    adjugates, so no step shares smat_inverse's elimination.
    """
    chart = m.chart
    a, b, c, d = blocks(m)
    a_inv = even_inverse(a)
    c_a_inv = grid_mul(c, a_inv, chart)
    bottom_right = even_inverse(grid_sub(d, grid_mul(c_a_inv, b, chart)))
    minus_s_inv = [[-e for e in row] for row in bottom_right]
    top_right = grid_mul(grid_mul(a_inv, b, chart), minus_s_inv, chart)
    bottom_left = grid_mul(minus_s_inv, c_a_inv, chart)
    top_left = grid_sub(a_inv, grid_mul(top_right, c_a_inv, chart))
    grid = [tl + tr for tl, tr in zip(top_left, top_right)]
    grid += [bl + br for bl, br in zip(bottom_left, bottom_right)]
    return SuperMatrix(chart, m.row_shape, m.col_shape, grid)
