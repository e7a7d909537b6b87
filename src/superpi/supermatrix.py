"""Block super-matrix algebra over a chart's superfunction ring.

A SuperMatrix of shape (p|q) x (r|s) stores a dense (p+q) x (r+s) grid of
SuperFunctions in the block layout [[A, B], [C, D]]: the first p rows and
first r columns are the even ones.  A and D must hold even entries, B and C
odd entries (zero passes any parity slot).

Inversion of a square matrix uses the Schur-complement block formula with
exact inversion of the even blocks; the Berezinian is

    Ber(M) = det(A) * det(D - C A^-1 B)^-1

computed with exact determinants of even matrices.  There is one
determinant, and it is division-free: a row expansion memoised on the set
of columns already used, so it needs no invertible pivot and stays exact
on every square even matrix, nilpotent or zero determinant body included.
"""

from __future__ import annotations

from typing import Sequence

from .rational import Field, nonzero, solve_square
from .superalgebra import Chart, SuperFunction

Grid = tuple[tuple[SuperFunction, ...], ...]

# Even superfunctions pivot on an invertible body; methods are looked up per call.
EVEN_FUNCTIONS: Field = (nonzero, lambda f: not f.body().is_zero, lambda f: f.invert())


class SuperMatrix:
    __slots__ = ("chart", "row_shape", "col_shape", "entries")

    def __init__(
        self,
        chart: Chart,
        row_shape: tuple[int, int],
        col_shape: tuple[int, int],
        entries: Sequence[Sequence[SuperFunction]],
    ):
        p, q = row_shape
        r, s = col_shape
        grid = tuple(tuple(row) for row in entries)
        if len(grid) != p + q or any(len(row) != r + s for row in grid):
            raise ValueError("entry grid does not match the declared shape")
        for i, row in enumerate(grid):
            for j, entry in enumerate(row):
                if entry.chart != chart:
                    raise ValueError("all entries must live on the matrix chart")
                expected = ((i >= p) + (j >= r)) % 2
                parity = entry.parity
                if parity == "inhomogeneous" and not entry.is_zero:
                    raise ValueError(f"inhomogeneous entry at ({i}, {j})")
                if not entry.is_zero and parity != ("even", "odd")[expected]:
                    raise ValueError(
                        f"entry at ({i}, {j}) has parity {parity}, "
                        f"expected {('even', 'odd')[expected]}"
                    )
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "row_shape", (p, q))
        object.__setattr__(self, "col_shape", (r, s))
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("SuperMatrix is immutable")

    @classmethod
    def identity(cls, chart: Chart, shape: tuple[int, int]) -> SuperMatrix:
        n = shape[0] + shape[1]
        one = SuperFunction.one(chart)
        zero = SuperFunction.zero(chart)
        grid = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return cls(chart, shape, shape, grid)

    # -- block access -----------------------------------------------------

    def block_a(self) -> list[list[SuperFunction]]:
        p, _ = self.row_shape
        r, _ = self.col_shape
        return [list(row[:r]) for row in self.entries[:p]]

    def block_b(self) -> list[list[SuperFunction]]:
        p, _ = self.row_shape
        r, _ = self.col_shape
        return [list(row[r:]) for row in self.entries[:p]]

    def block_c(self) -> list[list[SuperFunction]]:
        p, _ = self.row_shape
        r, _ = self.col_shape
        return [list(row[:r]) for row in self.entries[p:]]

    def block_d(self) -> list[list[SuperFunction]]:
        p, _ = self.row_shape
        r, _ = self.col_shape
        return [list(row[r:]) for row in self.entries[p:]]

    def is_square(self) -> bool:
        return self.row_shape == self.col_shape

    def equals(self, other: SuperMatrix) -> bool:
        if self.row_shape != other.row_shape or self.col_shape != other.col_shape:
            return False
        return all(
            a.equals(b)
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    def __mul__(self, other: SuperMatrix) -> SuperMatrix:
        if self.col_shape != other.row_shape:
            raise ValueError(
                f"shape mismatch: {self.col_shape} columns vs {other.row_shape} rows"
            )
        if self.chart != other.chart:
            raise ValueError("supermatrix product across different charts")
        grid = grid_mul(self.entries, other.entries, self.chart, sum(other.col_shape))
        return SuperMatrix(self.chart, self.row_shape, other.col_shape, grid)

    def __repr__(self):
        p, q = self.row_shape
        r, s = self.col_shape
        return f"SuperMatrix({p}|{q} x {r}|{s} on {self.chart.name!r})"


def even_det(rows: Sequence[Sequence[SuperFunction]]) -> SuperFunction:
    """Exact determinant of a square grid of even superfunctions.

    Division-free, so it holds over the whole even ring.  minors[cols] is
    the determinant of the first popcount(cols) rows on the columns of the
    bit set cols; putting the next row's entry in column j adds one
    inversion per used column greater than j.  Zero entries and zero
    minors are skipped.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square grid")
    if n == 0:
        raise ValueError("determinant of an empty grid")
    for row in rows:
        for entry in row:
            if entry.parity != "even":
                raise ValueError("even_det requires even entries")
    chart = rows[0][0].chart
    minors = {1 << j: entry for j, entry in enumerate(rows[0]) if not entry.is_zero}
    for row in rows[1:]:
        extended: dict[int, list[SuperFunction]] = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if cols >> j & 1 or entry.is_zero:
                    continue
                term = minor * entry
                if (cols >> j).bit_count() % 2:
                    term = -term
                extended.setdefault(cols | 1 << j, []).append(term)
        minors = {cols: SuperFunction.sum(chart, terms) for cols, terms in extended.items()}
        minors = {cols: minor for cols, minor in minors.items() if not minor.is_zero}
    return minors.get((1 << n) - 1, SuperFunction.zero(chart))


def even_matrix_inverse(
    rows: Sequence[Sequence[SuperFunction]],
) -> list[list[SuperFunction]]:
    """Gauss-Jordan inverse of a square grid of even superfunctions."""
    n = len(rows)
    identity = []
    if n and rows[0]:
        chart = rows[0][0].chart
        one, zero = SuperFunction.one(chart), SuperFunction.zero(chart)
        identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
    singular = "even matrix is not invertible (no invertible pivot)"
    return solve_square(rows, identity, EVEN_FUNCTIONS, "even_matrix_inverse", singular)


def grid_mul(
    x: Sequence[Sequence[SuperFunction]],
    y: Sequence[Sequence[SuperFunction]],
    chart: Chart,
    cols: int = 0,
) -> list[list[SuperFunction]]:
    """The product x * y, skipping zero factors; cols is the width of y when y has no rows."""
    width = len(y[0]) if y else cols
    return [
        [
            SuperFunction.sum(
                chart,
                [a * y[k][j] for k, a in enumerate(row) if not (a.is_zero or y[k][j].is_zero)],
            )
            for j in range(width)
        ]
        for row in x
    ]


def grid_sub(
    x: Sequence[Sequence[SuperFunction]], y: Sequence[Sequence[SuperFunction]]
) -> list[list[SuperFunction]]:
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(x, y)]


def _schur(a, b, c, d, chart: Chart):
    """A^-1, C A^-1 and the Schur complement S = D - (C A^-1) B."""
    a_inv = even_matrix_inverse(a)
    c_a_inv = grid_mul(c, a_inv, chart)
    return a_inv, c_a_inv, grid_sub(d, grid_mul(c_a_inv, b, chart))


def smat_inverse(m: SuperMatrix) -> SuperMatrix:
    """Two-sided exact inverse of an invertible square supermatrix.

    Requires the even diagonal blocks to be invertible (determinant with
    nonzero body); this is the formal counterpart of "the cells overlap".
    With S = D - C A^-1 B, whose body is that of D because C A^-1 B has no
    body, the inverse is [[A^-1 - TR C A^-1, TR], [-S^-1 C A^-1, S^-1]]
    with TR = -A^-1 B S^-1; the factors keep their order.
    """
    if not m.is_square():
        raise ValueError("inverse of a non-square supermatrix")
    p, q = m.row_shape
    chart = m.chart
    a, b, c, d = m.block_a(), m.block_b(), m.block_c(), m.block_d()
    if p == 0:
        return SuperMatrix(chart, m.row_shape, m.col_shape, even_matrix_inverse(d))
    if q == 0:
        return SuperMatrix(chart, m.row_shape, m.col_shape, even_matrix_inverse(a))
    a_inv, c_a_inv, schur = _schur(a, b, c, d, chart)
    bottom_right = even_matrix_inverse(schur)
    minus_s_inv = [[-e for e in row] for row in bottom_right]
    top_right = grid_mul(grid_mul(a_inv, b, chart), minus_s_inv, chart)
    bottom_left = grid_mul(minus_s_inv, c_a_inv, chart)
    top_left = grid_sub(a_inv, grid_mul(top_right, c_a_inv, chart))
    grid = [tl + tr for tl, tr in zip(top_left, top_right)]
    grid += [bl + br for bl, br in zip(bottom_left, bottom_right)]
    return SuperMatrix(chart, m.row_shape, m.col_shape, grid)


def berezinian(m: SuperMatrix) -> SuperFunction:
    """Ber(M) = det(A) * det(D - C A^-1 B)^-1 for an invertible square M."""
    if not m.is_square():
        raise ValueError("Berezinian of a non-square supermatrix")
    p, q = m.row_shape
    chart = m.chart
    if q == 0:
        return even_det(m.block_a())
    if p == 0:
        return even_det(m.block_d()).invert()
    a, b, c, d = m.block_a(), m.block_b(), m.block_c(), m.block_d()
    schur = _schur(a, b, c, d, chart)[2]
    return even_det(a) * even_det(schur).invert()
