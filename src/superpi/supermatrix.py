"""Block super-matrix algebra over a chart's superfunction ring.

A SuperMatrix of shape (p|q) x (r|s) stores a dense (p+q) x (r+s) grid of
SuperFunctions in the block layout [[A, B], [C, D]]: the first p rows and
first r columns are the even ones.  A and D must hold even entries, B and C
odd entries (zero passes any parity slot).

Every division is one row reduction by rational.gauss_jordan over the
even superfunctions (EVEN_FUNCTIONS).  Row operations are left
multiplications and even pivot inverses are central; an odd entry has no
body, so it never pivots, and the first p pivots come from the even rows.
smat_inverse reduces M next to the identity; the Berezinian is

    Ber(M) = det(A) * det(D - C A^-1 B)^-1

with the Schur complement read off M reduced on its first p columns.
There is one determinant, and it is division-free: a row expansion
memoised on the set of columns already used, so it needs no invertible
pivot and stays exact on every square even matrix, nilpotent or zero
determinant body included.
"""

from __future__ import annotations

from typing import Sequence

from .rational import Field, gauss_jordan, nonzero, solve_square
from .superalgebra import Chart, SuperFunction

# Even superfunctions pivot on an invertible body; methods are looked up per call.
EVEN_FUNCTIONS: Field = (
    nonzero,
    lambda f: not f.body().is_zero,
    lambda f: f.invert(),
    lambda f: (SuperFunction.one(f.chart), SuperFunction.zero(f.chart)),
)


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


def smat_inverse(m: SuperMatrix) -> SuperMatrix:
    """Two-sided exact inverse of a square supermatrix, reduced next to the identity.

    ValueError unless A and D - C A^-1 B have invertible determinants,
    the formal counterpart of "the cells overlap".
    """
    if not m.is_square():
        raise ValueError("inverse of a non-square supermatrix")
    identity = SuperMatrix.identity(m.chart, m.row_shape).entries
    singular = "supermatrix is not invertible (no invertible pivot)"
    grid = solve_square(m.entries, identity, EVEN_FUNCTIONS, "smat_inverse", singular)
    return SuperMatrix(m.chart, m.row_shape, m.col_shape, grid)


def berezinian(m: SuperMatrix) -> SuperFunction:
    """Ber(M) = det(A) * det(D - C A^-1 B)^-1 for an invertible square M.

    M reduced on its first p columns holds the Schur complement in its
    lower-right block: the odd rows lose C A^-1 times the even rows.
    """
    if not m.is_square():
        raise ValueError("Berezinian of a non-square supermatrix")
    p, q = m.row_shape
    if q == 0:
        return even_det(m.block_a())
    reduced = [list(row) for row in m.entries]
    if len(gauss_jordan(reduced, p, EVEN_FUNCTIONS)) < p:
        raise ValueError("even block A is not invertible (no invertible pivot)")
    schur_det_inv = even_det([row[p:] for row in reduced[p:]]).invert()
    return even_det(m.block_a()) * schur_det_inv if p else schur_det_inv
