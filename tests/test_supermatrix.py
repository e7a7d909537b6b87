"""Block supermatrix algebra: products, inverses, determinants, Berezinian."""

import random
from itertools import permutations

import pytest

from superpi.atlas import super_jacobian
from superpi.builders import build_pi_projective_closed
from superpi.superalgebra import Chart, SuperFunction, parse_superfunction
from superpi.supermatrix import (
    SuperMatrix,
    berezinian,
    even_det,
    grid_mul,
    smat_inverse,
)

from conftest import random_invertible_supermatrix, random_superfunction
from oracles import blocks, grid_sub, schur_inverse

CH = Chart("M", ("z", "w"), ("s", "t"))


def sf(text):
    return parse_superfunction(text, CH)


def cofactor_det(rows):
    """Independent oracle: signed permutation expansion (entries commute)."""
    n = len(rows)
    chart = rows[0][0].chart
    total = SuperFunction.zero(chart)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = SuperFunction.one(chart)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


def berezinian_alt(m):
    """Independent oracle: the other block formula det(A - B D^-1 C) * det(D)^-1."""
    p, q = m.row_shape
    if q == 0:
        return even_det(m.block_a())
    if p == 0:
        return even_det(blocks(m)[3]).invert()
    a, b, c, d = blocks(m)
    d_inv = smat_inverse(SuperMatrix(m.chart, (q, 0), (q, 0), d)).entries
    schur = grid_sub(a, grid_mul(grid_mul(b, d_inv, m.chart), c, m.chart))
    return even_det(schur) * even_det(d).invert()


class TestConstruction:
    def test_parity_pattern_enforced(self):
        odd = sf("(1)*[s]")
        even = sf("(z)")
        with pytest.raises(ValueError, match="parity"):
            SuperMatrix(CH, (1, 1), (1, 1), [[odd, odd], [odd, even]])

    def test_zero_entries_pass_any_slot(self):
        zero = SuperFunction.zero(CH)
        SuperMatrix(CH, (1, 1), (1, 1), [[zero, zero], [zero, zero]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            SuperMatrix(CH, (1, 1), (1, 1), [[SuperFunction.one(CH)]])


class TestMul:
    def test_identity_neutral(self):
        rng = random.Random(1)
        m = random_invertible_supermatrix(rng, CH, 2, 1)
        ident = SuperMatrix.identity(CH, (2, 1))
        assert (ident * m).equals(m)
        assert (m * ident).equals(m)

    def test_associativity_randomised(self):
        rng = random.Random(2)
        for p, q in ((1, 1), (2, 2)):
            for _ in range(10):
                a = random_invertible_supermatrix(rng, CH, p, q)
                b = random_invertible_supermatrix(rng, CH, p, q)
                c = random_invertible_supermatrix(rng, CH, p, q)
                assert ((a * b) * c).equals(a * (b * c))

    def test_incompatible_shapes(self):
        a = SuperMatrix.identity(CH, (1, 1))
        b = SuperMatrix.identity(CH, (2, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            a * b

    def test_empty_inner_dimension_gives_zero(self):
        a = SuperMatrix(CH, (1, 0), (0, 0), [[]])
        b = SuperMatrix(CH, (0, 0), (1, 1), [])
        assert (a * b).equals(SuperMatrix(CH, (1, 0), (1, 1), [[SuperFunction.zero(CH)] * 2]))


class TestInverse:
    def test_pi_symmetric_block(self):
        z = sf("(z)")
        s = sf("(1)*[s]")
        m = SuperMatrix(CH, (1, 1), (1, 1), [[z, s], [-s, z]])
        inv = smat_inverse(m)
        ident = SuperMatrix.identity(CH, (1, 1))
        assert (m * inv).equals(ident)
        assert (inv * m).equals(ident)

    def test_identity(self):
        ident = SuperMatrix.identity(CH, (2, 2))
        assert smat_inverse(ident).equals(ident)

    def test_diagonal(self):
        z = sf("(z)")
        w = sf("(w)")
        zero = SuperFunction.zero(CH)
        m = SuperMatrix(CH, (1, 1), (1, 1), [[z, zero], [zero, w]])
        inv = smat_inverse(m)
        assert inv.entries[0][0].equals(z.invert())
        assert inv.entries[1][1].equals(w.invert())

    def test_two_sided_randomised(self):
        rng = random.Random(3)
        ident11 = SuperMatrix.identity(CH, (1, 1))
        ident22 = SuperMatrix.identity(CH, (2, 2))
        for _ in range(15):
            m = random_invertible_supermatrix(rng, CH, 1, 1)
            inv = smat_inverse(m)
            assert (m * inv).equals(ident11)
            assert (inv * m).equals(ident11)
        for _ in range(8):
            m = random_invertible_supermatrix(rng, CH, 2, 2)
            inv = smat_inverse(m)
            assert (m * inv).equals(ident22)
            assert (inv * m).equals(ident22)

    def test_purely_even_and_purely_odd_shapes(self):
        zero = SuperFunction.zero(CH)
        grid = [[sf("(z)"), sf("(1)*[s*t]")], [zero, sf("(w)")]]
        for shape in ((2, 0), (0, 2)):
            m = SuperMatrix(CH, shape, shape, grid)
            inv = smat_inverse(m)
            ident = SuperMatrix.identity(CH, shape)
            assert (m * inv).equals(ident)
            assert (inv * m).equals(ident)

    def test_nilpotent_schur_complement_rejected(self):
        # A = 1 is invertible, but S = D - C A^-1 B = -t*s has no body.
        m = SuperMatrix(
            CH, (1, 1), (1, 1),
            [[SuperFunction.one(CH), sf("(1)*[s]")], [sf("(1)*[t]"), SuperFunction.zero(CH)]],
        )
        with pytest.raises(ValueError, match="no invertible pivot"):
            smat_inverse(m)

    def test_matches_block_formula(self):
        rng = random.Random(3)
        for p, q, rounds in ((1, 1, 15), (2, 2, 8)):
            for _ in range(rounds):
                m = random_invertible_supermatrix(rng, CH, p, q)
                expected = schur_inverse(m)
                assert [[e.to_str() for e in row] for row in smat_inverse(m).entries] == [
                    [e.to_str() for e in row] for row in expected.entries
                ]

    def test_non_square_rejected(self):
        one = SuperFunction.one(CH)
        zero = SuperFunction.zero(CH)
        m = SuperMatrix(CH, (1, 0), (1, 1), [[one, zero]])
        with pytest.raises(ValueError, match="non-square"):
            smat_inverse(m)

    def test_parity_pattern_preserved(self):
        rng = random.Random(4)
        m = random_invertible_supermatrix(rng, CH, 2, 1)
        inv = smat_inverse(m)
        _, b, c, _ = blocks(inv)
        for row in b + c:
            for entry in row:
                assert entry.is_zero or entry.parity == "odd"


class TestEvenDet:
    def test_identity(self):
        rows = [[SuperFunction.one(CH), SuperFunction.zero(CH)],
                [SuperFunction.zero(CH), SuperFunction.one(CH)]]
        assert even_det(rows).equals(SuperFunction.one(CH))

    def test_odd_entry_rejected(self):
        with pytest.raises(ValueError, match="even"):
            even_det([[sf("(1)*[s]")]])

    def test_against_cofactor_oracle(self):
        rng = random.Random(5)
        for n in (1, 2, 3):
            for _ in range(12):
                rows = [
                    [random_superfunction(rng, CH, parity="even", max_components=2) for _ in range(n)]
                    for _ in range(n)
                ]
                assert even_det(rows).equals(cofactor_det(rows))

    def test_body_singular_first_pivot(self):
        # No entry of the first column has an invertible body.
        zero = SuperFunction.zero(CH)
        one = SuperFunction.one(CH)
        rows = [[zero, one], [one, zero]]
        assert even_det(rows).equals(-one)

    def test_nilpotent_determinant(self):
        zero = SuperFunction.zero(CH)
        one = SuperFunction.one(CH)
        st = sf("(1)*[s*t]")
        assert even_det([[st, zero], [zero, one]]).equals(st)
        assert even_det([[st, sf("(z)*[s*t]")], [one, sf("(z)")]]).is_zero
        assert even_det([[st, one], [one, st]]).equals(-one)

    def test_pi_space_jacobian_blocks_against_oracle(self):
        jac = super_jacobian(build_pi_projective_closed(5).transition("U1", "U0"))
        a, _, _, d = blocks(jac)
        for block in (a, d):
            for n in (4, 5):
                rows = [row[:n] for row in block[:n]]
                assert even_det(rows).equals(cofactor_det(rows))

    def test_inverse_of_even_matrix(self):
        rows = [
            [sf("(z)"), sf("(1)*[s*t]")],
            [SuperFunction.zero(CH), sf("(w)")],
        ]
        inv = smat_inverse(SuperMatrix(CH, (2, 0), (2, 0), rows)).entries
        prod = [
            [
                rows[i][0] * inv[0][j] + rows[i][1] * inv[1][j]
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert prod[0][0].equals(SuperFunction.one(CH))
        assert prod[0][1].is_zero
        assert prod[1][1].equals(SuperFunction.one(CH))

    def test_even_inverse_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            smat_inverse(SuperMatrix(CH, (1, 0), (2, 0), [[sf("(z)"), sf("(1)")]]))
        with pytest.raises(ValueError, match="square"):
            smat_inverse(SuperMatrix(CH, (2, 0), (1, 0), [[sf("(z)")], [sf("(1)")]]))

    def test_even_inverse_needs_invertible_pivot(self):
        with pytest.raises(ValueError, match="no invertible pivot"):
            smat_inverse(SuperMatrix(CH, (1, 0), (1, 0), [[sf("(1)*[s*t]")]]))


class TestBerezinian:
    def test_identity(self):
        assert berezinian(SuperMatrix.identity(CH, (2, 2))).equals(SuperFunction.one(CH))

    def test_needs_an_invertible_even_block(self):
        zero, one = SuperFunction.zero(CH), SuperFunction.one(CH)
        m = SuperMatrix(CH, (1, 1), (1, 1), [[sf("(1)*[s*t]"), zero], [zero, one]])
        with pytest.raises(ValueError, match="no invertible pivot"):
            berezinian(m)

    def test_block_formulas_agree_randomised(self):
        rng = random.Random(7)
        for _ in range(20):
            m = random_invertible_supermatrix(rng, CH, 2, 2)
            assert berezinian(m).equals(berezinian_alt(m))

    def test_multiplicative_randomised(self):
        rng = random.Random(8)
        for p, q in ((1, 1), (2, 2), (3, 3)):
            rounds = 8 if (p, q) != (3, 3) else 3
            for _ in range(rounds):
                m = random_invertible_supermatrix(rng, CH, p, q)
                n = random_invertible_supermatrix(rng, CH, p, q)
                assert berezinian(m * n).equals(berezinian(m) * berezinian(n))
