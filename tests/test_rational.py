"""Exact polynomial and rational-function arithmetic."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, strategies as st

import superpi.rational as rational
from superpi.rational import (
    Poly,
    RatFun,
    _cross_cancel,
    _normalize_pair,
    poly_exact_div,
    poly_gcd,
    rat_mat_inverse,
    rat_solve,
    equal_by_key,
    solve_fraction_system,
    sum_by_key,
)
from superpi.superalgebra import Chart, Pullback, SuperFunction

from conftest import random_ratfun

V = ("x", "y", "z")


def poly(terms):
    return Poly(V, terms)


def var(name):
    return RatFun.var(V, name)


def const(c):
    return RatFun.const(V, c)


class TestPoly:
    def test_zero_terms_dropped(self):
        p = poly({(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
        assert len(p.terms) == 1

    def test_mismatched_variables_rejected(self):
        other = Poly(("x",), {(1,): Fraction(1)})
        with pytest.raises(ValueError, match="mismatched variable sets"):
            poly({}) + other

    def test_arithmetic(self):
        x = Poly.var(V, "x")
        y = Poly.var(V, "y")
        assert (x + y) * (x - y) == x * x - y * y
        assert (x + y) ** 2 == x * x + x * y + x * y + y * y

    def test_derivative(self):
        x = Poly.var(V, "x")
        y = Poly.var(V, "y")
        p = x * x * y + y
        assert p.derivative("x") == x * y + x * y
        assert p.derivative("y") == x * x + Poly.const(V, 1)

    def test_graded_lex_print(self):
        p = poly({(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(-1), (2, 1, 0): Fraction(3)})
        assert p.to_str() == "3*x^2*y + x - 1"


class TestRatFun:
    def test_add(self):
        z = var("z")
        assert (const(1) / z + z).to_str() == "(z^2 + 1)/(z)"

    def test_mul_inverse_pair(self):
        assert (var("x") / var("y") * (var("y") / var("x"))).equals(const(1))

    def test_div_cancellation(self):
        z20 = var("y")
        z10 = var("z")
        lhs = (z20 / (z10 * z10)) / (const(1) / z10)
        assert lhs.equals(z20 / z10)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            var("x") / RatFun.zero(V)

    def test_eq_factored_identity(self):
        z = Poly.var(V, "z")
        one = Poly.const(V, 1)
        lhs = RatFun(z * z - one, z - one)
        rhs = RatFun.from_poly(z + one)
        assert lhs.equals(rhs)

    def test_eq_distinguishes(self):
        z = var("z")
        assert not (const(1) / z).equals(const(1) / (z * z))

    def test_sign_normalisation(self):
        y, z = var("y"), var("z")
        assert ((-y) / (-z)).to_str() == "(y)/(z)"
        assert ((-y) / (-z)).equals(y / z)

    def test_eq_invariant_under_common_factor(self):
        x, y = Poly.var(V, "x"), Poly.var(V, "y")
        base = RatFun(x, y)
        blown = RatFun(x * (x + y), y * (x + y))
        assert base.equals(blown)

    def test_derivative_quotient_rule(self):
        z = var("z")
        d = (const(1) / z).derivative("z")
        assert d.equals(-(const(1) / (z * z)))

    def test_substitute(self):
        # Rational functions are substituted as superfunctions on an even-only chart.
        chart = Chart("E", V, ())
        x, y = var("x"), var("y")
        images = {"x": y * y, "y": y, "z": var("z")}
        pull = Pullback(
            chart, {name: SuperFunction.from_ratfun(chart, img) for name, img in images.items()}
        )
        image = pull(SuperFunction.from_ratfun(chart, x / y))
        assert image.equals(SuperFunction.from_ratfun(chart, y))

    def test_homogeneous_degree(self):
        x, y = var("x"), var("y")
        assert (x / (y * y)).homogeneous_degree() == -1
        assert (x + const(1)).homogeneous_degree() is None


class TestGcd:
    def test_reduction_caps_growth(self):
        x, y = Poly.var(V, "x"), Poly.var(V, "y")
        delta = x * y - y * x * x  # = xy(1 - x)
        blown = RatFun(delta * (x + y), delta * delta)
        den_degree, delta_degree = (max(map(sum, p.terms)) for p in (blown.den, delta))
        assert den_degree <= delta_degree

    def test_exact_div(self):
        x, y = Poly.var(V, "x"), Poly.var(V, "y")
        product = (x + y) * (x - y)
        assert poly_exact_div(product, x + y) == x - y
        assert poly_exact_div(x + y, x * x) is None

    def test_gcd_common_factor(self):
        x, y, z = (Poly.var(V, n) for n in V)
        g = x * y - z
        a = g * (x + Poly.const(V, 1))
        b = g * g * y
        got = poly_gcd(a, b)
        assert poly_exact_div(got, g) is not None or poly_exact_div(g, got) is not None
        assert poly_exact_div(a, got) is not None
        assert poly_exact_div(b, got) is not None

    def test_gcd_coprime(self):
        x, y = Poly.var(V, "x"), Poly.var(V, "y")
        assert poly_gcd(x + Poly.const(V, 1), y + Poly.const(V, 2)).is_constant() == 1

    def test_monomial_short_cut(self):
        x, y, z = (Poly.var(V, n) for n in V)
        assert poly_gcd(x * x * y.scale(6), x * y * z + x * x * y * y) == x * y
        assert poly_gcd(z.scale(4), x + y) == Poly.const(V, 1)

    def test_content_and_primitive_part(self):
        x, y = Poly.var(V, "x"), Poly.var(V, "y")
        one = Poly.const(V, 1)
        pp = x * x + x * y + one
        for content in (y * y, y + one):
            assert rational._content_pp(content * pp, 0) == (content, pp)


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 2)) for _ in V)
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        if coeff:
            terms[exps] = coeff
    return Poly(V, terms)


@st.composite
def small_ratfuns(draw):
    num = draw(small_polys())
    den = draw(small_polys())
    if den.is_zero:
        den = Poly.const(V, 1)
    return RatFun(num, den)


class TestEqualityProperties:
    @given(small_ratfuns())
    def test_reflexive(self, a):
        assert a.equals(a)

    @given(small_ratfuns(), small_ratfuns())
    def test_symmetric(self, a, b):
        assert a.equals(b) == b.equals(a)

    @given(small_ratfuns(), small_polys())
    def test_invariant_under_scaling(self, a, p):
        if p.is_zero:
            p = Poly.const(V, 1)
        scaled = RatFun(a.num * p, a.den * p)
        assert a.equals(scaled)

    @given(small_ratfuns(), small_polys())
    def test_unnormalised_representatives_compare_by_value(self, a, p):
        if p.is_zero:
            p = Poly.const(V, 1)
        blown = RatFun._raw(a.num * p, a.den * p)
        assert a.equals(blown) and blown.equals(a)
        shifted = RatFun._raw(a.num * p + a.den * p, a.den * p)
        assert not a.equals(shifted) and not shifted.equals(a)

    def test_identical_parts_need_no_product(self, monkeypatch):
        a = (var("x") + const(1)) / (var("y") - const(2))
        twin = RatFun._raw(Poly(V, dict(a.num.terms)), Poly(V, dict(a.den.terms)))
        monkeypatch.setattr(Poly, "__mul__", lambda *args: pytest.fail("cross-multiplied"))
        assert a.equals(twin) and a == twin

    @given(small_ratfuns(), small_ratfuns(), small_ratfuns())
    def test_field_identities(self, a, b, c):
        assert ((a + b) + c).equals(a + (b + c))
        assert ((a * b) * c).equals(a * (b * c))
        assert (a * (b + c)).equals(a * b + a * c)


def _all_int(r: RatFun) -> bool:
    return all(type(c) is int for p in (r.num, r.den) for c in p.terms.values())


class TestIntegerCore:
    @given(small_ratfuns(), small_ratfuns())
    def test_arithmetic_keeps_int_coefficients(self, a, b):
        results = [a, a + b, a - b, a * b, a.derivative("x")]
        if not b.is_zero:
            results += [a / b, b.inverse()]
        for r in results:
            assert _all_int(r), r

    def test_integral_fractions_stored_as_int(self):
        half_x = poly({(1, 0, 0): Fraction(1, 2)})
        assert type(poly({(1, 0, 0): Fraction(4, 2)}).terms[(1, 0, 0)]) is int
        assert type((half_x + half_x).terms[(1, 0, 0)]) is int
        assert type(half_x.scale(2).terms[(1, 0, 0)]) is int
        assert type(Poly.const(V, Fraction(3)).is_constant()) is int

    def test_non_integral_quotient_stays_exact(self):
        two_x = poly({(1, 0, 0): 2})
        three_x = poly({(1, 0, 0): 3})
        q = poly_exact_div(two_x, three_x)
        assert q == Poly.const(V, Fraction(2, 3))
        assert type(q.is_constant()) is Fraction
        ratio = RatFun(two_x, three_x).is_constant()
        assert ratio == Fraction(2, 3) and type(ratio) is Fraction
        assert type(RatFun(three_x.scale(2), three_x).is_constant()) is int

    def test_float_coefficients_rejected(self):
        x = Poly.var(V, "x")
        with pytest.raises(TypeError):
            Poly(("x",), {(1,): 0.1})
        with pytest.raises(TypeError):
            Poly.const(V, 0.5)
        with pytest.raises(TypeError):
            RatFun.const(V, 0.5)
        with pytest.raises(TypeError):
            x.scale(0.5)
        with pytest.raises(TypeError):
            RatFun.from_poly(x).scale(0.5)


def reference_mul(p, q):
    """The product by the plain double loop: collect, drop zeros, then canonical ints."""
    p._require_same_variables(q)
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            value = out.get(exps, 0) + c1 * c2
            if value == 0:
                out.pop(exps, None)
            else:
                out[exps] = value
    return {e: rational.exact(c) for e, c in out.items()}


def reference_leading(terms):
    exps = max(terms, key=rational._grlex)
    return exps, terms[exps]


def reference_exact_div(a, b):
    """poly_exact_div's terms by the max(key=_grlex) and generator loop, or None."""
    b_exp, b_coeff = reference_leading(b.terms)
    remainder, quotient = dict(a.terms), {}
    while remainder:
        exps, coeff = reference_leading(remainder)
        q_exp = tuple(x - y for x, y in zip(exps, b_exp))
        if any(e < 0 for e in q_exp):
            return None
        q_coeff = rational._exact_div(coeff, b_coeff)
        quotient[q_exp] = q_coeff
        for e, c in b.terms.items():
            key = tuple(x + y for x, y in zip(q_exp, e))
            value = remainder.get(key, 0) - q_coeff * c
            if value == 0:
                remainder.pop(key, None)
            else:
                remainder[key] = value
    return quotient


def mixed_poly(rng, max_terms):
    """0 to max_terms terms with int or Fraction coefficients, cancellations likely."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        coeff = rng.choice((-2, -1, 1, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)))
        terms[tuple(rng.randint(0, 2) for _ in V)] = coeff
    return poly(terms)


def typed_items(p):
    """p's terms in dict order, each coefficient with its type."""
    return [(e, c, type(c)) for e, c in p.terms.items()]


class TestInnerLoops:
    """Products, leading terms, exact division and unit tests against plain references."""

    def test_products_match_the_double_loop(self):
        rng = random.Random(61)
        one_term = 0
        for _ in range(600):
            p, q = mixed_poly(rng, 4), mixed_poly(rng, 4)
            one_term += len(p.terms) == 1 or len(q.terms) == 1
            expected = reference_mul(p, q)
            product = p * q
            assert product.terms == expected
            assert all(type(c) is type(expected[e]) for e, c in product.terms.items())
        assert one_term > 100

    def test_one_term_products_keep_the_order_of_the_other_factor(self):
        rng = random.Random(62)
        for _ in range(200):
            p, m = mixed_poly(rng, 5), poly({(1, 0, 2): rng.choice((-1, 2, Fraction(1, 3)))})
            for product, ordered in ((m * p, p), (p * m, p)):
                assert [e for e, _, _ in typed_items(product)] == [
                    tuple(map(sum, zip(e, (1, 0, 2)))) for e in ordered.terms
                ]

    def test_integral_fraction_products_are_ints(self):
        half_x = poly({(1, 0, 0): Fraction(3, 2)})
        two_thirds = poly({(0, 1, 0): Fraction(2, 3), (0, 0, 1): Fraction(4, 3)})
        assert typed_items(half_x * two_thirds) == [((1, 1, 0), 1, int), ((1, 0, 1), 2, int)]
        assert typed_items(two_thirds * half_x) == [((1, 1, 0), 1, int), ((1, 0, 1), 2, int)]
        mixed = poly({(1, 0, 0): Fraction(3, 2), (0, 0, 0): Fraction(1, 3)})
        assert typed_items(mixed * mixed) == [
            ((2, 0, 0), Fraction(9, 4), Fraction),
            ((1, 0, 0), 1, int),
            ((0, 0, 0), Fraction(1, 9), Fraction),
        ]

    def test_zero_and_one_term_operands(self):
        zero, x = poly({}), poly({(1, 0, 0): 2})
        y = poly({(0, 1, 0): Fraction(-1, 2)})
        assert (zero * zero).terms == {}
        assert (zero * x).terms == {} and (x * zero).terms == {}
        assert typed_items(x * y) == [((1, 1, 0), -1, int)]
        assert typed_items(y * y) == [((0, 2, 0), Fraction(1, 4), Fraction)]

    def test_mismatched_variables(self):
        other_one = Poly(("x",), {(1,): 1})
        other_two = Poly(("x",), {(1,): 1, (0,): 1})
        for p in (poly({}), poly({(1, 0, 0): 1}), poly({(1, 0, 0): 1, (0, 0, 0): 2})):
            for q in (other_one, other_two):
                with pytest.raises(ValueError, match="mismatched variable sets"):
                    p * q
                with pytest.raises(ValueError, match="mismatched variable sets"):
                    q * p

    def test_leading_and_exact_division_match_the_references(self):
        rng = random.Random(63)
        for _ in range(300):
            a, b = mixed_poly(rng, 5), mixed_poly(rng, 3)
            if b.is_zero:
                continue
            assert b.leading() == reference_leading(b.terms)
            for dividend in (a * b, a):
                quotient = poly_exact_div(dividend, b)
                expected = reference_exact_div(dividend, b)
                assert (None if quotient is None else quotient.terms) == expected

    def test_is_constant(self):
        assert poly({}).is_constant() == 0
        assert poly({(0, 0, 0): Fraction(3, 2)}).is_constant() == Fraction(3, 2)
        assert poly({(0, 0, 1): 1}).is_constant() is None
        assert poly({(0, 0, 0): 1, (1, 0, 0): 1}).is_constant() is None

    def test_unit_sign(self):
        x, y = var("x"), var("y")
        cases = [
            (const(1), 1),
            (const(-1), -1),
            (const(2), 0),
            (const(Fraction(1, 2)), 0),
            (RatFun.zero(V), 0),
            (x, 0),
            ((x + y) / x, 0),
            (x * y + y, 0),
        ]
        for value, sign in cases:
            assert value._unit_sign() == sign, value


def _int_poly(rng, min_terms, max_terms):
    terms = {}
    size = rng.randint(min_terms, max_terms)
    while len(terms) < size:
        terms[tuple(rng.randint(0, 2) for _ in V)] = rng.choice((-3, -2, -1, 1, 2, 3, 4, 6))
    return poly(terms)


def planted_pairs(seed, count):
    """(a*g, b*g) with nonzero a, b and a common factor g of two or more terms."""
    rng = random.Random(seed)
    for _ in range(count):
        g = _int_poly(rng, 2, 3)
        yield _int_poly(rng, 1, 3) * g, _int_poly(rng, 1, 3) * g


class TestNormalForm:
    def test_idempotent_and_commutes_with_negation(self, monkeypatch):
        gcd_calls = []
        real_gcd = rational.poly_gcd

        def counted_gcd(a, b):
            gcd_calls.append(1)
            return real_gcd(a, b)

        monkeypatch.setattr(rational, "poly_gcd", counted_gcd)
        for n, d in planted_pairs(5, 300):
            num, den = _normalize_pair(n, d)
            assert _normalize_pair(num, den) == (num, den)
            assert _normalize_pair(-num, den) == (-num, den)
        # The planted factors are multi-term, so the gcd step really runs.
        assert len(gcd_calls) >= 300

    def test_renaming_matches_the_constructor(self):
        # A renaming keeps the normal form but for den's lead sign, which
        # follows the variable order; both outcomes of that sign occur.
        values = [RatFun(n, d) for n, d in planted_pairs(4, 40)]
        values.append(RatFun(poly({(0, 0, 0): 1}), poly({(1, 0, 0): 1, (0, 1, 0): -1})))
        flips = set()
        for f in values:
            for order in permutations(range(len(V))):
                got = f.renamed(V, order)
                parts = [
                    Poly(V, {tuple(e[k] for k in order): c for e, c in p.terms.items()})
                    for p in (f.num, f.den)
                ]
                flips.add(parts[1].leading()[1] < 0)
                assert typed_parts(got.num, got.den) == normalized(*parts)
        assert flips == {True, False}

    def test_renaming_flips_a_negative_lead(self):
        # 1/(x - y) with x and y swapped is 1/(y - x) = -1/(x - y).
        f = RatFun(poly({(0, 0, 0): 1}), poly({(1, 0, 0): 1, (0, 1, 0): -1}))
        got = f.renamed(V, (1, 0, 2))
        assert (got.num.to_str(), got.den.to_str()) == ("-1", "x - y")

    def test_inverse_and_quotient_match_the_old_routes(self):
        # The old inverse normalised the swapped pair; the old quotient
        # cross-cancelled numerators and denominators before multiplying.
        values = [RatFun(n, d) for n, d in planted_pairs(8, 60)]
        values = [f for f in values if f._as_monomial() is None]
        for f in values:
            old, new = RatFun(f.den, f.num), f.inverse()
            assert (new.num.terms, new.den.terms) == (old.num.terms, old.den.terms)
        # Both signs of the swapped denominator's lead occur.
        assert {f.num.leading()[1] > 0 for f in values} == {True, False}
        rng = random.Random(9)
        pairs = [tuple(rng.sample(values, 2)) for _ in range(40)]
        pairs += [(a * b, a) for a, b in pairs[:20]] + [(a, b * a) for a, b in pairs[20:]]
        for a, b in pairs:
            num_a, num_b = _cross_cancel(a.num, b.num)
            den_b, den_a = _cross_cancel(b.den, a.den)
            old, new = RatFun(num_a * den_b, den_a * num_b), a / b
            assert (new.num.terms, new.den.terms) == (old.num.terms, old.den.terms)

    def test_zero_operand_and_negation_match_the_constructor(self):
        rng = random.Random(11)
        values = [RatFun(n, d) for n, d in planted_pairs(6, 40)]
        values += [random_ratfun(rng, V) for _ in range(40)]
        zero = RatFun.zero(V)
        for x in values:
            full = RatFun(x.num, x.den)
            negated = RatFun(-x.num, x.den)
            for result, expected in [
                (x + zero, full),
                (zero + x, full),
                (x - zero, full),
                (zero - x, negated),
                (-x, negated),
            ]:
                assert (result.num, result.den) == (expected.num, expected.den)

    def test_zero_operand_keeps_the_variable_check(self):
        x = RatFun.var(V, "x")
        other_zero = RatFun.zero(("x",))
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(ValueError, match="mismatched variable sets"):
                op(other_zero, x)
            with pytest.raises(ValueError, match="mismatched variable sets"):
                op(x, other_zero)

    def test_unit_factor_matches_the_constructor(self):
        rng = random.Random(13)
        values = [RatFun(n, d) for n, d in planted_pairs(7, 40)]
        values += [random_ratfun(rng, V) for _ in range(40)] + [const(2), const(-1)]
        one, minus_one = const(1), const(-1)
        for x in values:
            full = RatFun(x.num, x.den)
            negated = RatFun(-x.num, x.den)
            for result, expected in [
                (one * x, full),
                (x * one, full),
                (minus_one * x, negated),
                (x * minus_one, negated),
            ]:
                assert (result.num, result.den) == (expected.num, expected.den)

    def test_unit_factor_keeps_the_variable_check(self):
        x = RatFun.var(V, "x")
        for unit in (RatFun.one(("x",)), RatFun.const(("x",), -1)):
            with pytest.raises(ValueError, match="mismatched variable sets"):
                unit * x
            with pytest.raises(ValueError, match="mismatched variable sets"):
                x * unit


def monomial_fractions(seed, count):
    """Normal (p/q) * x^e from the full constructor, with constants and units."""
    rng = random.Random(seed)
    coeffs = (-6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 9)
    values = [const(c) for c in (1, -1, 2, -4, Fraction(3, 2), Fraction(-2, 9))]
    while len(values) < count:
        num, den = ({tuple(rng.randint(0, 2) for _ in V): rng.choice(coeffs)} for _ in "nd")
        values.append(RatFun(poly(num), poly(den)))
    return values


def typed_parts(num, den):
    """num and den key for key, each coefficient with its type."""
    return [{e: (type(c), c) for e, c in p.terms.items()} for p in (num, den)]


def normalized(num, den):
    """typed_parts of the general path's normal form of num/den."""
    return typed_parts(*_normalize_pair(num, den))


class TestMonomialFractions:
    def test_every_short_cut_matches_the_general_normal_form(self):
        values = monomial_fractions(17, 60)
        rng = random.Random(18)
        pairs = [(a, b) for a in values[:12] for b in values] + [
            tuple(rng.sample(values, 2)) for _ in range(300)
        ]
        for a, b in pairs:
            assert typed_parts(a.num, a.den) == normalized(a.num, a.den)
            product, quotient = a * b, a / b
            assert typed_parts(product.num, product.den) == normalized(
                a.num * b.num, a.den * b.den
            )
            assert typed_parts(quotient.num, quotient.den) == normalized(
                a.num * b.den, a.den * b.num
            )
        for a in values:
            inverse = a.inverse()
            assert typed_parts(inverse.num, inverse.den) == normalized(a.den, a.num)
            for name in V:
                d = a.derivative(name)
                dn, dd = a.num.derivative(name), a.den.derivative(name)
                assert typed_parts(d.num, d.den) == normalized(
                    dn * a.den - a.num * dd, a.den * a.den
                )
        for a in values:
            for p in (a.num, -a.den, a.num.scale(Fraction(-2, 3)), Poly.zero(V)):
                r = RatFun.from_poly(p)
                assert typed_parts(r.num, r.den) == normalized(p, Poly.const(V, 1))
        zero = RatFun.zero(V)
        for a in values + [var("x") + const(1)]:
            for c in (0, 1, -1, 3, -4, Fraction(-2, 3), Fraction(9, 4)):
                scaled = a.scale(c)
                assert typed_parts(scaled.num, scaled.den) == normalized(a.num.scale(c), a.den)
            for product in (a * zero, zero * a):
                assert typed_parts(product.num, product.den) == normalized(
                    a.num * zero.num, a.den * zero.den
                )
            for cancelled in (
                RatFun.sum((a, const(2), -a, const(-2))),
                RatFun.sum((a, var("z").inverse(), -(a + var("z").inverse()))),
            ):
                assert typed_parts(cancelled.num, cancelled.den) == normalized(Poly.zero(V), a.den)
        for r in [a * b for a, b in pairs] + [a.derivative("x") for a in values]:
            assert all(type(c) is int for part in (r.num, r.den) for c in part.terms.values())

    def test_no_normalisation_pass(self, monkeypatch):
        values = monomial_fractions(19, 40)
        x_plus_one = var("x") + const(1)
        x, y = var("x"), var("y")
        sum_over_xy = (x + y) / (x * y)

        def refuse(num, den):
            raise AssertionError("a monomial fraction was normalised")

        monkeypatch.setattr(rational, "_normalize_pair", refuse)
        zero = RatFun.zero(V)
        for a, b in zip(values, values[1:]):
            a * b, a / b, a.inverse(), a.derivative("y")
            a.scale(Fraction(-2, 3)), a.scale(0), a * zero, zero * a
        RatFun.var(V, "z"), RatFun.const(V, Fraction(-3, 4)), RatFun.one(V), RatFun.zero(V)
        # A zero product or a sum that cancels is the zero normal form, whatever the terms.
        x_plus_one * zero, zero * x_plus_one, RatFun.sum((x_plus_one, y, -x_plus_one, -y))
        assert RatFun.sum((x.inverse(), y.inverse(), -sum_over_xy)).is_zero
        # Every other value still goes through the general normaliser.
        with pytest.raises(AssertionError, match="was normalised"):
            x_plus_one * var("y")

    def test_mismatched_variable_sets_still_raise(self):
        a = RatFun(poly({(1, 0, 0): 2}), poly({(0, 1, 0): 3}))
        b = RatFun.var(("x", "y"), "y").inverse()
        for left, right in ((a, b), (b, a)):
            for op in (lambda u, v: u * v, lambda u, v: u / v):
                with pytest.raises(ValueError, match="mismatched variable sets"):
                    op(left, right)


def difference_pairs(seed, count):
    """Pairs with a planted common factor that always includes some x_i - x_j."""
    rng = random.Random(seed)
    for _ in range(count):
        i, j = rng.sample(range(len(V)), 2)
        g = Poly.var(V, V[i]) - Poly.var(V, V[j])
        if rng.random() < 0.5:
            g = g * _int_poly(rng, 1, 2)
        yield _int_poly(rng, 1, 3) * g, _int_poly(rng, 1, 3) * g


class TestCoprimeProbe:
    def test_difference_of_first_two_variables(self):
        W = ("x0", "x1", "x2")
        x0, x1 = Poly.var(W, "x0"), Poly.var(W, "x1")
        a = (x0 - x1) * (x0 + Poly.const(W, 2))
        b = (x0 - x1) * (x1 + Poly.const(W, 3))
        assert poly_gcd(a, b) == x0 - x1
        reduced = RatFun(a, b)
        assert (reduced.num, reduced.den) == (x0 + Poly.const(W, 2), x1 + Poly.const(W, 3))

    def test_difference_of_padded_variables(self):
        W = tuple(f"x{i}" for i in range(12))
        x10, x11 = Poly.var(W, "x10"), Poly.var(W, "x11")
        a = (x10 - x11) * (x10 + Poly.const(W, 2))
        b = (x10 - x11) * (x11 + Poly.const(W, 3))
        assert poly_gcd(a, b) == x10 - x11
        reduced = RatFun(a, b)
        assert (reduced.num, reduced.den) == (x10 + Poly.const(W, 2), x11 + Poly.const(W, 3))

    def test_points_separate_every_coordinate_pair(self):
        for nvars in (1, 3, 10, 11, 24):
            for point in rational._probe_points(nvars):
                assert len(point) == nvars
                gaps = [abs(p - q) for k, p in enumerate(point) for q in point[k + 1 :]]
                assert all(gap > rational._PROBE_BOUND for gap in gaps)

    def test_common_zero_is_inconclusive(self):
        # Both polynomials vanish at the first point; only the second decides.
        x, y = Poly.var(V, "x"), Poly.var(V, "y")
        f = x - Poly.const(V, rational._PROBE_POINTS[0][0])
        a, b = f * (y + Poly.const(V, 1)), f * (y + Poly.const(V, 2))
        assert not rational._probably_coprime(a, b)
        assert poly_gcd(a, b) == f


def probe_from_scratch(a, b):
    """_probably_coprime with every value evaluated anew."""
    for point in rational._probe_points(len(a.variables)):
        va, vb = rational._eval_int(a, point), rational._eval_int(b, point)
        if 0 < gcd(va.numerator, vb.numerator) <= rational._PROBE_BOUND:
            return True
    return False


def probe_pairs(seed, count):
    """Planted, x_i - x_j, commonly vanishing and random pairs over shared polynomials."""
    rng = random.Random(seed)
    x = Poly.var(V, "x")
    vanishing = [
        x - Poly.const(V, point[0]) for point in rational._PROBE_POINTS
    ]
    polys = [p for pair in planted_pairs(seed, count) for p in pair]
    polys += [p for pair in difference_pairs(seed + 1, count) for p in pair]
    polys += [f * _int_poly(rng, 1, 3) for f in vanishing for _ in range(count)]
    polys += [mixed_poly(rng, 4) for _ in range(count)]
    polys = [p for p in polys if len(p.terms) > 1]
    return polys, [tuple(rng.sample(polys, 2)) for _ in range(8 * count)]


class TestProbeMemo:
    def test_verdicts_match_a_from_scratch_probe_call_for_call(self):
        polys, pairs = probe_pairs(71, 20)
        fresh = [(poly(dict(a.terms)), poly(dict(b.terms))) for a, b in pairs]
        verdicts = [rational._probably_coprime(a, b) for a, b in pairs]
        assert verdicts == [probe_from_scratch(a, b) for a, b in fresh]
        assert True in verdicts and False in verdicts

    def test_each_polynomial_is_evaluated_once_per_point(self, monkeypatch):
        polys, pairs = probe_pairs(72, 20)
        evaluations = []
        real = rational._eval_int
        monkeypatch.setattr(
            rational, "_eval_int", lambda p, point: evaluations.append((id(p), point)) or real(p, point)
        )
        for a, b in pairs * 2:
            rational._probably_coprime(a, b)
        assert evaluations
        assert len(evaluations) == len(set(evaluations))
        assert len(evaluations) <= len(rational._PROBE_POINTS) * len(polys)

    def test_equality_and_hash_ignore_the_probe_values(self):
        polys, pairs = probe_pairs(73, 5)
        for a, b in pairs:
            rational._probably_coprime(a, b)
        probed = [p for p in polys if p._probes is not None]
        assert probed
        for p in probed:
            twin = poly(dict(p.terms))
            assert twin._probes is None
            assert p == twin and hash(p) == hash(twin)
            assert hash(p) == hash((p.variables, frozenset(p.terms.items())))


class TestGcdCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(rational, "_GCD_CACHE", {})

    def test_non_divisor_is_neither_returned_nor_cached(self, monkeypatch):
        x, y = Poly.var(V, "x"), Poly.var(V, "y")
        monkeypatch.setattr(rational, "_poly_gcd_uncached", lambda a, b: y + Poly.const(V, 7))
        a, b = (x + y) * (x - y), (x + y) * (x + Poly.const(V, 1))
        assert poly_gcd(a, b).is_constant() == 1
        assert rational._GCD_CACHE == {}
        assert RatFun(a, b).den == b

    def test_hit_matches_miss(self, monkeypatch):
        runs = []
        real = rational._poly_gcd_uncached
        monkeypatch.setattr(rational, "_poly_gcd_uncached", lambda a, b: runs.append(1) or real(a, b))
        for a, b in difference_pairs(3, 20):
            g = poly_gcd(a, b)
            miss = (g, *rational._cofactors(a, b, g))
            # Equal but separately built inputs hit the same entry.
            runs_before = len(runs)
            a2, b2 = poly(dict(a.terms)), poly(dict(b.terms))
            g2 = poly_gcd(a2, b2)
            assert (g2, *rational._cofactors(a2, b2, g2)) == miss
            assert len(runs) == runs_before
        assert runs

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(rational, "_GCD_CACHE_LIMIT", 3)
        for a, b in difference_pairs(4, 30):
            poly_gcd(a, b)
            assert len(rational._GCD_CACHE) <= 3
        assert rational._GCD_CACHE


class TestSympyOracle:
    """poly_gcd, the cofactors and the normal form against sympy."""

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        gens = sympy.symbols(V)

        def to_sympy(p):
            return sympy.Poly.from_dict(dict(p.terms) or {(0,) * len(V): 0}, gens)

        def from_sympy(p):
            return poly({e: int(c) for e, c in p.as_dict().items()})

        pairs = list(difference_pairs(21, 60)) + list(planted_pairs(22, 40))
        for a, b in pairs:
            g = poly_gcd(a, b)
            assert g == rational._integer_primitive(from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))))
            qa, qb = rational._cofactors(a, b, g)
            assert (qa * g, qb * g) == (a, b)
            num, den = _normalize_pair(a, b)
            p, q = (from_sympy(part) for part in to_sympy(a).cancel(to_sympy(b), include=True))
            unit = Fraction(den.leading()[1]) / q.leading()[1]
            assert (num, den) == (p.scale(unit), q.scale(unit))


def counted(log, fn):
    """fn, appending its arguments to log on every call."""
    return lambda *args: log.append(args) or fn(*args)


def cross_multiplied_fold(terms):
    """Pairwise sum with the cross-multiplied formula that RatFun.sum replaced."""
    total = terms[0]
    for t in terms[1:]:
        if total.is_zero or t.is_zero:
            total = t if total.is_zero else total
        elif total.den == t.den:
            total = RatFun(total.num + t.num, total.den)
        else:
            total = RatFun(total.num * t.den + t.num * total.den, total.den * t.den)
    return total


def _denominator_families():
    x, y, z = (Poly.var(V, name) for name in V)
    one = Poly.const(V, 1)
    return {
        "equal": [x * z + y + one],
        "monomial": [y, y * y, x * y],
        "binomial": [(x + y) * y, x + y],
        "coprime": [x + one, y + Poly.const(V, 2), x * z + Poly.const(V, 3)],
        "mixed": [y, x + y, (x + y) * y, x + one],
    }


def sum_cases(seed, count):
    """(family, terms): 2-8 normal terms over one family of denominators.

    Some terms are scaled by a Fraction, and some sums end with the
    negations of earlier terms, so that they cancel in part or to zero.
    """
    rng = random.Random(seed)
    families = _denominator_families()
    names = sorted(families)
    for k in range(count):
        family = names[k % len(names)]
        terms = []
        for _ in range(rng.randint(2, 8)):
            term = RatFun(_int_poly(rng, 1, 3), rng.choice(families[family]))
            if rng.random() < 0.3:
                term = term.scale(Fraction(rng.choice((-5, -1, 2, 3)), rng.choice((2, 3, 7))))
            terms.append(term)
        if rng.random() < 0.3:
            terms += [-t for t in rng.sample(terms, rng.randint(1, len(terms)))]
        yield family, terms


class TestRatFunSum:
    """RatFun.sum against the pairwise fold, the normal form and sympy."""

    def test_equals_the_cross_multiplied_fold(self):
        seen = set()
        for family, terms in sum_cases(31, 200):
            total = RatFun.sum(terms)
            assert total.equals(cross_multiplied_fold(terms))
            assert _normalize_pair(total.num, total.den) == (total.num, total.den)
            seen.add((family, total.is_zero))
        assert {family for family, _ in seen} == set(_denominator_families())
        assert any(is_zero for _, is_zero in seen)

    def test_against_sympy_cancel(self):
        sympy = pytest.importorskip("sympy")
        gens = sympy.symbols(V)

        def to_sympy(p):
            return sympy.Poly.from_dict(dict(p.terms) or {(0,) * len(V): 0}, gens, domain="QQ")

        def from_sympy(p):
            return poly({e: Fraction(int(c.p), int(c.q)) for e, c in p.as_dict().items()})

        for _, terms in sum_cases(32, 60):
            total = RatFun.sum(terms)
            num, den = to_sympy(Poly.const(V, 0)), to_sympy(Poly.const(V, 1))
            for t in terms:
                num, den = num * to_sympy(t.den) + to_sympy(t.num) * den, den * to_sympy(t.den)
            p, q = (from_sympy(part) for part in num.cancel(den, include=True))
            if total.is_zero:
                assert p.is_zero
                continue
            unit = Fraction(total.den.leading()[1]) / q.leading()[1]
            assert (total.num, total.den) == (p.scale(unit), q.scale(unit))

    def test_single_and_zero_terms_come_back_as_they_are(self):
        x = var("x") / (var("y") + const(1))
        zero = RatFun.zero(V)
        assert RatFun.sum([x]) is x
        assert RatFun.sum([zero, x, zero]) is x
        assert RatFun.sum([zero, zero]) is zero
        with pytest.raises(ValueError, match="mismatched variable sets"):
            RatFun.sum([x, RatFun.zero(("x",))])

    def test_one_normalisation_over_one_denominator(self, monkeypatch):
        rng = random.Random(33)
        den = _denominator_families()["equal"][0]
        calls = []
        monkeypatch.setattr(rational, "_normalize_pair", counted(calls, rational._normalize_pair))
        for k in range(2, 9):
            terms = [RatFun(_int_poly(rng, 1, 3), den) for _ in range(k)]
            del calls[:]
            total = RatFun.sum(terms)
            assert len(calls) == 1
            assert total.equals(cross_multiplied_fold(terms))

    @pytest.mark.parametrize("family", ["monomial", "binomial"])
    def test_the_common_denominator_is_the_lcm(self, monkeypatch, family):
        x, y, _ = (Poly.var(V, name) for name in V)
        one = Poly.const(V, 1)
        lcm = {"monomial": x * y * y, "binomial": (x + y) * y}[family]
        terms = [RatFun(x + one, d) for d in _denominator_families()[family]]
        normalised, divisions = [], []
        monkeypatch.setattr(rational, "_GCD_CACHE", {})
        monkeypatch.setattr(rational, "_normalize_pair", counted(normalised, rational._normalize_pair))
        monkeypatch.setattr(rational, "poly_exact_div", counted(divisions, rational.poly_exact_div))
        total = RatFun.sum(terms)
        assert [den for _, den in normalised] == [lcm]
        assert total.equals(cross_multiplied_fold(terms))
        # A monomial gcd divides by shifting exponents, without any division.
        if family == "monomial":
            assert divisions == []


class TestSumByKey:
    """sum_by_key: the first term at a key as it is, one RatFun.sum per collision."""

    def test_first_terms_are_kept_as_they_are(self):
        a, b = var("x") / var("y"), const(3)
        out = sum_by_key({"a": a}, [("b", b)])
        assert out["a"] is a and out["b"] is b

    def test_one_sum_per_colliding_key(self, monkeypatch):
        x, y = var("x"), var("y")
        terms = [("k", x / (y + const(1))), ("k", y / (x + const(2))), ("k", const(5)), ("j", y)]
        sums = []
        real_sum = RatFun.sum
        monkeypatch.setattr(
            RatFun, "sum", staticmethod(lambda group: sums.append(len(group)) or real_sum(group))
        )
        out = sum_by_key({"k": x}, terms)
        assert sums == [4]
        assert out["j"] is terms[-1][1]
        assert out["k"].equals(cross_multiplied_fold([x] + [t for key, t in terms if key == "k"]))

    def test_a_cancelling_key_stays_as_a_zero(self):
        a = var("x") / (var("y") + const(1))
        out = sum_by_key({}, [("k", a), ("k", -a), ("j", a)])
        assert list(out) == ["k", "j"]
        assert out["k"].is_zero and out["j"] is a


class TestEqualByKey:
    """equal_by_key: equal families share their keys and agree value by value."""

    def test_values_compare_by_equals(self):
        x, y = var("x"), var("y")
        assert equal_by_key({"k": x / y, "j": y}, {"j": y, "k": (x * x) / (x * y)})
        assert not equal_by_key({"k": x / y, "j": y}, {"k": x / y, "j": x})

    def test_different_keys_differ(self):
        x = var("x")
        assert not equal_by_key({"k": x}, {"k": x, "j": x})
        assert not equal_by_key({"k": x, "j": x}, {"k": x})
        assert equal_by_key({}, {})


class TestLinearAlgebra:
    def test_rat_solve(self):
        x = var("x")
        matrix = [[x, const(0)], [const(1), x * x]]
        rhs = [x * x, const(0)]
        sol = rat_solve(matrix, rhs)
        assert sol[0].equals(x)
        assert sol[1].equals(-(const(1) / x))

    def test_rat_mat_inverse(self):
        x = var("x")
        matrix = [[x, const(1)], [const(0), x]]
        inv = rat_mat_inverse(matrix)
        prod00 = matrix[0][0] * inv[0][0] + matrix[0][1] * inv[1][0]
        prod01 = matrix[0][0] * inv[0][1] + matrix[0][1] * inv[1][1]
        assert prod00.equals(const(1))
        assert prod01.equals(const(0))

    def test_rat_solve_singular(self):
        with pytest.raises(ValueError, match="singular"):
            rat_solve([[const(0)]], [const(1)])

    def test_rat_mat_inverse_singular(self):
        x = var("x")
        with pytest.raises(ValueError, match="singular"):
            rat_mat_inverse([[x, x], [const(1), const(1)]])

    def test_rat_mat_inverse_rejects_non_square(self):
        x = var("x")
        with pytest.raises(ValueError, match="square"):
            rat_mat_inverse([[x, const(1)]])
        with pytest.raises(ValueError, match="square"):
            rat_mat_inverse([[x], [const(1)]])

    def test_rat_solve_rejects_non_square(self):
        x = var("x")
        with pytest.raises(ValueError, match="rat_solve expects a square system"):
            rat_solve([[x, const(1)]], [const(1)])
        with pytest.raises(ValueError, match="rat_solve expects a square system"):
            rat_solve([[x]], [const(1), const(2)])

    def test_fraction_system_consistent(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        sol = solve_fraction_system(rows, [Fraction(3), Fraction(1)])
        assert sol == [Fraction(2), Fraction(1)]

    def test_fraction_system_inconsistent(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        assert solve_fraction_system(rows, [Fraction(1), Fraction(3)]) is None

    def test_fraction_system_underdetermined(self):
        rows = [[Fraction(1), Fraction(1)]]
        sol = solve_fraction_system(rows, [Fraction(5)])
        assert sol is not None and sol[0] + sol[1] == 5

    def test_fraction_system_against_sympy_rank(self):
        # None exactly when rank(A) < rank([A|b]); otherwise an exact solution.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(11)
        seen = set()
        for _ in range(100):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            # Rows combined from a few base rows make the system rank-deficient.
            base = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(rng.randint(1, min(m, n)))
            ]
            rows = [
                [sum(rng.randint(-2, 2) * b[c] for b in base) for c in range(n)]
                for _ in range(m)
            ]
            zero_column = rng.random() < 0.5
            if zero_column:
                col = rng.randrange(n)
                for row in rows:
                    row[col] = Fraction(0)
            if rng.random() < 0.5:
                x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
                rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
            else:
                rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
            matrix = sympy.Matrix(rows)
            rank = matrix.rank()
            consistent = rank == matrix.row_join(sympy.Matrix(rhs)).rank()
            seen.add((consistent, rank < min(m, n), zero_column))
            sol = solve_fraction_system(rows, rhs)
            if not consistent:
                assert sol is None
                continue
            assert sol is not None and len(sol) == n
            assert all(sum(a * v for a, v in zip(row, sol)) == b for row, b in zip(rows, rhs))
        both = {(True, True), (True, False), (False, True), (False, False)}
        assert {(c, deficient) for c, deficient, _ in seen} == both
        assert {(c, zero_column) for c, _, zero_column in seen} == both


def dense_gauss_jordan(aug, n_cols, field):
    """The dense kernel gauss_jordan replaced: every row operation over every column."""
    nonzero_test, pivotable, inverse, _ = field
    pivots = []
    for col in range(n_cols):
        row = len(pivots)
        pivot = next((r for r in range(row, len(aug)) if pivotable(aug[r][col])), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = inverse(aug[row][col])
        aug[row] = [entry * inv for entry in aug[row]]
        for r, other in enumerate(aug):
            if r != row and nonzero_test(other[col]):
                f = other[col]
                aug[r] = [a - f * b for a, b in zip(other, aug[row])]
        pivots.append(col)
        if len(pivots) == len(aug):
            break
    return pivots


def sparse_systems(seed, count):
    """Seeded sparse systems over Q: rank-deficient ones, with a consistent
    right-hand side half of the time and a random one otherwise."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(2, 12), rng.randint(2, 12)
        base = [
            [
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.3 else Fraction(0)
                for _ in range(n)
            ]
            for _ in range(rng.randint(1, min(m, n)))
        ]
        rows = [
            [sum((rng.choice((0, 0, 1, -2)) * b[c] for b in base), Fraction(0)) for c in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.5:
            x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            rhs = [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in rows]
        else:
            rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        yield rows, rhs


def dense_solve(rows, rhs):
    n = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = dense_gauss_jordan(aug, n, rational.FRACTIONS)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    solution = [Fraction(0)] * n
    for row, col in zip(aug, pivots):
        solution[col] = row[n]
    return solution


class TestSupportOnlyElimination:
    def test_matches_the_dense_kernel_on_sparse_systems(self):
        seen = set()
        for rows, rhs in sparse_systems(5, 150):
            n = len(rows[0])
            sparse_aug = [list(row) + [b] for row, b in zip(rows, rhs)]
            dense_aug = [list(row) + [b] for row, b in zip(rows, rhs)]
            pivots = rational.gauss_jordan(sparse_aug, n, rational.FRACTIONS)
            assert pivots == dense_gauss_jordan(dense_aug, n, rational.FRACTIONS)
            assert sparse_aug == dense_aug
            before = [list(row) for row in rows]
            sol = solve_fraction_system(rows, rhs)
            assert rows == before
            assert sol == dense_solve(rows, rhs)
            seen.add((sol is not None, len(pivots) < n))
        # inconsistent systems and consistent ones with free unknowns both ran
        assert {(False, True), (True, True)} <= seen

    def test_int_rows_stay_exact(self):
        rows = [[2, 1, 0], [1, 3, 0], [0, 0, 0]]
        aug = [row + [b] for row, b in zip(rows, [3, 4, 0])]
        assert rational.gauss_jordan(aug, 3, rational.FRACTIONS) == [0, 1]
        assert all(type(entry) in (int, Fraction) for row in aug for entry in row)
        sol = solve_fraction_system(rows, [3, 4, 0])
        assert sol == [Fraction(1), Fraction(1), Fraction(0)]
        assert all(type(v) is Fraction for v in sol)

    def test_float_entry_rejected(self):
        with pytest.raises(TypeError):
            solve_fraction_system([[Fraction(1), 0.5]], [Fraction(1)])
        with pytest.raises(TypeError):
            solve_fraction_system([[Fraction(1), 2]], [1.0])

    def test_ratfun_inverse_matches_the_dense_kernel(self):
        rng = random.Random(23)
        zero, one = const(0), const(1)
        for _ in range(8):
            size = rng.randint(2, 4)
            while True:
                matrix = [
                    [random_ratfun(rng, V) if rng.random() < 0.5 else zero for _ in range(size)]
                    for _ in range(size)
                ]
                aug = [
                    row + [one if i == j else zero for j in range(size)]
                    for i, row in enumerate(matrix)
                ]
                if len(dense_gauss_jordan(aug, size, rational.RATFUNS)) == size:
                    break
            inverse = rat_mat_inverse(matrix)
            for got_row, ref_row in zip(inverse, (row[size:] for row in aug)):
                for got, ref in zip(got_row, ref_row):
                    assert got.num.variables == ref.num.variables
                    assert (got.num.terms, got.den.terms) == (ref.num.terms, ref.den.terms)
