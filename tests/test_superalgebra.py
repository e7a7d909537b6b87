"""Grassmann-variable arithmetic: Koszul signs, inversion, substitution."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superpi.builders import (
    build_pi_grassmannian,
    build_pi_projective_closed,
    derive_transition_from_cells,
    pi_grassmannian_cells,
)
import superpi.rational as rational
from superpi.rational import RatFun
from superpi.superalgebra import (
    Chart,
    Pullback,
    Renaming,
    SuperFunction,
    _merge_odd,
    parse_superfunction,
    substitute,
)

from conftest import random_superfunction, random_transition

U0 = Chart("U0", ("z10", "z20"), ("th10", "th20"))
U1 = Chart("U1", ("z01", "z21"), ("th01", "th21"))


def sf(text, chart=U0):
    return parse_superfunction(text, chart)


class TestChart:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Chart("bad", ("a", "b"), ("b",))

    def test_parity_lookup(self):
        assert U0.is_even("z10")
        assert not U0.is_even("th20")
        with pytest.raises(KeyError):
            U0.is_even("nope")


def merge_by_inversions(m1, m2, chart):
    """(sign, monomial) of m1 * m2 from the inversions of the concatenated positions."""
    positions = [chart.odd_coords.index(x) for x in m1 + m2]
    if len(set(positions)) < len(positions):
        return 0, ()
    inversions = sum(p > q for k, p in enumerate(positions) for q in positions[k + 1 :])
    return (-1) ** inversions, tuple(chart.odd_coords[k] for k in sorted(positions))


def odd_monomials(chart):
    odd = chart.odd_coords
    return [
        tuple(n for k, n in enumerate(odd) if mask >> k & 1) for mask in range(1 << len(odd))
    ]


class TestOddProductTable:
    def chart05(self):
        return Chart("V", (), ("t1", "t2", "t3", "t4", "t5"))

    def test_every_pair_on_a_0_5_chart_matches_the_reference(self):
        chart = self.chart05()
        monomials = odd_monomials(chart)
        assert len(monomials) == 32
        for _ in range(2):  # the second pass reads the table
            for m1 in monomials:
                for m2 in monomials:
                    assert _merge_odd(m1, m2, chart) == merge_by_inversions(m1, m2, chart)
        # Products with the empty monomial never reach the table.
        assert len(chart._odd_products) == 31 * 31 <= 4 ** 5

    def test_unknown_odd_name_raises_every_time_and_is_not_cached(self):
        chart = self.chart05()
        for _ in range(3):
            with pytest.raises(KeyError, match="unknown odd coordinate 'nope'"):
                _merge_odd(("t1",), ("nope",), chart)
            with pytest.raises(KeyError, match="unknown odd coordinate 'nope'"):
                _merge_odd(("nope",), ("t2", "t3"), chart)
        assert chart._odd_products == {}

    def test_equality_hash_and_repr_ignore_the_table(self):
        used, fresh = self.chart05(), self.chart05()
        t = [SuperFunction.coordinate(used, n) for n in used.odd_coords]
        assert not (t[0] * t[1] * t[2] * t[3] * t[4]).is_zero
        assert used._odd_products and not fresh._odd_products
        assert used == fresh
        assert hash(used) == hash(fresh) == hash(("V", (), used.odd_coords))
        assert repr(used) == repr(fresh) == (
            "Chart(name='V', even_coords=(), odd_coords=('t1', 't2', 't3', 't4', 't5'))"
        )
        # A function on the used chart still combines with one on the fresh chart.
        assert (t[0] * SuperFunction.coordinate(fresh, "t2")).equals(t[0] * t[1])


class TestArithmetic:
    def test_unsorted_monomial_picks_up_sign(self):
        t1 = SuperFunction.coordinate(U0, "th10")
        t2 = SuperFunction.coordinate(U0, "th20")
        assert (t2 * t1).equals(sf("(-1)*[th10*th20]"))

    def test_nilpotency(self):
        t1 = SuperFunction.coordinate(U0, "th10")
        assert (t1 * t1).is_zero

    def test_supercommutativity_signs(self):
        t1 = SuperFunction.coordinate(U0, "th10")
        t2 = SuperFunction.coordinate(U0, "th20")
        z = SuperFunction.coordinate(U0, "z10")
        assert (t1 * t2).equals(-(t2 * t1))
        assert (z * t1).equals(t1 * z)

    def test_hand_expansion_product(self):
        # (z + t1 t2) * (1/z - t1 t2 / z^2): the cross terms cancel exactly.
        f = sf("(z10) + (1)*[th10*th20]")
        g = sf("(1)/(z10) + (-1)/(z10^2)*[th10*th20]")
        assert (f * g).equals(SuperFunction.one(U0))

    def test_chart_mismatch(self):
        with pytest.raises(ValueError, match="charts differ"):
            SuperFunction.one(U0) * SuperFunction.one(U1)

    def test_equal_distinct_chart_accepted_and_unequal_refused(self):
        f = sf("(z10) + (1)/(z20)*[th10]")
        copy = Chart("U0", ("z10", "z20"), ("th10", "th20"))
        assert copy is not U0
        g = SuperFunction(copy, f.components)
        assert (f * g).equals(f * f)
        # Same name, other coordinates: unequal, so refused.
        renamed = Chart("U0", ("z10", "z20"), ("th10", "th30"))
        with pytest.raises(ValueError, match="charts differ"):
            f * SuperFunction.one(renamed)

    def test_cancelled_terms_are_not_stored(self):
        t1 = SuperFunction.coordinate(U0, "th10")
        t2 = SuperFunction.coordinate(U0, "th20")
        f = sf("(z10) + (2)/(z20)*[th10] + (1)*[th10*th20]")
        assert (f - f).components == {}
        assert (t1 * t2 + t2 * t1).components == {}
        # (t1 + t2)^2 = t1 t2 + t2 t1 cancels inside one product.
        assert ((t1 + t2) * (t1 + t2)).components == {}

    def test_results_keep_sorted_monomials(self, chart24):
        rng = random.Random(31)
        for _ in range(60):
            f = random_superfunction(rng, chart24, max_components=4)
            g = random_superfunction(rng, chart24, max_components=4)
            for result in (f + g, f - g, f * g, g * f, -f, f.derive("t2")):
                for mon, coeff in result.components.items():
                    positions = [chart24.odd_position(x) for x in mon]
                    assert positions == sorted(set(positions)), mon
                    assert coeff.variables == chart24.even_coords
                    assert not coeff.is_zero

    def test_parity(self):
        assert sf("(z10)").parity == "even"
        assert sf("(1)*[th10]").parity == "odd"
        assert sf("(z10) + (1)*[th10]").parity == "inhomogeneous"
        assert SuperFunction.zero(U0).parity == "even"

    def test_is_constant_is_int_when_integral(self):
        zero = SuperFunction.zero(U0).is_constant()
        three = sf("(3)").is_constant()
        half = sf("(3/2)").is_constant()
        assert (type(zero), zero) == (int, 0)
        assert (type(three), three) == (int, 3)
        assert (type(half), half) == (Fraction, Fraction(3, 2))
        assert sf("(z10)").is_constant() is None
        assert sf("(1)*[th10*th20]").is_constant() is None


def colliding_factors(k):
    """f, g on a chart with k odd names whose product has exactly k nonzero
    terms, all on the monomial of every odd name: theta_i * theta_([k] - i)."""
    chart = Chart("K", ("x", "y"), tuple(f"t{i}" for i in range(1, k + 1)))
    even, odd = chart.even_coords, chart.odd_coords
    x, y = RatFun.var(even, "x"), RatFun.var(even, "y")
    f = SuperFunction(
        chart, {(odd[i],): RatFun.one(even) / (x + RatFun.const(even, i + 1)) for i in range(k)}
    )
    g = SuperFunction(
        chart, {odd[:i] + odd[i + 1 :]: y / (y + RatFun.const(even, i + 2)) for i in range(k)}
    )
    return chart, f, g


class TestSums:
    def test_sum_matches_the_pairwise_fold(self, chart24):
        rng = random.Random(41)
        for _ in range(40):
            functions = [
                random_superfunction(rng, chart24, max_components=4)
                for _ in range(rng.randint(0, 6))
            ]
            total = SuperFunction.zero(chart24)
            for f in functions:
                total = total + f
            assert SuperFunction.sum(chart24, functions).equals(total)
        with pytest.raises(ValueError, match="charts differ"):
            SuperFunction.sum(U0, [SuperFunction.one(U0), SuperFunction.one(U1)])

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_colliding_product_normalises_each_product_and_the_sum_once(self, monkeypatch, k):
        chart, f, g = colliding_factors(k)
        expected = SuperFunction.zero(chart)
        for m1, c1 in f.components.items():
            for m2, c2 in g.components.items():
                expected += SuperFunction(chart, {m1: c1}) * SuperFunction(chart, {m2: c2})
        normalisations, sums = [], []
        real_normalize, real_sum = rational._normalize_pair, RatFun.sum
        monkeypatch.setattr(
            rational, "_normalize_pair", lambda n, d: normalisations.append(1) or real_normalize(n, d)
        )
        monkeypatch.setattr(
            RatFun, "sum", staticmethod(lambda terms: sums.append(len(terms)) or real_sum(terms))
        )
        product = f * g
        assert list(product.components) == [chart.odd_coords]
        assert product.equals(expected)
        assert len(normalisations) == k + 1
        assert sums == [k]
        # A product without collisions keeps every term as it is.
        del sums[:]
        f * SuperFunction.coordinate(chart, "x")
        assert sums == []


def pairwise_series_inverse(f):
    """The inverse of f with each partial sum of its series added pairwise."""
    b = f.body()
    inv_body = SuperFunction.from_ratfun(f.chart, b.inverse())
    x = (f - SuperFunction.from_ratfun(f.chart, b)) * inv_body
    result = power = SuperFunction.one(f.chart)
    for _ in range(len(f.chart.odd_coords) // 2):
        power = -(power * x)
        result = result + power
    return result * inv_body


class TestInvert:
    def test_plain_variable(self):
        z = SuperFunction.coordinate(U0, "z10")
        assert z.invert().equals(sf("(1)/(z10)"))

    def test_series_truncates(self):
        f = sf("(z10) + (1)*[th10*th20]")
        assert f.invert().equals(sf("(1)/(z10) + (-1)/(z10^2)*[th10*th20]"))

    def test_four_odd_variables(self):
        chart = Chart("V", ("y11",), ("th11", "th21", "xi11", "xi21"))
        f = parse_superfunction("(y11) + (1)*[xi11*xi21]", chart)
        inv = f.invert()
        assert inv.equals(
            parse_superfunction("(1)/(y11) + (-1)/(y11^2)*[xi11*xi21]", chart)
        )
        assert (f * inv).equals(SuperFunction.one(chart))

    def test_matches_the_pairwise_series(self, chart24):
        rng = random.Random(43)
        for _ in range(30):
            f = random_superfunction(rng, chart24, parity="even", max_components=5, invertible=True)
            inv = f.invert()
            assert same_representation(inv, pairwise_series_inverse(f))
            assert (f * inv).equals(SuperFunction.one(chart24))

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            sf("(1)*[th10]").invert()

    def test_rejects_zero_body(self):
        with pytest.raises(ZeroDivisionError):
            sf("(1)*[th10*th20]").invert()


class TestDerive:
    def test_left_odd_derivative_signs(self):
        f = sf("(1)/(z10^2)*[th10*th20]")
        assert f.derive("th10").equals(sf("(1)/(z10^2)*[th20]"))
        assert f.derive("th20").equals(sf("(-1)/(z10^2)*[th10]"))

    def test_second_odd_derivative_vanishes(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_superfunction(rng, U0)
            assert f.derive("th10").derive("th10").is_zero

    def test_odd_mixed_partials_anticommute(self):
        rng = random.Random(8)
        for _ in range(40):
            f = random_superfunction(rng, U0)
            ab = f.derive("th10").derive("th20")
            ba = f.derive("th20").derive("th10")
            assert ab.equals(-ba)

    def test_even_derivative(self):
        f = sf("(z20)/(z10)")
        assert f.derive("z10").equals(sf("(-z20)/(z10^2)"))

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            sf("(z10)").derive("w")


class TestDegreePart:
    def test_splits_by_odd_degree(self):
        f = sf("(z20)/(z10) + (1)/(z10^2)*[th10*th20]")
        assert f.degree_part(0).equals(sf("(z20)/(z10)"))
        assert f.degree_part(2).equals(sf("(1)/(z10^2)*[th10*th20]"))
        assert f.degree_part(1).is_zero
        assert f.degrees() == {0, 2}
        assert SuperFunction.zero(U0).degrees() == set()

    def test_pi_space_odd_images_are_linear(self):
        t = build_pi_projective_closed(3).transition("U0", "U1")
        for name in t.target.odd_coords:
            assert t.images[name].degrees() == {1}

    def test_parts_sum_back(self):
        t = build_pi_projective_closed(2).transition("U0", "U2")
        for name, image in t.images.items():
            parts = [image.degree_part(d) for d in image.degrees()]
            assert SuperFunction.sum(t.source, parts).equals(image), name


class TestSubstitute:
    def transition_images(self):
        # U1 coordinates in terms of U0 ones, the degree-1 projective pattern.
        z10 = SuperFunction.coordinate(U0, "z10")
        inv = z10.invert()
        return {
            "z01": inv,
            "z21": SuperFunction.coordinate(U0, "z20") * inv,
            "th01": SuperFunction.coordinate(U0, "th10") * inv,
            "th21": SuperFunction.coordinate(U0, "th20") * inv,
        }

    def inverse_images(self):
        z01 = SuperFunction.coordinate(U1, "z01")
        inv = z01.invert()
        return {
            "z10": inv,
            "z20": SuperFunction.coordinate(U1, "z21") * inv,
            "th10": SuperFunction.coordinate(U1, "th01") * inv,
            "th20": SuperFunction.coordinate(U1, "th21") * inv,
        }

    def test_round_trip_is_identity(self):
        for name in U0.coords:
            image = substitute(SuperFunction.coordinate(U0, name), self.inverse_images())
            back = substitute(image, self.transition_images())
            assert back.equals(SuperFunction.coordinate(U0, name))

    def test_odd_coordinate_round_trip_with_sign(self):
        # th01 = -th10/z10^2 under the involutive pair z01 = 1/z10.
        pi_images = {
            "z01": SuperFunction.coordinate(U0, "z10").invert(),
            "z21": SuperFunction.coordinate(U0, "z20"),
            "th01": sf("(-1)/(z10^2)*[th10]"),
            "th21": SuperFunction.coordinate(U0, "th20"),
        }
        pi_inverse = {
            "z10": SuperFunction.coordinate(U1, "z01").invert(),
            "z20": SuperFunction.coordinate(U1, "z21"),
            "th10": parse_superfunction("(-1)/(z01^2)*[th01]", U1),
            "th20": SuperFunction.coordinate(U1, "th21"),
        }
        round_trip = substitute(
            substitute(SuperFunction.coordinate(U1, "th01"), pi_images), pi_inverse
        )
        assert round_trip.equals(SuperFunction.coordinate(U1, "th01"))

    def test_homomorphism_on_random_inputs(self):
        rng = random.Random(11)
        images = self.transition_images()
        for _ in range(30):
            f = random_superfunction(rng, U1)
            g = random_superfunction(rng, U1)
            assert substitute(f + g, images).equals(
                substitute(f, images) + substitute(g, images)
            )
            assert substitute(f * g, images).equals(
                substitute(f, images) * substitute(g, images)
            )

    def test_parity_mismatch_rejected(self):
        bad = dict(self.transition_images())
        bad["z01"] = SuperFunction.coordinate(U0, "th10")
        with pytest.raises(ValueError, match="non-even"):
            substitute(SuperFunction.coordinate(U1, "z01"), bad)

    def test_zero_body_denominator_rejected(self):
        bad = dict(self.transition_images())
        bad["z01"] = sf("(1)*[th10*th20]")
        with pytest.raises(ValueError, match="zero-body"):
            substitute(SuperFunction.coordinate(U1, "z01"), bad)

    @pytest.mark.parametrize(
        "name, image, message",
        [
            ("z01", "(1)*[th10]", "even coordinate 'z01' mapped to non-even image"),
            ("z01", "(1)*[th10*th20]", "even coordinate 'z01' mapped to zero-body image"),
            ("th01", "(z10)", "odd coordinate 'th01' mapped to non-odd image"),
        ],
    )
    def test_bad_assignment_messages(self, name, image, message):
        bad = dict(self.transition_images(), **{name: sf(image)})
        with pytest.raises(ValueError, match=f"^{message}$"):
            Pullback(U1, bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            substitute(SuperFunction.coordinate(U1, "z01"), bad)

    def test_mixed_charts_and_empty_assignment_rejected(self):
        mixed = dict(self.transition_images(), z01=SuperFunction.coordinate(U1, "z01"))
        with pytest.raises(ValueError, match="^substitution images live on different charts$"):
            substitute(SuperFunction.coordinate(U1, "z01"), mixed)
        with pytest.raises(ValueError, match="^empty substitution$"):
            substitute(SuperFunction.coordinate(U1, "z01"), {})

    def test_missing_image_rejected_when_needed(self):
        partial = {"z01": self.transition_images()["z01"]}
        pull_back = Pullback(U1, partial)
        assert pull_back(SuperFunction.coordinate(U1, "z01")).equals(partial["z01"])
        with pytest.raises(ValueError, match="^no image for coordinate 'z21'$"):
            pull_back(SuperFunction.coordinate(U1, "z21"))
        with pytest.raises(ValueError, match="^no image for coordinate 'th21'$"):
            pull_back(SuperFunction.coordinate(U1, "th21"))

    def test_pullback_refuses_other_chart(self):
        with pytest.raises(ValueError, match="applied to a function on 'U0'"):
            Pullback(U1, self.transition_images())(SuperFunction.coordinate(U0, "z10"))

    def test_pullback_accepts_an_equal_distinct_chart(self):
        pull_back = Pullback(U1, self.transition_images())
        copy = Chart("U1", ("z01", "z21"), ("th01", "th21"))
        assert copy is not U1
        image = pull_back(SuperFunction.coordinate(copy, "z21"))
        assert image.equals(self.transition_images()["z21"])
        # Same name, other coordinates: unequal, so refused.
        renamed = Chart("U1", ("z01", "z21"), ("th01", "th31"))
        with pytest.raises(ValueError, match="applied to a function on 'U1'"):
            pull_back(SuperFunction.coordinate(renamed, "z21"))


def pull_back_one_name_at_a_time(assignment, f):
    """f pulled back with one product per odd name: the reference for the odd-image cache."""
    total = None
    for mon, coeff in f.components.items():
        term = substitute(SuperFunction.from_ratfun(f.chart, coeff), assignment)
        for name in mon:
            term = term * assignment[name]
        total = term if total is None else total + term
    return total


def same_representation(a, b):
    mine, theirs = a.components, b.components
    return mine.keys() == theirs.keys() and all(
        (c.num, c.den) == (theirs[m].num, theirs[m].den) for m, c in mine.items()
    )


class TestRenaming:
    SOURCE = Chart("S", ("a1", "a2", "a3"), ("p1", "p2", "p3"))
    TARGET = Chart("T", ("b1", "b2", "b3"), ("q1", "q2", "q3"))

    def test_koszul_sign_of_the_re_sort(self):
        names = {"a1": "b2", "a2": "b1", "a3": "b3", "p1": "q3", "p2": "q1", "p3": "q2"}
        f = parse_superfunction("(a1)/(a1 - a2)*[p1*p2]", self.SOURCE)
        got = Renaming(self.SOURCE, self.TARGET, names)(f)
        # p1*p2 -> q3*q1 = -q1*q3, and b2/(b2 - b1) = -b2/(b1 - b2).
        assert got.to_str() == "(b2)/(b1 - b2)*[q1*q3]"

    def test_matches_the_pullback_of_the_renamed_coordinates(self):
        rng = random.Random(17)
        for _ in range(30):
            evens = rng.sample(self.TARGET.even_coords, 3)
            odds = rng.sample(self.TARGET.odd_coords, 3)
            names = dict(zip(self.SOURCE.coords, evens + odds))
            renaming = Renaming(self.SOURCE, self.TARGET, names)
            pull_back = Pullback(
                self.SOURCE,
                {x: SuperFunction.coordinate(self.TARGET, y) for x, y in names.items()},
            )
            f = random_superfunction(rng, self.SOURCE)
            f = f + f * parse_superfunction("(1)/(a1 - a2 + a3)*[p1]", self.SOURCE)
            assert renaming(f).to_str() == pull_back(f).to_str()

    @pytest.mark.parametrize(
        "change",
        [{"a1": "q1", "p1": "b1"}, {"a1": "b2"}, {"p3": "q4"}],
        ids=["parity", "not one-to-one", "unknown"],
    )
    def test_refuses_what_is_not_a_parity_preserving_bijection(self, change):
        names = dict(zip(self.SOURCE.coords, self.TARGET.coords), **change)
        with pytest.raises(ValueError, match="not a parity-preserving bijection"):
            Renaming(self.SOURCE, self.TARGET, names)

    def test_refuses_a_function_on_another_chart(self):
        renaming = Renaming(self.SOURCE, self.TARGET, dict(zip(self.SOURCE.coords, self.TARGET.coords)))
        with pytest.raises(ValueError, match="renaming of chart 'S' applied to a function on 'T'"):
            renaming(SuperFunction.one(self.TARGET))


class TestOddImageCache:
    def test_matches_reference_on_random_2_4_functions(self, chart24):
        rng = random.Random(41)
        for _ in range(6):
            pull_back = Pullback(chart24, random_transition(rng, chart24, chart24).images)
            for _ in range(8):
                f = random_superfunction(rng, chart24, max_components=5)
                if f.is_zero:
                    continue
                expected = pull_back_one_name_at_a_time(pull_back.assignment, f)
                assert same_representation(pull_back(f), expected)

    def test_matches_reference_on_pi_grassmannian_24(self):
        u1, u2, u3 = pi_grassmannian_cells(2, 4)[:3]
        t12 = derive_transition_from_cells(u1, u2)
        pull_back = Pullback(t12.target, t12.images)
        for t in (derive_transition_from_cells(u2, u1), derive_transition_from_cells(u2, u3)):
            for img in t.images.values():
                expected = pull_back_one_name_at_a_time(t12.images, img)
                assert same_representation(pull_back(img), expected)

    def test_cache_holds_the_distinct_nonempty_prefixes(self, chart24):
        rng = random.Random(43)
        pull_back = Pullback(chart24, random_transition(rng, chart24, chart24).images)
        functions = [random_superfunction(rng, chart24, max_components=5) for _ in range(12)]
        for f in functions:
            pull_back(f)
        prefixes = {
            mon[:k] for f in functions for mon in f.components for k in range(1, len(mon) + 1)
        }
        assert prefixes
        assert set(pull_back._odd_images) == prefixes

    def test_zero_odd_image_is_cached_as_zero(self, chart24):
        rng = random.Random(47)
        images = dict(random_transition(rng, chart24, chart24).images)
        images["t2"] = SuperFunction.zero(chart24)
        pull_back = Pullback(chart24, images)
        one = RatFun.one(chart24.even_coords)
        odd = chart24.odd_coords
        monomials = [
            tuple(n for k, n in enumerate(odd) if mask >> k & 1) for mask in range(1, 16)
        ]
        for mon in monomials:
            image = pull_back(SuperFunction(chart24, {mon: one}))
            assert image.is_zero == ("t2" in mon)
        zeros = {m: v for m, v in pull_back._odd_images.items() if "t2" in m}
        assert zeros and all(v.is_zero for v in zeros.values())
        # A second pass finds every zero in the cache instead of recomputing it.
        for mon in monomials:
            pull_back(SuperFunction(chart24, {mon: one}))
        assert all(pull_back._odd_images[m] is v for m, v in zeros.items())


class TestLeibnizAndKoszul:
    def test_graded_leibniz_randomised(self):
        rng = random.Random(23)
        for _ in range(60):
            parity = rng.choice(("even", "odd"))
            f = random_superfunction(rng, U0, parity=parity)
            g = random_superfunction(rng, U0)
            sign = 1 if parity == "even" else -1
            lhs = (f * g).derive("th10")
            rhs = f.derive("th10") * g + (f * g.derive("th10")).scale(sign)
            assert lhs.equals(rhs)

    def test_koszul_randomised(self):
        rng = random.Random(29)
        for _ in range(60):
            pf = rng.choice(("even", "odd"))
            pg = rng.choice(("even", "odd"))
            f = random_superfunction(rng, U0, parity=pf)
            g = random_superfunction(rng, U0, parity=pg)
            sign = -1 if pf == "odd" and pg == "odd" else 1
            assert (f * g).equals((g * f).scale(sign))


@st.composite
def superfunctions(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    return random_superfunction(rng, U0, max_components=4)


class TestTextRoundTrip:
    @settings(max_examples=120)
    @given(superfunctions())
    def test_parse_print_exact(self, f):
        text = f.to_str()
        back = parse_superfunction(text, U0)
        # representation-exact: identical monomials and identical num/den polys
        assert set(back.components) == set(f.components)
        for mon in f.components:
            assert back.components[mon].num == f.components[mon].num
            assert back.components[mon].den == f.components[mon].den

    def test_zero(self):
        assert SuperFunction.zero(U0).to_str() == "(0)"
        assert parse_superfunction("(0)", U0).is_zero

    def test_reject_garbage(self):
        for text in (
            "(z10",
            "(z10) $ (z20)",  # stray character
            "(z10) (z20)",  # trailing token
            "(1)*[th10*th20",  # unclosed bracket
            "(z10)^z20",  # exponent not an integer
            "(z10)^",  # exponent missing
            "",
            "(z10 - )",
        ):
            with pytest.raises(ValueError):
                parse_superfunction(text, U0)

    @pytest.mark.parametrize("text", ["(w10)", "(z10*w10)", "[eta]", "(1)*[th10*eta]"])
    def test_unknown_names_raise_value_error(self, text):
        with pytest.raises(ValueError, match="unknown coordinate"):
            parse_superfunction(text, U0)

    def test_divisors_fail_as_invert_does(self):
        with pytest.raises(ValueError, match="only even"):
            parse_superfunction("(1)/[th10]", U0)
        with pytest.raises(ZeroDivisionError):
            parse_superfunction("(1)/(0)", U0)

    def test_precedence_follows_the_printer(self):
        z10 = SuperFunction.coordinate(U0, "z10")
        th10 = SuperFunction.coordinate(U0, "th10")
        th20 = SuperFunction.coordinate(U0, "th20")
        assert sf("-(z10)^2").equals(-(z10 * z10))
        # The quotient binds before the bracket, whose reordering costs a sign.
        f = sf("(1)/(z10)*[th20*th10]")
        assert f.equals(-(z10.invert() * th10 * th20))
        assert f.to_str() == "(-1)/(z10)*[th10*th20]"

    def test_every_g24_image_round_trips_exactly(self):
        atlas = build_pi_grassmannian(2, 4)
        images = [
            (t.source, img) for t in atlas.transitions.values() for img in t.images.values()
        ]
        assert len(atlas.transitions) == 36 and len(images) == 288
        for chart, f in images:
            back = parse_superfunction(f.to_str(), chart)
            assert same_representation(back, f), f.to_str()
