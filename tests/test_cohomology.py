"""Cech machinery: pullbacks, the obstruction cochain, lifting, refutation."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from superpi.atlas import Atlas, TransitionMap
from superpi.builders import build_pi_projective_closed, build_projective_superspace
import superpi.cohomology as cohomology
from superpi.cohomology import (
    BodyPullback,
    CechCochain1,
    HomogeneousSection,
    TensorSection,
    alternating_quotient_wedge,
    check_cech_cocycle,
    coboundary_refute,
    coboundary_solve,
    cochain_multiple,
    euler_preimage_section,
    expected_coboundary,
    extract_obstruction,
    lifted_obstruction_section,
    lifting_verify,
    omega_representative,
    pullback_tensor,
    rewrite_frames,
    wedge_inclusion,
)
from superpi.rational import Poly, RatFun, rat_solve
from superpi.superalgebra import parse_superfunction

from oracles import coboundary_of


def rf(text, chart):
    return parse_superfunction(text, chart).body()


class TestPullback:
    def setup_method(self):
        self.atlas = build_projective_superspace(2, 0)
        self.u0 = self.atlas.chart("U0")
        self.u1 = self.atlas.chart("U1")
        self.t10 = self.atlas.transition("U1", "U0")  # target U0, source U1

    def test_frame_rules(self):
        # dz10 ^ dz20 (x) d/dz20 rewritten on U1:
        # dz10 = -dz01/z01^2, dz20 = dz21/z01 - (z21/z01^2) dz01,
        # d/dz20 = z01 d/dz21, so the section becomes
        # (-1/z01^2) dz01 ^ dz21 (x) d/dz21.
        section = TensorSection(
            self.u0, {("z20", ("z10", "z20")): RatFun.one(self.u0.even_coords)}
        )
        pulled = pullback_tensor(section, self.t10)
        expected = TensorSection(
            self.u1, {("z21", ("z01", "z21")): rf("(-1)/(z01^2)", self.u1)}
        )
        assert pulled.equals(expected)

    def test_round_trip(self):
        rng = random.Random(5)
        t01 = self.atlas.transition("U0", "U1")
        names = self.u0.even_coords
        for _ in range(10):
            comp = {}
            for k in names:
                coeff = Fraction(rng.randint(-3, 3))
                if coeff:
                    comp[(k, (names[0], names[1]))] = RatFun.const(names, coeff) * rf(
                        "(z10)", self.u0
                    )
            section = TensorSection(self.u0, comp)
            back = pullback_tensor(pullback_tensor(section, self.t10), t01)
            assert back.equals(section)

    def test_chart_mismatch(self):
        section = TensorSection(self.u1, {})
        with pytest.raises(ValueError, match="target"):
            pullback_tensor(section, self.t10)
        with pytest.raises(ValueError, match="target"):
            pullback_tensor(section, BodyPullback(self.t10))

    def test_shared_body_matches_transition(self):
        # One BodyPullback reused across sections, against a fresh one per call.
        body = BodyPullback(self.t10)
        names = self.u0.even_coords
        for k in names:
            section = TensorSection(self.u0, {(k, names): rf("(z10 + 2)/(z20)", self.u0)})
            assert pullback_tensor(section, body).equals(pullback_tensor(section, self.t10))


class TestKeyedSums:
    """The Cech sections add through sum_by_key, never pairwise."""

    def test_a_section_minus_itself_is_zero(self):
        omega = omega_representative(3)
        for section in omega.sections.values():
            assert (section + (-section)).is_zero
        for i, j in ((0, 1), (1, 3)):
            s_ij = expected_coboundary(3, i, j)
            assert s_ij.components
            assert not (s_ij - s_ij).components

    def test_equals_is_false_when_the_keys_differ(self):
        section = omega_representative(3).section("U0", "U1")
        key, coeff = next(iter(section.components.items()))
        fewer = TensorSection(section.chart, {key: coeff})
        assert not section.equals(fewer) and not fewer.equals(section)
        s_ij = expected_coboundary(2, 0, 1)
        key, coeff = next(iter(s_ij.components.items()))
        fewer = HomogeneousSection(2, 1, {key: coeff})
        assert not s_ij.equals(fewer) and not fewer.equals(s_ij)

    def test_no_pairwise_addition(self, monkeypatch):
        adds = []
        real_add = RatFun.__add__
        monkeypatch.setattr(RatFun, "__add__", lambda a, b: adds.append(1) or real_add(a, b))
        atlas = build_projective_superspace(3, 0)
        omega = omega_representative(3)
        pulled = pullback_tensor(omega.section("U0", "U1"), atlas.transition("U2", "U1"))
        assert not pulled.is_zero
        assert rewrite_frames(euler_preimage_section(3, 0), 2).components
        assert lifting_verify(2).all_passed
        assert adds == []


class TestOmegaRepresentative:
    def test_plane_single_term(self):
        omega = omega_representative(2)
        section = omega.section("U0", "U1")
        chart = omega.atlas.chart("U1")
        expected = TensorSection(
            chart, {("z21", ("z01", "z21")): rf("(1)/(z01)", chart)}
        )
        assert section.equals(expected)

    def test_three_space_has_two_terms(self):
        omega = omega_representative(3)
        section = omega.section("U0", "U1")
        assert len(section.components) == 2

    def test_scale_zero_gives_zero(self):
        assert omega_representative(2).scale(0).is_zero()

    def test_float_scale_rejected(self):
        with pytest.raises(TypeError, match="inexact"):
            omega_representative(2).scale(0.1)

    def test_cocycle_condition(self):
        assert check_cech_cocycle(omega_representative(2)).all_passed
        assert check_cech_cocycle(omega_representative(3)).all_passed

    def test_perturbed_cochain_fails(self):
        omega = omega_representative(2)
        sections = dict(omega.sections)
        sections[("U0", "U1")] = TensorSection.zero(omega.atlas.chart("U1"))
        broken = CechCochain1(omega.atlas, sections)
        report = check_cech_cocycle(broken)
        assert not report.all_passed
        assert any("difference" in c.witness for c in report.checks if c.status == "fail")


class TestExtractObstruction:
    def test_pi_plane_gives_lambda_one(self):
        extracted = extract_obstruction(build_pi_projective_closed(2))
        assert cochain_multiple(extracted, omega_representative(2)) == 1

    def test_pi_three_space(self):
        extracted = extract_obstruction(build_pi_projective_closed(3))
        assert cochain_multiple(extracted, omega_representative(3)) == 1

    def test_split_model_gives_zero(self):
        extracted = extract_obstruction(build_projective_superspace(2, 2))
        assert extracted.is_zero()

    def test_linearity_in_corrections(self):
        doubled = extract_obstruction(build_pi_projective_closed(2, scale=2))
        assert cochain_multiple(doubled, omega_representative(2)) == 2

    def test_exact_section_values(self):
        extracted = extract_obstruction(build_pi_projective_closed(2))
        assert extracted.section("U0", "U1").equals(
            omega_representative(2).section("U0", "U1")
        )

    def test_degree_four_correction_rejected(self):
        atlas = build_pi_projective_closed(4)
        t = atlas.transition("U1", "U0")
        kappa = t.target.even_coords[0]
        quartic = parse_superfunction(f"(1)*[{'*'.join(t.source.odd_coords)}]", t.source)
        transitions = dict(atlas.transitions)
        transitions[("U1", "U0")] = TransitionMap(
            t.source, t.target, {**t.images, kappa: t.images[kappa] + quartic}
        )
        with pytest.raises(ValueError, match=f"even image '{kappa}' has a degree-4 correction"):
            extract_obstruction(Atlas(atlas.charts, transitions))


def reference_extraction(atlas):
    """The per-odd-pair rat_solve of the body Jacobian that extraction
    replaced with BodyPullback's inverse, kept as a reference."""
    sections = {}
    for i_name, j_name in combinations(atlas.chart_names(), 2):
        evens_i, chart_j = atlas.chart(i_name).even_coords, atlas.chart(j_name)
        t = atlas.transition(j_name, i_name)
        src = chart_j.even_coords
        jac = [[t.images[kappa].body().derivative(ell) for ell in src] for kappa in evens_i]
        rhs_by_pair = {}
        for kappa in evens_i:
            for mon, coeff in t.images[kappa].degree_part(2).components.items():
                rhs_by_pair.setdefault(mon, {})[kappa] = coeff
        even_of_odd = dict(zip(chart_j.odd_coords, src))
        comp = {}
        for mon, rhs in rhs_by_pair.items():
            zero = RatFun.zero(src)
            solution = rat_solve(jac, [rhs.get(kappa, zero) for kappa in evens_i])
            for ell, value in zip(src, solution):
                if not value.is_zero:
                    comp[(ell, (even_of_odd[mon[0]], even_of_odd[mon[1]]))] = value
        sections[(i_name, j_name)] = comp
    return sections


class TestExtractionAgainstSolve:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("scale", [1, 2])
    def test_same_representatives_as_per_pair_solve(self, n, scale):
        atlas = build_pi_projective_closed(n, scale)
        extracted = extract_obstruction(atlas)
        reference = reference_extraction(atlas)
        assert set(extracted.sections) == set(reference)
        for pair, comp in reference.items():
            section = extracted.sections[pair]
            expected = TensorSection(section.chart, comp).components
            assert section.components.keys() == expected.keys()
            for key, value in expected.items():
                got = section.components[key]
                assert (got.num, got.den) == (value.num, value.den)

    def test_split_model_still_extracts_zero(self):
        atlas = build_projective_superspace(2, 2)
        assert extract_obstruction(atlas).is_zero()
        assert all(not comp for comp in reference_extraction(atlas).values())


class TestLifting:
    @pytest.mark.parametrize("n", [2, 3])
    def test_all_identities(self, n):
        report = lifting_verify(n)
        assert report.all_passed, report.to_text()

    def test_sign_flipped_coboundary_differs(self):
        # flipping the third-term sign in the closed form breaks the identity
        n, i, j = 2, 0, 1
        s_ij = rewrite_frames(euler_preimage_section(n, i), j) - euler_preimage_section(n, j)
        closed = expected_coboundary(n, i, j)
        assert s_ij.equals(closed)
        flipped_components = dict(closed.components)
        key = next(k for k in flipped_components if k[1] == (j, 2))
        flipped_components[key] = -flipped_components[key]
        flipped = HomogeneousSection(n, j, flipped_components)
        assert not s_ij.equals(flipped)

    def test_lift_equals_coboundary(self):
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            s_ij = rewrite_frames(euler_preimage_section(2, i), j) - euler_preimage_section(2, j)
            assert lifted_obstruction_section(2, i, j).equals(s_ij)

    def test_exactness_on_basis(self):
        for a, b in ((1, 2),):
            image = alternating_quotient_wedge(2, wedge_inclusion(2, a, b, 0), 0)
            assert not image

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            lifting_verify(5)


class TestCoboundary:
    def test_refutes_obstruction_cochain(self):
        report = coboundary_refute(omega_representative(2), 3)
        assert report.all_passed
        check = report.find("refutation/degree-3")
        assert "no polynomial 0-cochain" in check.witness

    def test_zero_cochain_is_trivially_split(self):
        omega = omega_representative(2)
        zero = CechCochain1(
            omega.atlas,
            {k: TensorSection.zero(s.chart) for k, s in omega.sections.items()},
        )
        solution = coboundary_solve(zero, 1)
        assert solution is not None
        assert all(s.is_zero for s in solution.values())

    def test_negative_degree_bound_rejected(self):
        omega = omega_representative(2)
        with pytest.raises(ValueError, match="^degree bound must be >= 0, got -1$"):
            coboundary_solve(omega, -1)
        with pytest.raises(ValueError, match="^degree bound must be >= 0, got -2$"):
            coboundary_refute(omega, -2)
        assert coboundary_refute(omega, 0).all_passed

    def test_oversized_system_refused_before_densifying(self, monkeypatch):
        monkeypatch.setattr(cohomology, "MAX_DENSE_ENTRIES", 135 * 60 - 1)
        monkeypatch.setattr(
            cohomology, "solve_fraction_system", lambda *a: pytest.fail("dense solve reached")
        )
        with pytest.raises(ValueError, match="135 x 60"):
            coboundary_solve(omega_representative(2), 3)

    def test_oversized_system_refused_after_the_first_pair(self, monkeypatch):
        omega = omega_representative(2)
        inversions = []
        real = cohomology.rat_mat_inverse
        monkeypatch.setattr(cohomology, "MAX_DENSE_ENTRIES", 100)
        monkeypatch.setattr(
            cohomology, "rat_mat_inverse", lambda m: inversions.append(1) or real(m)
        )
        with pytest.raises(ValueError, match="^coboundary system of at least 45 x 60 "):
            coboundary_solve(omega, 3)
        assert len(inversions) == 1

    @pytest.mark.parametrize(
        "n, shape, nonzeros, rhs_rows", [(2, (135, 60), 150, 3), (3, (2934, 720), 4080, 12)]
    )
    def test_assembled_system_is_pinned(self, monkeypatch, n, shape, nonzeros, rhs_rows):
        systems = []
        monkeypatch.setattr(
            cohomology, "solve_fraction_system", lambda rows, rhs: systems.append((rows, rhs))
        )
        assert coboundary_solve(omega_representative(n), 3) is None
        (rows, rhs), = systems
        assert (len(rows), len(rows[0])) == shape
        assert all(len(row) == shape[1] for row in rows)
        assert sum(1 for row in rows for value in row if value) == nonzeros
        certificates = [row for row, value in zip(rows, rhs) if value]
        assert len(certificates) == rhs_rows
        assert not any(any(row) for row in certificates)

    def test_system_at_the_bound_is_solved(self, monkeypatch):
        monkeypatch.setattr(cohomology, "MAX_DENSE_ENTRIES", 135 * 60)
        assert coboundary_solve(omega_representative(2), 3) is None

    def test_one_body_inverse_per_pair(self, monkeypatch):
        inversions = []
        real = cohomology.rat_mat_inverse
        monkeypatch.setattr(
            cohomology, "rat_mat_inverse", lambda m: inversions.append(1) or real(m)
        )
        omega = omega_representative(3)
        assert coboundary_solve(omega, 1) is None
        assert len(inversions) == len(omega.sections) == 6

    def test_round_trip_recovery(self):
        rng = random.Random(17)
        atlas = build_projective_superspace(2, 0)
        eta = {}
        for name in atlas.chart_names():
            chart = atlas.chart(name)
            names = chart.even_coords
            comp = {}
            for k in names:
                terms = {}
                for _ in range(2):
                    exps = tuple(rng.randint(0, 1) for _ in names)
                    coeff = Fraction(rng.randint(-2, 2))
                    if coeff:
                        terms[exps] = coeff
                if terms:
                    comp[(k, (names[0], names[1]))] = RatFun.from_poly(Poly(names, terms))
            eta[name] = TensorSection(chart, comp)
        cochain = coboundary_of(atlas, eta)
        solution = coboundary_solve(cochain, 2)
        assert solution is not None
        assert coboundary_of(atlas, solution).equals(cochain)


class TestCochainMultiple:
    def test_non_proportional_is_none(self):
        omega = omega_representative(2)
        sections = dict(omega.sections)
        chart = omega.atlas.chart("U1")
        doubled = sections[("U0", "U1")].scale(2)
        sections[("U0", "U1")] = doubled
        skewed = CechCochain1(omega.atlas, sections)
        assert cochain_multiple(skewed, omega) is None

    def test_zero_against_nonzero(self):
        omega = omega_representative(2)
        zero = CechCochain1(
            omega.atlas,
            {k: TensorSection.zero(s.chart) for k, s in omega.sections.items()},
        )
        assert cochain_multiple(zero, omega) == 0
        assert cochain_multiple(omega, zero) is None

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            omega_representative(1)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("scale", [1, 2])
    def test_extracted_class_matches_reference(self, n, scale):
        extracted = extract_obstruction(build_pi_projective_closed(n, scale))
        omega = omega_representative(n)
        assert cochain_multiple(extracted, omega) == scale
        assert reference_cochain_multiple(extracted, omega) == scale

    def test_matches_reference(self):
        omega = omega_representative(2)
        first, *rest = sorted(omega.sections)
        section = omega.sections[first]
        lead = min(section.components, key=section._key_order)
        evens = section.chart.even_coords
        z = RatFun.var(evens, evens[0])
        spare = next(
            (k, pair) for k in evens for pair in combinations(evens, 2)
            if (k, pair) not in section.components
        )

        def replace(cochain, key, components):
            chart = cochain.sections[key].chart
            return CechCochain1(
                cochain.atlas, {**cochain.sections, key: TensorSection(chart, components)}
            )

        zero = omega.scale(0)
        candidates = {
            "proportional": (omega.scale(Fraction(-3, 2)), omega),
            "itself": (omega, omega),
            "zero-vs-nonzero": (zero, omega),
            "nonzero-vs-zero": (omega, zero),
            "zero-vs-zero": (zero, zero),
            "one-section-doubled": (replace(omega, first, section.scale(2).components), omega),
            "later-section-doubled": (
                replace(omega, rest[-1], omega.sections[rest[-1]].scale(2).components),
                omega,
            ),
            "lead-not-constant": (
                replace(omega, first, {**section.components, lead: section.components[lead] * z}),
                omega,
            ),
            "lead-missing": (
                replace(omega, first, {k: v for k, v in section.components.items() if k != lead}),
                omega,
            ),
            "first-section-zero": (replace(omega, first, {}), replace(omega, first, {})),
            "extra-component": (
                replace(omega, first, {**section.components, spare: z}),
                omega,
            ),
            "mismatched-keys": (CechCochain1(omega.atlas, {k: omega.sections[k] for k in rest}), omega),
            "other-atlas": (omega_representative(3), omega),
        }
        found = {
            name: (cochain_multiple(c1, c2), reference_cochain_multiple(c1, c2))
            for name, (c1, c2) in candidates.items()
        }
        assert all(new == old for new, old in found.values()), found
        assert {name: new for name, (new, _) in found.items()} == {
            "proportional": Fraction(-3, 2),
            "itself": 1,
            "zero-vs-nonzero": 0,
            "nonzero-vs-zero": None,
            "zero-vs-zero": 0,
            "one-section-doubled": None,
            "later-section-doubled": None,
            "lead-not-constant": None,
            "lead-missing": None,
            "first-section-zero": 1,
            "extra-component": None,
            "mismatched-keys": None,
            "other-atlas": None,
        }


def reference_cochain_multiple(c1, c2):
    """cochain_multiple as a component-by-component search: every ratio of
    c1 to c2 must be the same constant before the cochains are compared."""
    if set(c1.sections) != set(c2.sections):
        return None
    lam = None
    for key in sorted(c2.sections):
        section = c2.sections[key]
        for comp_key in sorted(section.components, key=section._key_order):
            other = c1.sections[key].components.get(comp_key)
            if other is None:
                ratio = Fraction(0)
            else:
                ratio = (other / section.components[comp_key]).is_constant()
                if ratio is None:
                    return None
            if lam is None:
                lam = ratio
            elif lam != ratio:
                return None
    if lam is None:
        return Fraction(0) if c1.is_zero() else None
    return lam if c1.equals(c2.scale(lam)) else None

