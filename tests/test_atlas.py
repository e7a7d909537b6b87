"""Transitions, cocycle verification, super Jacobians, atlas classification."""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations

import pytest

import superpi.atlas as atlas_module
from superpi.atlas import (
    Atlas,
    TransitionMap,
    atlas_mismatch,
    check_berezinian_trivial,
    check_cocycle,
    check_equivariant,
    compose,
    correction_degrees,
    identity_transition,
    super_jacobian,
    transition_mismatch,
)
from superpi.builders import (
    build_pi_grassmannian,
    build_pi_projective_closed,
    build_projective_superspace,
    build_super_grassmannian,
    derive_transition_from_cells,
    pi_grassmannian_cells,
)
from superpi.report import FAIL, PASS
from superpi.suites import suite_pi_projective
from superpi.superalgebra import (
    Chart,
    Pullback,
    Renaming,
    SuperFunction,
    parse_superfunction,
    substitute,
)
from superpi.supermatrix import SuperMatrix, berezinian

from conftest import random_transition
from oracles import (
    conjugate,
    exhaustive_berezinian,
    exhaustive_cocycle,
    jacobian_chain_product,
    map_entries,
    pull_back,
    renaming_maps,
)


class TestTransitionMap:
    @pytest.mark.parametrize(
        "name, image, message",
        [
            ("z01", "(1)*[th10]", "even coordinate 'z01' mapped to non-even image"),
            ("z01", "(1)*[th10*th20]", "even coordinate 'z01' mapped to zero-body image"),
            ("th01", "(z10)", "odd coordinate 'th01' mapped to non-odd image"),
        ],
    )
    def test_bad_images_raise_the_pullback_messages(self, name, image, message):
        t = build_pi_projective_closed(2).transition("U0", "U1")
        images = dict(t.images, **{name: parse_superfunction(image, t.source)})
        with pytest.raises(ValueError, match=f"^{message}$"):
            TransitionMap(t.source, t.target, images)

    def test_missing_and_foreign_images(self):
        t = build_pi_projective_closed(2).transition("U0", "U1")
        images = dict(t.images)
        del images["th21"]
        with pytest.raises(ValueError, match="^transition misses target coordinate 'th21'$"):
            TransitionMap(t.source, t.target, images)
        images = dict(t.images, z01=SuperFunction.one(t.target))
        with pytest.raises(ValueError, match="^image of 'z01' does not live on the source chart$"):
            TransitionMap(t.source, t.target, images)


class TestCompose:
    def test_with_identity(self):
        atlas = build_pi_projective_closed(2)
        t = atlas.transition("U0", "U1")
        left = compose(t, identity_transition(atlas.chart("U0")))
        right = compose(identity_transition(atlas.chart("U1")), t)
        assert transition_mismatch(left, t) == ""
        assert transition_mismatch(right, t) == ""

    def test_round_trip_identity(self):
        atlas = build_pi_projective_closed(1)
        rt = compose(atlas.transition("U1", "U0"), atlas.transition("U0", "U1"))
        assert transition_mismatch(rt, identity_transition(rt.source)) == ""

    def test_triple_agreement(self):
        atlas = build_pi_projective_closed(2)
        threaded = compose(atlas.transition("U1", "U2"), atlas.transition("U0", "U1"))
        assert transition_mismatch(threaded, atlas.transition("U0", "U2")) == ""

    def test_chart_mismatch(self):
        atlas = build_pi_projective_closed(2)
        with pytest.raises(ValueError, match="cannot compose"):
            compose(atlas.transition("U0", "U1"), atlas.transition("U0", "U1"))

    @staticmethod
    def assert_matches_one_shot(t2, t1):
        composed = compose(t2, t1)
        for name, img in t2.images.items():
            assert composed.images[name].equals(substitute(img, t1.images))

    def test_shared_pullback_matches_one_shot_substitution(self):
        atlas = build_pi_projective_closed(3)
        names = atlas.chart_names()
        for i, j in atlas.pairs():
            k = next(name for name in names if name not in (i, j))
            self.assert_matches_one_shot(atlas.transition(j, k), atlas.transition(i, j))

    def test_shared_pullback_matches_on_pi_grassmannian_24(self):
        u1, u2, u3 = pi_grassmannian_cells(2, 4)[:3]
        self.assert_matches_one_shot(
            derive_transition_from_cells(u2, u3), derive_transition_from_cells(u1, u2)
        )


class TestCheckCocycle:
    def test_pi_line_passes(self):
        assert check_cocycle(build_pi_projective_closed(1)).all_passed

    def test_p3_passes(self):
        assert check_cocycle(build_pi_projective_closed(3)).all_passed

    def test_negative_control_flags_witness(self):
        atlas = build_pi_projective_closed(1)
        broken = dict(atlas.transitions)
        t = broken[("U0", "U1")]
        images = dict(t.images)
        images["th01"] = -images["th01"]  # deliberate sign flip
        broken[("U0", "U1")] = TransitionMap(t.source, t.target, images)
        report = check_cocycle(Atlas(atlas.charts, broken))
        assert not report.all_passed
        failing = [c for c in report.checks if c.status == FAIL]
        assert failing
        assert all("difference" in c.witness for c in failing)
        assert any("th" in c.witness for c in failing)

    def test_failure_witnesses_are_pinned(self):
        # Round trips report image - coordinate, triples direct - threaded.
        atlas = build_pi_projective_closed(2)
        broken = dict(atlas.transitions)
        t = broken[("U0", "U1")]
        images = dict(t.images)
        images["th21"] = -images["th21"]
        broken[("U0", "U1")] = TransitionMap(t.source, t.target, images)
        report = check_cocycle(Atlas(atlas.charts, broken))
        failing = {c.identifier: c.witness for c in report.checks if c.status == FAIL}
        assert failing == {
            "roundtrip/U0->U1->U0": "coordinate z20: difference (2)/(z10)*[th10*th20]",
            "roundtrip/U1->U0->U1": "coordinate th21: difference (-2)*[th21]",
            "triple/U0,U1,U2": "coordinate z02: difference (2)/(z10*z20^2)*[th10*th20]",
            "triple/U0,U2,U1": "coordinate th21: difference "
            "(2*z20)/(z10^2)*[th10] + (-2)/(z10)*[th20]",
            "triple/U2,U0,U1": "coordinate th21: difference (-2)/(z12^2)*[th12]",
        }


def verdicts(report):
    return [(c.identifier, c.status, c.witness) for c in report.checks]


def flip_odd_image(atlas, pair):
    """atlas with the first odd image of the transition at pair negated; it
    keeps the candidate symmetries of atlas."""
    transitions = dict(atlas.transitions)
    t = transitions[pair]
    name = t.target.odd_coords[0]
    transitions[pair] = TransitionMap(t.source, t.target, dict(t.images, **{name: -t.images[name]}))
    return Atlas(atlas.charts, transitions, atlas.symmetries)


def negate_odd_images(atlas):
    """atlas with every odd image of every stored transition negated.

    That is T_ij followed by the sign change of the odd coordinates of j,
    which commutes with every transition: the fault keeps every symmetry
    and every round trip, and only the triples see it.
    """
    transitions = {
        pair: TransitionMap(
            t.source,
            t.target,
            {name: -image if name in t.target.odd_coords else image for name, image in t.images.items()},
        )
        for pair, t in atlas.transitions.items()
        if pair[0] != pair[1]
    }
    return Atlas(atlas.charts, transitions, atlas.symmetries)


def regauge_pair(atlas, pair):
    """atlas with the sign change s of the first odd coordinate of j put
    after T_ij and before T_ji: both round trips still close, and the
    triples through the pair fail."""
    i, j = pair
    chart = atlas.chart(j)
    name = chart.odd_coords[0]
    images = identity_transition(chart).images
    sign = TransitionMap(chart, chart, dict(images, **{name: -images[name]}))
    transitions = dict(atlas.transitions)
    transitions[(i, j)] = compose(sign, atlas.transition(i, j))
    transitions[(j, i)] = compose(atlas.transition(j, i), sign)
    return Atlas(atlas.charts, transitions, atlas.symmetries)


def unequal_dimension_atlas():
    """A = (a|) and B = (b, c|) with b, c -> a and a -> b: only A->B->A closes."""
    a, b = Chart("A", ("a",), ()), Chart("B", ("b", "c"), ())
    a_coord = SuperFunction.coordinate(a, "a")
    to_b = TransitionMap(a, b, {"b": a_coord, "c": a_coord})
    to_a = TransitionMap(b, a, {"a": SuperFunction.coordinate(b, "b")})
    return Atlas([a, b], {("A", "B"): to_b, ("B", "A"): to_a})


class TestCocyclePruning:
    """check_cocycle reports what composing every check reports."""

    @pytest.mark.parametrize(
        "build",
        [
            partial(build_pi_projective_closed, 2),
            partial(build_pi_projective_closed, 3),
            partial(build_super_grassmannian, 1, 1, 2, 2),
            partial(build_projective_superspace, 2, 3),
        ],
    )
    def test_passing_atlases(self, build):
        atlas = build()
        report = check_cocycle(atlas)
        assert report.all_passed
        assert verdicts(report) == verdicts(exhaustive_cocycle(atlas))

    @pytest.mark.parametrize("pair", list(permutations(("U0", "U1", "U2"), 2)))
    def test_every_single_transition_fault(self, pair):
        atlas = flip_odd_image(build_pi_projective_closed(2), pair)
        report = check_cocycle(atlas)
        assert not report.all_passed
        assert verdicts(report) == verdicts(exhaustive_cocycle(atlas))

    @pytest.mark.parametrize("pair", list(permutations(("U0", "U1", "U2", "U3"), 2)))
    def test_every_single_transition_fault_on_four_charts(self, pair):
        # Every flip breaks a symmetry of P^3_Pi, so every check is composed.
        atlas = flip_odd_image(build_pi_projective_closed(3), pair)
        report = check_cocycle(atlas)
        assert not report.all_passed
        assert verdicts(report) == verdicts(exhaustive_cocycle(atlas))

    @pytest.mark.parametrize("pair", list(combinations(("U0", "U1", "U2", "U3"), 2)))
    def test_faults_that_only_triples_see(self, pair):
        # Every round trip passes, so only the composed triples can fail.
        atlas = regauge_pair(build_pi_projective_closed(3), pair)
        report = check_cocycle(atlas)
        assert all(
            c.status == PASS for c in report.checks if c.identifier.startswith("roundtrip/")
        )
        assert not report.all_passed
        assert verdicts(report) == verdicts(exhaustive_cocycle(atlas))

    def test_unequal_dimensions_compose_every_check(self):
        atlas = unequal_dimension_atlas()
        report = check_cocycle(atlas)
        assert verdicts(report) == verdicts(exhaustive_cocycle(atlas))
        assert verdicts(report) == [
            ("roundtrip/A->B->A", PASS, ""),
            ("roundtrip/B->A->B", FAIL, "coordinate c: difference (b - c)"),
        ]


class TestCocycleSharing:
    """check_cocycle builds one Pullback per first leg and composes through it.

    An atlas without symmetries composes every check once: P^2_Pi has 6
    round trips and 6 triple orderings over 6 first legs, P^4_Pi 20 round
    trips and 20 triple orderings over 20 first legs.
    """

    @staticmethod
    def count_calls(monkeypatch):
        counts = {"Pullback": 0, "compose": 0}
        for name in counts:
            real = getattr(atlas_module, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(atlas_module, name, counted)
        return counts

    @staticmethod
    def ids_in_check_order(names):
        ids = [f"roundtrip/{i}->{j}->{i}" for i in names for j in names if i != j]
        for combo in combinations(names, 3):
            orderings = permutations(combo) if len(names) <= 4 else [combo, combo[::-1]]
            ids += [f"triple/{i},{j},{k}" for i, j, k in orderings]
        return ids

    @pytest.mark.parametrize("n, pullbacks, compositions", [(2, 6, 12), (4, 20, 40)])
    def test_one_pullback_per_first_leg(self, monkeypatch, n, pullbacks, compositions):
        closed = build_pi_projective_closed(n)
        atlas = Atlas(closed.charts, closed.transitions)
        counts = self.count_calls(monkeypatch)
        report = check_cocycle(atlas)
        assert counts == {"Pullback": pullbacks, "compose": compositions}
        assert report.all_passed
        assert [c.identifier for c in report.checks] == self.ids_in_check_order(
            atlas.chart_names()
        )

    def test_compose_refuses_a_pullback_of_another_transition(self):
        atlas = build_pi_projective_closed(2)
        t1, other = atlas.transition("U0", "U1"), atlas.transition("U2", "U1")
        t2 = atlas.transition("U1", "U2")
        with pytest.raises(ValueError, match="not built from the images of t1"):
            compose(t2, t1, Pullback(other.target, other.images))
        shared = compose(t2, t1, Pullback(t1.target, t1.images))
        assert transition_mismatch(shared, compose(t2, t1)) == ""


@pytest.fixture(scope="module")
def pi_grassmannian_24():
    return build_pi_grassmannian(2, 4)


# The scales the closed-form P^n_Pi is checked at: standard, split, and others.
SCALES = [
    pytest.param(scale, id=name)
    for scale, name in ((1, "1"), (0, "0"), (2, "2"), (Fraction(1, 2), "half"), (-3, "-3"))
]


class TestSymmetricCocycle:
    """check_cocycle composes one check per orbit of an atlas's verified symmetries."""

    # Every atlas a suite of the desk battery checks the cocycle of, and
    # G_Pi(1, 4).  An atlas without verified symmetries composes every check,
    # so a builder that stops supplying them fails here.
    @pytest.mark.parametrize(
        "build, compositions",
        [
            pytest.param(partial(build_pi_grassmannian, 2, 4), 5, id="pi-grassmannian-2-4"),
            pytest.param(partial(build_super_grassmannian, 2, 0, 4, 0), 5, id="grassmannian-2-0-4-0"),
            pytest.param(partial(build_super_grassmannian, 1, 1, 2, 2), 4, id="grassmannian-1-1-2-2"),
            pytest.param(partial(build_projective_superspace, 2, 3), 2, id="p-2-3"),
            pytest.param(partial(build_projective_superspace, 1, 1), 1, id="p-1-1"),
            pytest.param(partial(build_pi_grassmannian, 1, 4), 2, id="pi-grassmannian-1-4"),
            *(
                pytest.param(
                    partial(build_pi_projective_closed, n), 1 if n == 1 else 2, id=f"pi-projective-{n}"
                )
                for n in range(1, 6)
            ),
        ],
    )
    def test_orbit_representatives_match_every_check(self, monkeypatch, build, compositions):
        atlas = build()
        assert atlas.verified_renamings()
        counts = TestCocycleSharing.count_calls(monkeypatch)
        report = check_cocycle(atlas)
        assert counts["compose"] == compositions
        assert report.all_passed
        assert verdicts(report) == verdicts(exhaustive_cocycle(atlas))

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_closed_pi_projective_composes_one_check_per_orbit(self, monkeypatch, n, scale):
        # S_{n+1} is transitive on ordered pairs and on triples of charts.
        atlas = build_pi_projective_closed(n, scale)
        assert check_equivariant(atlas, atlas.symmetries) == ""
        counts = TestCocycleSharing.count_calls(monkeypatch)
        report = check_cocycle(atlas)
        assert counts["compose"] == (1 if n == 1 else 2)
        assert report.all_passed
        assert verdicts(report) == verdicts(exhaustive_cocycle(atlas))

    def test_flipped_odd_image_on_closed_form_composes_every_check(self, monkeypatch):
        atlas = flip_odd_image(build_pi_projective_closed(3), ("U1", "U2"))
        assert check_equivariant(atlas, atlas.symmetries).startswith("symmetry ")
        counts = TestCocycleSharing.count_calls(monkeypatch)
        report = check_cocycle(atlas)
        assert counts["compose"] == len(report.checks) == 36
        assert not report.all_passed
        assert verdicts(report) == verdicts(exhaustive_cocycle(atlas))

    def test_one_equivariance_check_per_suite(self, monkeypatch):
        calls = []
        real = atlas_module.check_equivariant

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(atlas_module, "check_equivariant", counted)
        assert suite_pi_projective(3).all_passed
        assert len(calls) == 1

    @pytest.mark.parametrize("pair", [("U1", "U2"), ("U1", "U6")])
    def test_single_transition_fault_breaks_a_symmetry(self, monkeypatch, pi_grassmannian_24, pair):
        # One pair from each of the two pair orbits of G_Pi(2, 4).
        atlas = flip_odd_image(pi_grassmannian_24, pair)
        witness = check_equivariant(atlas, atlas.symmetries)
        assert witness.startswith("symmetry ")
        assert "difference" in witness
        counts = TestCocycleSharing.count_calls(monkeypatch)
        report = check_cocycle(atlas)
        assert counts["compose"] == 70
        assert not report.all_passed
        assert verdicts(report) == verdicts(exhaustive_cocycle(atlas))

    @pytest.mark.parametrize(
        "build",
        [partial(build_pi_grassmannian, 2, 4), partial(build_super_grassmannian, 1, 1, 2, 2)],
        ids=["pi-grassmannian-2-4", "grassmannian-1-1-2-2"],
    )
    def test_fault_on_every_transition_only_triples_see(self, monkeypatch, build):
        atlas = negate_odd_images(build())
        assert check_equivariant(atlas, atlas.symmetries) == ""
        counts = TestCocycleSharing.count_calls(monkeypatch)
        report = check_cocycle(atlas)
        # Every check is composed once: the representatives' witnesses are reused.
        assert counts["compose"] == len(report.checks)
        assert all(
            c.status == PASS for c in report.checks if c.identifier.startswith("roundtrip/")
        )
        assert not report.all_passed
        assert verdicts(report) == verdicts(exhaustive_cocycle(atlas))

    @pytest.mark.parametrize(
        "spoil, witness",
        [
            (
                lambda s: {**s, "U1": (s["U2"][0], s["U1"][1])},
                "symmetry 0 does not permute the charts",
            ),
            (
                lambda s: {**s, "U1": (s["U1"][0], {**s["U1"][1], "x11": "th11"})},
                "symmetry 0: the renaming of 'U1' onto 'U1' is not a parity-preserving "
                "bijection of their coordinates",
            ),
        ],
        ids=["charts", "coordinates"],
    )
    def test_spoilt_renaming_composes_every_check(
        self, monkeypatch, pi_grassmannian_24, spoil, witness
    ):
        first, *rest = pi_grassmannian_24.symmetries
        atlas = Atlas(
            pi_grassmannian_24.charts, pi_grassmannian_24.transitions, [spoil(first), *rest]
        )
        assert check_equivariant(atlas, atlas.symmetries) == witness
        counts = TestCocycleSharing.count_calls(monkeypatch)
        report = check_cocycle(atlas)
        assert counts["compose"] == len(report.checks) == 70
        assert verdicts(report) == verdicts(exhaustive_cocycle(atlas))
        assert verdicts(report) == verdicts(check_cocycle(pi_grassmannian_24))


class TestRenamingOracle:
    """The direct renaming of check_equivariant against renamings composed as transitions."""

    def test_renamed_transitions_match_compositions(self, pi_grassmannian_24):
        atlas = pi_grassmannian_24
        symmetry = atlas.symmetries[1]
        for i, j in atlas.pairs():
            (image_i, names_i), (image_j, names_j) = symmetry[i], symmetry[j]
            t, moved = atlas.transition(i, j), atlas.transition(image_i, image_j)
            rename_i = Renaming(t.source, moved.source, names_i)
            direct = TransitionMap(
                moved.source,
                moved.target,
                {names_j[y]: rename_i(image) for y, image in t.images.items()},
            )
            r_i, r_j = renaming_maps(atlas, symmetry, i)[0], renaming_maps(atlas, symmetry, j)[0]
            assert transition_mismatch(compose(moved, r_i), compose(r_j, t)) == ""
            conjugated = conjugate(atlas, symmetry, t)
            assert transition_mismatch(direct, conjugated) == ""
            assert {y: f.to_str() for y, f in direct.images.items()} == {
                y: f.to_str() for y, f in conjugated.images.items()
            }
            assert transition_mismatch(direct, moved) == ""


class TestTransitionMismatch:
    def test_equal_and_unequal(self):
        atlas = build_pi_projective_closed(1)
        t = atlas.transition("U0", "U1")
        assert transition_mismatch(t, t) == ""
        images = dict(t.images)
        images["th01"] = -images["th01"]
        flipped = TransitionMap(t.source, t.target, images)
        assert transition_mismatch(flipped, t) == "coordinate th01: difference (2)/(z10^2)*[th10]"

    def test_different_charts(self):
        atlas = build_pi_projective_closed(1)
        witness = transition_mismatch(atlas.transition("U0", "U1"), atlas.transition("U1", "U0"))
        assert witness == "charts U0->U1 vs U1->U0"


class TestAtlasesEqual:
    def test_same_atlas(self):
        assert atlas_mismatch(build_projective_superspace(2, 1), build_projective_superspace(2, 1)) == ""

    def test_missing_transitions_in_either_order(self):
        full = build_projective_superspace(2, 1)
        part = Atlas(
            full.charts,
            {key: full.transitions[key] for key in (("U0", "U1"), ("U1", "U0"))},
        )
        assert atlas_mismatch(part, full) == "the atlases glue different chart pairs"
        assert atlas_mismatch(full, part) == "the atlases glue different chart pairs"

    def test_different_charts(self):
        witness = atlas_mismatch(build_projective_superspace(2, 1), build_projective_superspace(1, 1))
        assert witness == "charts differ: U0,U1,U2 vs U0,U1"

    def test_first_differing_transition_is_named(self):
        closed, doubled = build_pi_projective_closed(2), build_pi_projective_closed(2, 2)
        assert atlas_mismatch(closed, closed) == ""
        assert atlas_mismatch(doubled, closed) == (
            "transition U0->U1: coordinate z21: difference (1)/(z10^2)*[th10*th20]"
        )


class TestSuperJacobian:
    def test_identity_map(self):
        chart = Chart("U", ("z",), ("t",))
        jac = super_jacobian(identity_transition(chart))
        assert jac.equals(SuperMatrix.identity(chart, (1, 1)))

    def test_chain_product_shapes_through_empty_charts(self):
        point = Chart("P", (), ())
        line = Chart("L", ("z",), ("t",))
        to_point = super_jacobian(TransitionMap(line, point, {}))
        from_point = SuperMatrix(line, (1, 1), (0, 0), [[], []])
        chained = jacobian_chain_product(to_point, from_point)
        zero = SuperFunction.zero(line)
        assert chained.equals(SuperMatrix(line, (1, 1), (1, 1), [[zero, zero], [zero, zero]]))
        back = jacobian_chain_product(from_point, to_point)
        assert back.row_shape == back.col_shape == (0, 0)

    def test_plane_blocks(self):
        atlas = build_pi_projective_closed(2)
        jac = super_jacobian(atlas.transition("U0", "U1"))
        chart = atlas.chart("U0")

        def expect(text):
            return parse_superfunction(text, chart)

        # rows: z01, z21 | th01, th21; columns: z10, z20 | th10, th20
        assert jac.entries[0][0].equals(expect("(-1)/(z10^2)"))
        assert jac.entries[1][0].equals(
            expect("(-z20)/(z10^2) + (-2)/(z10^3)*[th10*th20]")
        )
        assert jac.entries[1][2].equals(expect("(1)/(z10^2)*[th20]"))
        assert jac.entries[1][3].equals(expect("(-1)/(z10^2)*[th10]"))
        assert jac.entries[2][0].equals(expect("(2)/(z10^3)*[th10]"))
        assert jac.entries[3][0].equals(
            expect("(-1)/(z10^2)*[th20] + (2*z20)/(z10^3)*[th10]")
        )
        assert jac.entries[3][2].equals(expect("(-z20)/(z10^2)"))
        assert jac.entries[3][3].equals(expect("(1)/(z10)"))

    def test_chain_rule_on_atlas(self):
        atlas = build_pi_projective_closed(2)
        names = ["U0", "U1", "U2"]
        for i in names:
            for j in names:
                for k in names:
                    if len({i, j, k}) != 3:
                        continue
                    t1 = atlas.transition(i, j)
                    t2 = atlas.transition(j, k)
                    direct = super_jacobian(compose(t2, t1))
                    pulled = map_entries(super_jacobian(t2), partial(pull_back, t1))
                    chained = jacobian_chain_product(super_jacobian(t1), pulled)
                    assert direct.equals(chained)

    def test_chain_rule_randomised(self):
        rng = random.Random(31)
        a = Chart("A", ("a1", "a2"), ("p1", "p2"))
        b = Chart("B", ("b1", "b2"), ("q1", "q2"))
        c = Chart("C", ("c1", "c2"), ("r1", "r2"))
        for _ in range(25):
            t1 = random_transition(rng, a, b)
            t2 = random_transition(rng, b, c)
            direct = super_jacobian(compose(t2, t1))
            pulled = map_entries(super_jacobian(t2), partial(pull_back, t1))
            chained = jacobian_chain_product(super_jacobian(t1), pulled)
            assert direct.equals(chained)


class TestBerezinianTriviality:
    def test_pi_spaces_exactly_one(self):
        for n in (1, 2):
            report = check_berezinian_trivial(build_pi_projective_closed(n))
            assert report.find("verdict").witness == "trivial (exact)"
            for i, j in (("U0", "U1"), ("U1", "U0")):
                assert report.find(f"pair/{i}->{j}").witness == "Ber = 1"

    def test_superline_is_nonconstant(self):
        report = check_berezinian_trivial(build_projective_superspace(1, 1))
        assert report.find("verdict").witness == "undetermined"
        atlas = build_projective_superspace(1, 1)
        ber = berezinian(super_jacobian(atlas.transition("U0", "U1")))
        chart = atlas.chart("U0")
        assert ber.equals(parse_superfunction("(-1)/(z10)", chart))

    def test_constant_cocycle_families(self):
        for n, m in ((1, 2), (2, 3)):
            report = check_berezinian_trivial(build_projective_superspace(n, m))
            assert report.find("verdict").witness == "trivial (constant cocycle)"
            assert report.find("pair/U0->U1").witness == "Ber = -1"


class TestBerezinianChainRule:
    """check_berezinian_trivial reports what computing every Berezinian reports.

    With verified symmetries it computes one Berezinian per orbit of ordered
    pairs and renames it, with the renamings' signs, onto the rest.
    """

    @pytest.mark.parametrize(
        "build",
        [
            *(partial(build_pi_projective_closed, n) for n in (1, 2, 3, 4)),
            *(
                partial(build_projective_superspace, n, m)
                for n, m in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 4))
            ),
            partial(build_super_grassmannian, 1, 1, 2, 2),
            partial(build_projective_superspace, 3, 2),
            partial(build_super_grassmannian, 2, 1, 4, 2),
            partial(build_pi_grassmannian, 2, 4),
        ],
    )
    def test_matches_every_pair_computed(self, build):
        atlas = build()
        assert atlas.verified_renamings()
        report = check_berezinian_trivial(atlas)
        assert verdicts(report) == verdicts(exhaustive_berezinian(atlas))

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_closed_form_matches_every_pair_computed(self, n, scale):
        atlas = build_pi_projective_closed(n, scale)
        assert atlas.verified_renamings()
        report = check_berezinian_trivial(atlas)
        assert verdicts(report) == verdicts(exhaustive_berezinian(atlas))

    def test_failing_cocycle_computes_every_pair(self):
        # The flip breaks equivariance, so no Berezinian is renamed.
        atlas = flip_odd_image(build_pi_projective_closed(2), ("U1", "U2"))
        assert not check_cocycle(atlas).all_passed
        assert atlas.verified_renamings() == []
        report = check_berezinian_trivial(atlas)
        assert verdicts(report) == verdicts(exhaustive_berezinian(atlas))
        assert report.find("pair/U1->U2").witness == "Ber = -1"

    @pytest.mark.parametrize(
        "build, computed",
        [
            (partial(build_pi_projective_closed, 4), 1),
            (partial(build_projective_superspace, 1, 1), 1),
        ],
    )
    def test_berezinians_computed(self, monkeypatch, build, computed):
        atlas = build()
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return berezinian(matrix)

        monkeypatch.setattr(atlas_module, "berezinian", counted)
        check_berezinian_trivial(atlas)
        assert len(calls) == computed


class TestRenamingSign:
    """Renaming.sign is the Berezinian of the renaming's Jacobian."""

    @pytest.mark.parametrize(
        "build, signs",
        [
            (partial(build_projective_superspace, 2, 3), {1, -1}),
            (partial(build_projective_superspace, 3, 2), {1, -1}),
            (partial(build_super_grassmannian, 2, 1, 4, 2), {1, -1}),
            # Pi-symmetric charts pair each even coordinate with an odd one.
            (partial(build_pi_grassmannian, 2, 4), {1}),
            (partial(build_pi_projective_closed, 3), {1}),
        ],
        ids=["p-2-3", "p-3-2", "grassmannian-2-1-4-2", "pi-grassmannian-2-4", "closed-pi-3"],
    )
    def test_sign_is_the_berezinian_of_the_renaming(self, build, signs):
        atlas = build()
        seen = set()
        for symmetry in atlas.symmetries:
            for i, (image, names) in symmetry.items():
                renaming = Renaming(atlas.chart(i), atlas.chart(image), names)
                forward, _ = renaming_maps(atlas, symmetry, i)
                assert berezinian(super_jacobian(forward)).is_constant() == renaming.sign
                seen.add(renaming.sign)
        assert seen == signs

    def test_unsigned_rule_misreads_p23(self, monkeypatch):
        atlas = build_projective_superspace(2, 3)
        assert exhaustive_berezinian(atlas).find("pair/U0->U2").witness == "Ber = 1"
        monkeypatch.setattr(Renaming, "sign", 1)
        report = check_berezinian_trivial(atlas)
        assert report.find("pair/U0->U2").witness == "Ber = -1"
        assert verdicts(report) != verdicts(exhaustive_berezinian(atlas))


class TestClassification:
    def test_split_model(self):
        assert correction_degrees(build_projective_superspace(2, 3)) == (set(), set())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_pi_projective_census(self, n):
        # P^1_Pi is split; from n = 2 on the even images carry degree-2
        # corrections only and the odd transitions stay linear.
        even = set() if n == 1 else {2}
        assert correction_degrees(build_pi_projective_closed(n)) == (even, set())
