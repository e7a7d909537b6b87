"""Big cells, derived transitions, Pi-symmetry and the named atlases."""

import random
from functools import partial
from itertools import combinations
from math import comb

import pytest

from superpi import atlas as atlas_module
from superpi import builders
from superpi.atlas import (
    atlas_mismatch,
    check_cocycle,
    correction_degrees,
    identity_transition,
    transition_mismatch,
)
from superpi.builders import (
    CellOverlapError,
    build_pi_grassmannian,
    build_pi_projective_closed,
    build_projective_superspace,
    build_super_grassmannian,
    check_pi_symmetric,
    coordinate_name,
    derive_pi_grassmannian,
    derive_transition_from_cells,
    grassmannian_cells,
    make_big_cell,
    make_pi_cell,
    pi_grassmannian_cells,
    pi_projective_cell,
    reduce_atlas,
    transformed_cell,
)
from superpi.cli import main
from superpi.rational import RatFun
from superpi.report import FAIL, PASS
from superpi.suites import G24_EXPECTED_U1_U2, suite_pi_grassmannian_24
from superpi.superalgebra import Chart, SuperFunction, parse_superfunction
from superpi.supermatrix import SuperMatrix

from oracles import closed_projective_superspace, derive_every_pair, schur_inverse


class TestPiLine:
    def test_derived_transition_values(self):
        cells = pi_grassmannian_cells(1, 2)
        t01 = derive_transition_from_cells(cells[0], cells[1])
        chart = cells[0].chart
        assert t01.images["z01"].equals(parse_superfunction("(1)/(z10)", chart))
        assert t01.images["th01"].equals(
            parse_superfunction("(-1)/(z10^2)*[th10]", chart)
        )

    def test_transformed_cell_matches_row_reduction(self):
        # the fully reduced cell: [[1/z, 1 | -t/z^2, 0], [t/z^2, 0 | 1/z, 1]]
        cells = pi_grassmannian_cells(1, 2)
        w = transformed_cell(cells[0], cells[1])
        chart = cells[0].chart
        expect = lambda text: parse_superfunction(text, chart)
        assert w.entries[0][0].equals(expect("(1)/(z10)"))
        assert w.entries[0][1].equals(expect("(1)"))
        assert w.entries[0][2].equals(expect("(-1)/(z10^2)*[th10]"))
        assert w.entries[0][3].equals(expect("(0)"))
        assert w.entries[1][0].equals(expect("(1)/(z10^2)*[th10]"))
        assert w.entries[1][2].equals(expect("(1)/(z10)"))

    def test_same_cell_gives_identity(self):
        cells = pi_grassmannian_cells(1, 2)
        t = derive_transition_from_cells(cells[0], cells[0])
        assert transition_mismatch(t, identity_transition(t.source)) == ""


def _representation(f):
    """The stored components of f as (odd monomial, numerator terms, denominator terms)."""
    return [(mon, c.num.terms, c.den.terms) for mon, c in f.components.items()]


class TestProjectiveSuperspace:
    def test_line_transitions(self):
        atlas = build_projective_superspace(1, 1)
        t = atlas.transition("U0", "U1")
        chart = atlas.chart("U0")
        assert t.images["z01"].equals(parse_superfunction("(1)/(z10)", chart))
        assert t.images["th11"].equals(parse_superfunction("(1)/(z10)*[th10]", chart))

    def test_reduced_projective_line(self):
        atlas = build_projective_superspace(1, 0)
        t = atlas.transition("U0", "U1")
        assert t.images["z01"].equals(
            parse_superfunction("(1)/(z10)", atlas.chart("U0"))
        )

    def test_cocycle(self):
        assert check_cocycle(build_projective_superspace(2, 3)).all_passed

    @pytest.mark.parametrize(
        "n, m", [(n, m) for n in range(1, 6) for m in range(4)] + [(10, 11)]
    )
    def test_matches_rank_one_grassmannian(self, n, m):
        # P^{n|m} comes from the cells of G(1|0; n+1|m); the closed formulas
        # must give the same charts and the same representation of every image.
        atlas = build_projective_superspace(n, m)
        closed = closed_projective_superspace(n, m)
        assert atlas.charts == closed.charts
        assert sorted(atlas.transitions) == sorted(closed.transitions)
        for pair, expected in closed.transitions.items():
            images = atlas.transitions[pair].images
            assert list(images) == list(expected.images), pair
            for name, value in expected.images.items():
                assert _representation(images[name]) == _representation(value), (pair, name)
                assert images[name].to_str() == value.to_str(), (pair, name)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            build_projective_superspace(0, 1)


class TestCoordinateNames:
    def test_names_are_distinct_and_run_together_only_for_digits(self):
        for prefix in ("z", "th"):
            names = {}
            for i in range(121):
                for j in range(121):
                    name = coordinate_name(prefix, i, j)
                    assert (name == f"{prefix}{i}{j}") == (i <= 9 and j <= 9)
                    assert names.setdefault(name, (i, j)) == (i, j)
        assert coordinate_name("z", 10, 0) == "z_10_0"
        assert coordinate_name("x", 1, 10) == "x_1_10"

    def test_images_past_nine_round_trip_through_the_parser(self):
        atlas = build_pi_projective_closed(10)
        assert {"z10", "z_10_0", "th90", "th_10_0"} <= set(atlas.chart("U0").coords)
        assert {"z_0_10", "z_9_10", "th_0_10"} <= set(atlas.chart("U10").coords)
        for pair in (("U0", "U10"), ("U10", "U0")):
            t = atlas.transition(*pair)
            assert len(t.images) == 20
            for image in t.images.values():
                assert parse_superfunction(image.to_str(), t.source).equals(image)

    def test_projective_superspace_past_nine(self):
        atlas = build_projective_superspace(10, 11)
        assert atlas.chart("U10").odd_coords[-1] == "th_11_10"
        assert atlas.chart("U0").even_coords[-1] == "z_10_0"


class TestPiProjective:
    def test_closed_form_values_plane(self):
        atlas = build_pi_projective_closed(2)
        t = atlas.transition("U0", "U1")
        chart = atlas.chart("U0")
        assert t.images["z21"].equals(
            parse_superfunction("(z20)/(z10) + (1)/(z10^2)*[th10*th20]", chart)
        )
        assert t.images["th21"].equals(
            parse_superfunction("(1)/(z10)*[th20] + (-z20)/(z10^2)*[th10]", chart)
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_derived_cells_match_closed_form(self, n):
        assert atlas_mismatch(build_pi_grassmannian(1, n + 1), build_pi_projective_closed(n)) == ""

    def test_cocycle_n3(self):
        assert check_cocycle(build_pi_projective_closed(3)).all_passed

    def test_scaled_corrections_still_glue(self):
        assert check_cocycle(build_pi_projective_closed(2, scale=2)).all_passed

    def test_float_scale_rejected(self):
        with pytest.raises(TypeError, match="inexact"):
            build_pi_projective_closed(2, 0.1)

    def test_reduction_gives_projective_space(self):
        reduced = reduce_atlas(build_pi_projective_closed(2))
        plain = build_projective_superspace(2, 0)
        for key, t in plain.transitions.items():
            other = reduced.transitions[key]
            for name in t.target.even_coords:
                assert t.images[name].equals(other.images[name])

    @pytest.mark.parametrize("n", [2, 3])
    def test_odd_layer_is_shifted_cotangent_sheaf(self, n):
        # the degree-1 odd coefficients of every transition equal the reduced
        # Jacobian, i.e. theta transforms exactly like the coordinate
        # differentials of the reduced space
        atlas = build_pi_projective_closed(n)
        for (i, j), t in atlas.transitions.items():
            if i == j:
                continue
            evens = list(t.target.even_coords)
            odds = list(t.target.odd_coords)
            src_evens = list(t.source.even_coords)
            src_odds = list(t.source.odd_coords)
            for target_even, target_odd in zip(evens, odds):
                reduced_image = t.images[target_even].body()
                odd_image = t.images[target_odd].degree_part(1)
                zero = RatFun.zero(t.source.even_coords)
                for src_even, src_odd in zip(src_evens, src_odds):
                    jac_entry = reduced_image.derivative(src_even)
                    coeff = odd_image.components.get((src_odd,), zero)
                    assert coeff.equals(jac_entry)


class TestGrassmannian:
    def test_cell_counts(self):
        assert len(grassmannian_cells(1, 1, 2, 2)) == comb(2, 1) * comb(2, 1)
        assert len(grassmannian_cells(2, 0, 4, 0)) == 6

    def test_reduced_grassmannian_pair(self):
        atlas = build_super_grassmannian(2, 0, 4, 0)
        t = atlas.transition("U1", "U2")
        chart = atlas.chart("U1")
        assert t.images["x12"].equals(parse_superfunction("(-x11)/(y11)", chart))
        assert t.images["x22"].equals(
            parse_superfunction("(x21) + (-x11*y21)/(y11)", chart)
        )
        assert t.images["y12"].equals(parse_superfunction("(1)/(y11)", chart))
        assert t.images["y22"].equals(parse_superfunction("(y21)/(y11)", chart))

    def test_reduced_grassmannian_cocycle(self):
        assert check_cocycle(build_super_grassmannian(2, 0, 4, 0)).all_passed

    def test_mixed_grassmannian_cocycle(self):
        assert check_cocycle(build_super_grassmannian(1, 1, 2, 2)).all_passed

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            build_super_grassmannian(0, 0, 2, 2)

    @pytest.mark.parametrize("big_n", [3, 4])
    def test_reduced_pi_grassmannian_is_the_even_one(self, big_n):
        reduced = reduce_atlas(build_pi_grassmannian(2, big_n))
        assert atlas_mismatch(reduced, build_super_grassmannian(2, 0, big_n, 0)) == ""

    @pytest.mark.parametrize("big_n", [5, 6])
    def test_rank_two_cells_share_the_pi_cells_names(self, big_n):
        even_cells = grassmannian_cells(2, 0, big_n, 0)
        pi_cells = pi_grassmannian_cells(2, big_n)
        assert len(even_cells) == len(pi_cells) == comb(big_n, 2)
        for even, pi in zip(even_cells, pi_cells):
            assert even.chart.name == pi.chart.name
            assert even.chart.even_coords == pi.chart.even_coords
            assert even.chart.odd_coords == ()


def _texts(m):
    return [[entry.to_str() for entry in row] for row in m.entries]


class TestTransformedCell:
    @pytest.mark.parametrize(
        "cells",
        [pi_grassmannian_cells(2, 4), grassmannian_cells(1, 1, 2, 2), grassmannian_cells(2, 1, 3, 2)],
        ids=["pi-24", "g-11-22", "g-21-32"],
    )
    def test_matches_block_inverse_times_cell(self, cells):
        # The row reduction against B_IJ^-1 Z_I from the block formula for B_IJ^-1.
        for zi in cells:
            d0, d1, n, _ = zi.shape
            for zj in cells:
                if zj is zi:
                    continue
                cols = [*zj.index_even, *(n + c for c in zj.index_odd)]
                grid = [[row[c] for c in cols] for row in zi.matrix.entries]
                b = SuperMatrix(zi.chart, (d0, d1), (d0, d1), grid)
                expected = schur_inverse(b) * zi.matrix
                assert _texts(transformed_cell(zi, zj)) == _texts(expected), (zi.chart.name, zj.chart.name)

    def test_missing_odd_pivot_is_no_overlap(self):
        # U1 -> U4 of G(1|1; 2|2): B_IJ = [[x, th], [eta, w]] with w set to 0
        # keeps A = x invertible, but D - C A^-1 B = -eta th / x has no body.
        u1, _, _, u4 = grassmannian_cells(1, 1, 2, 2)
        grid = [list(row) for row in u1.matrix.entries]
        assert grid[1][3].parity == "even" and grid[0][1].parity == "even"
        grid[1][3] = SuperFunction.zero(u1.chart)
        matrix = SuperMatrix(u1.chart, u1.matrix.row_shape, u1.matrix.col_shape, grid)
        degenerate = type(u1)(u1.chart, u1.shape, u1.index_even, u1.index_odd, matrix, u1.layout)
        with pytest.raises(CellOverlapError, match="cells do not overlap"):
            transformed_cell(degenerate, u4)


class TestPiSymmetry:
    def test_pi_cells_are_symmetric(self):
        for cell in pi_grassmannian_cells(2, 4):
            assert check_pi_symmetric(cell.matrix)
        assert check_pi_symmetric(pi_projective_cell(2, 0).matrix)

    def test_derived_cells_stay_symmetric(self):
        cells = pi_grassmannian_cells(2, 4)
        w = transformed_cell(cells[0], cells[1])
        assert check_pi_symmetric(w)

    def test_generic_cell_is_not_symmetric(self):
        cell = make_big_cell(
            1, 1, 2, 2, (0,), (0,), "G",
            lambda block, r, mi: f"x{block}{mi}",
            lambda block, r, mi: f"e{block}{mi}",
        )
        assert not check_pi_symmetric(cell.matrix)

    def test_wrong_shape_rejected(self):
        cell = grassmannian_cells(1, 0, 2, 1)[0]
        with pytest.raises(ValueError, match="shape"):
            check_pi_symmetric(cell.matrix)


# The (U1, U2) known answers of G_Pi(2, 4) as the paper states them, layer by
# layer: the reduced rank-2 Grassmannian, the parity-shifted cotangent sheaf
# (degree-1 parts of the odd images) and the cubic term.
G24_REDUCED_U1_U2 = {
    "x12": "(-x11)/(y11)",
    "x22": "(x21) + (-x11*y21)/(y11)",
    "y12": "(1)/(y11)",
    "y22": "(y21)/(y11)",
}
G24_COTANGENT_U1_U2 = {
    "th12": "(-1)/(y11)*[th11] + (x11)/(y11^2)*[xi11]",
    "th22": "(1)*[th21] + (-y21)/(y11)*[th11] + (-x11)/(y11)*[xi21]"
    " + (x11*y21)/(y11^2)*[xi11]",
    "xi12": "(-1)/(y11^2)*[xi11]",
    "xi22": "(1)/(y11)*[xi21] + (-y21)/(y11^2)*[xi11]",
}
G24_CUBIC_TERM = "(-1)/(y11^2)*[th11*xi11*xi21]"


class TestPiGrassmannian24:
    def test_expected_transitions_hold_every_stated_layer(self):
        chart = pi_grassmannian_cells(2, 4)[0].chart
        expected = {
            name: parse_superfunction(text, chart)
            for name, text in G24_EXPECTED_U1_U2.items()
        }
        # A name missing from a layer's table has no part of that degree.
        layers = {
            0: G24_REDUCED_U1_U2,
            1: G24_COTANGENT_U1_U2,
            3: {"th22": G24_CUBIC_TERM},
        }
        for degree, table in layers.items():
            for name, value in expected.items():
                stated = parse_superfunction(table.get(name, "(0)"), chart)
                assert value.degree_part(degree).equals(stated), (degree, name)
        assert set(G24_REDUCED_U1_U2) | set(G24_COTANGENT_U1_U2) == set(expected)

    def test_chart_count(self):
        atlas = build_pi_grassmannian(2, 4)
        assert len(atlas.charts) == 6
        # the cubic odd term is the only correction past degree 2
        assert correction_degrees(atlas) == ({2}, {3})

    def test_unsupported_shapes_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            build_pi_grassmannian(3, 6)
        with pytest.raises(ValueError, match="unsupported"):
            pi_grassmannian_cells(2, 2)

    def test_rank_two_cells_past_four_columns(self, monkeypatch):
        atlas, witnesses = derive_pi_grassmannian(2, 5)
        assert atlas.chart_names() == [f"U{idx}" for idx in range(1, 11)]
        assert atlas.chart("U10").even_coords == (
            "x_1_10", "x_2_10", "x_3_10", "y_1_10", "y_2_10", "y_3_10"
        )
        assert atlas.chart("U9").odd_coords == ("th19", "th29", "th39", "xi19", "xi29", "xi39")
        assert len(witnesses) == 90
        assert all(witness == "" for witness in witnesses.values())
        # a degree-4 even correction appears, which G_Pi(2, 4) does not show
        assert correction_degrees(atlas) == ({2, 4}, {3})
        # one check per orbit: 2 round trips and 4 triples prove all 330
        compositions = []
        compose = atlas_module.compose
        monkeypatch.setattr(
            atlas_module, "compose", lambda *args: compositions.append(args) or compose(*args)
        )
        report = check_cocycle(atlas)
        assert len(compositions) == 6
        assert len(report.checks) == 330 and report.all_passed

    def test_non_overlapping_guard(self):
        # a degenerate template whose selected columns are not invertible
        cells = pi_grassmannian_cells(1, 3)
        broken_rows = [
            [SuperFunction.zero(cells[0].chart) for _ in row]
            for row in cells[0].matrix.entries
        ]
        broken = SuperMatrix(
            cells[0].chart, cells[0].matrix.row_shape, cells[0].matrix.col_shape, broken_rows
        )
        degenerate = type(cells[0])(
            cells[0].chart, cells[0].shape, cells[0].index_even,
            cells[0].index_odd, broken, cells[0].layout,
        )
        with pytest.raises(CellOverlapError):
            derive_transition_from_cells(degenerate, cells[1])


def _with_entries(w, changes):
    """w with changes[(r, c)] added at each listed position."""
    grid = [
        [entry + changes[(r, c)] if (r, c) in changes else entry for c, entry in enumerate(row)]
        for r, row in enumerate(w.entries)
    ]
    return SuperMatrix(w.chart, w.row_shape, w.col_shape, grid)


def _plant_loss(monkeypatch, lost_pair=None):
    """Record the pairs builders.transformed_cell derives, and break
    Pi-symmetry in lost_pair's derived cell for real: 1 is added at the
    second position of the target Pi-template's first name, so the read-off
    (which takes the first position) keeps the true transition.  Without
    lost_pair, only record."""
    pairs = []
    transform = builders.transformed_cell

    def planted(zi, zj):
        pairs.append((zi.chart.name, zj.chart.name))
        w = transform(zi, zj)
        if pairs[-1] != lost_pair:
            return w
        first_name = next(iter(zj.layout.values()))[0]
        second = [pos for pos, (name, _) in zj.layout.items() if name == first_name][1]
        return _with_entries(w, {second: SuperFunction.one(w.chart)})

    monkeypatch.setattr(builders, "transformed_cell", planted)
    return pairs


class TestPiVerdictPlumbing:
    def test_suite_derives_each_pair_once_and_reports_lost_symmetry(self, monkeypatch):
        cells = pi_grassmannian_cells(2, 4)
        x12 = derive_transition_from_cells(cells[0], cells[1]).images["x12"]
        pairs = _plant_loss(monkeypatch, ("U1", "U2"))
        report = suite_pi_grassmannian_24()
        # U1->U2 seeds the orbit of the 24 pairs of cells sharing a column;
        # having lost Pi-symmetry, it seeds no renaming, so the other 23 are
        # derived directly.  The disjoint orbit is derived once, at U1->U6.
        index = {cell.chart.name: set(cell.index_even) for cell in cells}
        ordered = [(i, j) for i in index for j in index if i != j]
        assert pairs == [(i, j) for i, j in ordered if index[i] & index[j] or (i, j) == ("U1", "U6")]
        assert len(set(pairs)) == 25
        pi_checks = [c for c in report.checks if c.identifier.startswith("pi-symmetry/")]
        assert [c.identifier for c in pi_checks] == [f"pi-symmetry/{i}->{j}" for i, j in ordered]
        not_passed = {c.identifier: c.status for c in report.checks if c.status != PASS}
        assert not_passed == {"pi-symmetry/U1->U2": FAIL}
        # The witness is the read-off's disagreement: the first position of
        # x12 against the second, where the plant added 1.
        planted = x12 + SuperFunction.one(x12.chart)
        assert report.find("pi-symmetry/U1->U2").witness == (
            f"inconsistent read-off for 'x12': {x12.to_str()} vs {planted.to_str()}"
        )

    def test_cli_exits_one_on_lost_symmetry(self, monkeypatch, capsys):
        _plant_loss(monkeypatch, ("U1", "U2"))
        assert main(["verify", "pi-grassmannian-24"]) == 1
        captured = capsys.readouterr()
        assert "pi-symmetry/U1->U2" in captured.out and captured.err == ""
        assert "inconsistent read-off for 'x12'" in captured.out

    def test_build_raises_on_lost_symmetry(self, monkeypatch):
        # U0->U1 seeds the one pair orbit of P^2_Pi: every pair is derived.
        pairs = _plant_loss(monkeypatch, ("U0", "U1"))
        with pytest.raises(ValueError, match="U0->U1 lost Pi-symmetry: inconsistent read-off for 'z01'"):
            build_pi_grassmannian(1, 3)
        names = ["U0", "U1", "U2"]
        assert pairs == [(i, j) for i in names for j in names if i != j]

    @pytest.mark.parametrize(
        "generator, chart, odd", [(0, "U1", False), (1, "U2", False), (1, "U6", True)]
    )
    def test_spoilt_renaming_fails_verification(self, monkeypatch, capsys, generator, chart, odd):
        # Two names of one chart swapped in one generator's renaming: the
        # build renames along it, and the checks must refuse the result.
        column_symmetry = builders._column_symmetry
        calls = []

        def spoilt(cells, sigma):
            symmetry = column_symmetry(cells, sigma)
            calls.append(sigma)
            if len(calls) - 1 == generator:
                image, names = symmetry[chart]
                source = next(cell.chart for cell in cells if cell.chart.name == chart)
                a, b = (source.odd_coords if odd else source.even_coords)[:2]
                symmetry[chart] = (image, {**names, a: names[b], b: names[a]})
            return symmetry

        monkeypatch.setattr(builders, "_column_symmetry", spoilt)
        assert main(["verify", "pi-grassmannian-24"]) == 1
        assert "fail    ] cocycle/" in capsys.readouterr().out
        assert len(calls) == 2

    def test_derive_transition_raises_on_disagreement(self, monkeypatch):
        _plant_loss(monkeypatch, ("U1", "U0"))
        cells = pi_grassmannian_cells(1, 3)
        with pytest.raises(ValueError, match="inconsistent read-off for 'z10'"):
            derive_transition_from_cells(cells[1], cells[0])

    def test_broken_unit_column_still_raises(self, monkeypatch):
        transform = builders.transformed_cell

        def broken(zi, zj):
            unit = (0, zj.index_even[0])
            return _with_entries(transform(zi, zj), {unit: SuperFunction.one(zi.chart)})

        monkeypatch.setattr(builders, "transformed_cell", broken)
        with pytest.raises(ValueError, match="column 1 of the transformed cell is not the unit"):
            builders.derive_pi_grassmannian(1, 3)


def _grassmannian(d0, d1, n, m):
    """build_super_grassmannian with its read-offs' disagreements, none by
    its docstring, in the form derive_pi_grassmannian returns."""
    atlas = build_super_grassmannian(d0, d1, n, m)
    return atlas, dict.fromkeys(atlas.pairs(), "")


class TestOrbitDerivation:
    """The cell builders derive one pair per orbit of the column symmetries
    and rename the rest; deriving every pair (oracles.derive_every_pair)
    gives the same atlas, key order and text included."""

    @pytest.mark.parametrize(
        "build, cells",
        [
            *(
                pytest.param(
                    partial(derive_pi_grassmannian, 1, n),
                    partial(pi_grassmannian_cells, 1, n),
                    id=f"pi-grassmannian-1-{n}",
                )
                for n in range(2, 7)
            ),
            *(
                pytest.param(
                    partial(derive_pi_grassmannian, 2, n),
                    partial(pi_grassmannian_cells, 2, n),
                    id=f"pi-grassmannian-2-{n}",
                )
                for n in range(3, 6)
            ),
            *(
                pytest.param(
                    partial(_grassmannian, *shape),
                    partial(grassmannian_cells, *shape),
                    id="grassmannian-{}-{}-{}-{}".format(*shape),
                )
                for shape in [(2, 0, 4, 0), (1, 1, 2, 2), (2, 1, 4, 2), (1, 0, 3, 3)]
            ),
        ],
    )
    def test_matches_deriving_every_pair(self, build, cells):
        atlas, witnesses = build()
        oracle, oracle_witnesses = derive_every_pair(cells())
        assert atlas_mismatch(atlas, oracle) == ""
        assert list(atlas.transitions) == list(oracle.transitions)
        for pair in oracle.pairs():
            built, derived = atlas.transition(*pair).images, oracle.transition(*pair).images
            assert list(built) == list(derived)
            assert [f.to_str() for f in built.values()] == [f.to_str() for f in derived.values()]
        assert list(witnesses.items()) == list(oracle_witnesses.items())

    @pytest.mark.parametrize(
        "build, derivations",
        [
            pytest.param(partial(build_pi_grassmannian, 2, 4), 2, id="pi-grassmannian-2-4"),
            pytest.param(partial(build_pi_grassmannian, 2, 5), 2, id="pi-grassmannian-2-5"),
            pytest.param(partial(build_pi_grassmannian, 1, 4), 1, id="pi-grassmannian-1-4"),
            pytest.param(partial(build_super_grassmannian, 2, 0, 4, 0), 2, id="grassmannian-2-0-4-0"),
            pytest.param(partial(build_super_grassmannian, 1, 1, 2, 2), 3, id="grassmannian-1-1-2-2"),
            pytest.param(partial(build_projective_superspace, 2, 3), 1, id="p-2-3"),
        ],
    )
    def test_one_derivation_per_pair_orbit(self, monkeypatch, build, derivations):
        pairs = _plant_loss(monkeypatch)
        build()
        assert len(pairs) == derivations


def _read_off_verdict(monkeypatch, zi, zj, w):
    """Whether the read-off of (zi, zj) agrees when the derived cell is w."""
    monkeypatch.setattr(builders, "transformed_cell", lambda *_: w)
    return builders._read_off(zi, zj)[1] == ""


class TestReadOffIsPiSymmetry:
    """The read-off's agreement against check_pi_symmetric, the general
    span test, on every derived cell of the exposed Pi-Grassmannians and
    on seeded perturbations of their free entries."""

    @staticmethod
    def _delta(rng, chart, odd):
        names = chart.odd_coords if odd else chart.even_coords
        coord = SuperFunction.coordinate(chart, rng.choice(names))
        return coord.scale(rng.choice([-2, -1, 1, 3]))

    @pytest.mark.parametrize("k, big_n", [(2, 4), (1, 3), (1, 4), (1, 5)])
    def test_verdicts_agree(self, monkeypatch, k, big_n):
        rng = random.Random(1000 * k + big_n)
        cells = pi_grassmannian_cells(k, big_n)
        cases = symmetric = 0
        for zi in cells:
            for zj in cells:
                if zi is zj:
                    continue
                w = transformed_cell(zi, zj)
                odd = lambda pos: (pos[0] >= k) != (pos[1] >= big_n)
                by_name = {}
                for pos, (name, sign) in zj.layout.items():
                    by_name.setdefault(name, []).append((pos, sign))
                candidates = [w]
                # one entry moved: its partner no longer agrees
                for pos in rng.sample(list(zj.layout), 2):
                    candidates.append(_with_entries(w, {pos: self._delta(rng, w.chart, odd(pos))}))
                # both positions of one name moved alike: still Pi-symmetric
                (p1, s1), (p2, s2) = by_name[rng.choice(sorted(by_name))]
                delta = self._delta(rng, w.chart, odd(p1))
                candidates.append(_with_entries(w, {p1: delta.scale(s1), p2: delta.scale(s2)}))
                for candidate in candidates:
                    oracle = check_pi_symmetric(candidate)
                    assert _read_off_verdict(monkeypatch, zi, zj, candidate) == oracle
                    cases += 1
                    symmetric += oracle
        assert cases == 4 * len(cells) * (len(cells) - 1)
        assert symmetric == 2 * len(cells) * (len(cells) - 1)


def _signed(chart, name, sign):
    sf = SuperFunction.coordinate(chart, name)
    return sf if sign > 0 else -sf


def reference_pi_cell(k, big_n, index, chart_name, even_name, odd_name):
    """The Pi-cell grid loop make_pi_cell replaced, kept as a reference."""
    index = tuple(index)
    free = [c for c in range(big_n) if c not in index]
    even_coords = [even_name(r, mi) for r in range(k) for mi in range(len(free))]
    odd_coords = [odd_name(r, mi) for r in range(k) for mi in range(len(free))]
    chart = Chart(chart_name, tuple(even_coords), tuple(odd_coords))
    zero, one = SuperFunction.zero(chart), SuperFunction.one(chart)
    layout, grid = {}, []
    for r in range(k):
        row = []
        for c in range(big_n):
            if c in index:
                row.append(one if index.index(c) == r else zero)
            else:
                layout[(r, c)] = (even_name(r, free.index(c)), 1)
                row.append(_signed(chart, *layout[(r, c)]))
        for c in range(big_n):
            if c in index:
                row.append(zero)
            else:
                layout[(r, big_n + c)] = (odd_name(r, free.index(c)), 1)
                row.append(_signed(chart, *layout[(r, big_n + c)]))
        grid.append(row)
    for r in range(k):
        row = []
        for c in range(big_n):
            if c in index:
                row.append(zero)
            else:
                layout[(k + r, c)] = (odd_name(r, free.index(c)), -1)
                row.append(_signed(chart, *layout[(k + r, c)]))
        for c in range(big_n):
            if c in index:
                row.append(one if index.index(c) == r else zero)
            else:
                layout[(k + r, big_n + c)] = (even_name(r, free.index(c)), 1)
                row.append(_signed(chart, *layout[(k + r, big_n + c)]))
        grid.append(row)
    matrix = SuperMatrix(chart, (k, k), (big_n, big_n), grid)
    return builders.BigCell(chart, (k, k, big_n, big_n), index, index, matrix, layout)


def reference_big_cell(d0, d1, n, m, index_even, index_odd, chart_name, even_name, odd_name):
    """The generic grid loop make_big_cell replaced, kept as a reference."""
    index_even = tuple(index_even)
    index_odd = tuple(index_odd)
    free_even = [c for c in range(n) if c not in index_even]
    free_odd = [c for c in range(m) if c not in index_odd]
    even_coords, odd_coords, names = [], [], {}
    for r in range(d0):
        for mi, c in enumerate(free_even):
            names[("ee", r, c)] = even_name(0, r, mi)
            even_coords.append(names[("ee", r, c)])
    for r in range(d1):
        for mi, c in enumerate(free_odd):
            names[("oo", r, c)] = even_name(1, r, mi)
            even_coords.append(names[("oo", r, c)])
    for r in range(d0):
        for mi, c in enumerate(free_odd):
            names[("eo", r, c)] = odd_name(0, r, mi)
            odd_coords.append(names[("eo", r, c)])
    for r in range(d1):
        for mi, c in enumerate(free_even):
            names[("oe", r, c)] = odd_name(1, r, mi)
            odd_coords.append(names[("oe", r, c)])
    chart = Chart(chart_name, tuple(even_coords), tuple(odd_coords))
    zero, one = SuperFunction.zero(chart), SuperFunction.one(chart)
    layout, grid = {}, []
    for r in range(d0):
        row = []
        for c in range(n):
            if c in index_even:
                row.append(one if index_even.index(c) == r else zero)
            else:
                layout[(r, c)] = (names[("ee", r, c)], 1)
                row.append(_signed(chart, *layout[(r, c)]))
        for c in range(m):
            if c in index_odd:
                row.append(zero)
            else:
                layout[(r, n + c)] = (names[("eo", r, c)], 1)
                row.append(_signed(chart, *layout[(r, n + c)]))
        grid.append(row)
    for r in range(d1):
        row = []
        for c in range(n):
            if c in index_even:
                row.append(zero)
            else:
                layout[(d0 + r, c)] = (names[("oe", r, c)], 1)
                row.append(_signed(chart, *layout[(d0 + r, c)]))
        for c in range(m):
            if c in index_odd:
                row.append(one if index_odd.index(c) == r else zero)
            else:
                layout[(d0 + r, n + c)] = (names[("oo", r, c)], 1)
                row.append(_signed(chart, *layout[(d0 + r, n + c)]))
        grid.append(row)
    matrix = SuperMatrix(chart, (d0, d1), (n, m), grid)
    return builders.BigCell(chart, (d0, d1, n, m), index_even, index_odd, matrix, layout)


def assert_same_cell(cell, reference):
    assert cell.chart == reference.chart
    assert cell.shape == reference.shape
    assert (cell.index_even, cell.index_odd) == (reference.index_even, reference.index_odd)
    assert list(cell.layout.items()) == list(reference.layout.items())
    assert cell.matrix.row_shape == reference.matrix.row_shape
    assert cell.matrix.col_shape == reference.matrix.col_shape
    for row, ref_row in zip(cell.matrix.entries, reference.matrix.entries, strict=True):
        for entry, ref in zip(row, ref_row, strict=True):
            assert entry.to_str() == ref.to_str()


class TestOneGridWalk:
    """make_pi_cell and make_big_cell against the loops they replaced, on
    shapes the golden corpus does not reach."""

    @pytest.mark.parametrize(
        "k, big_n, indices",
        [
            (1, 3, [(0,), (1,), (2,)]),
            (2, 4, list(combinations(range(4), 2))),
            (2, 5, list(combinations(range(5), 2))),
            (3, 6, [(0, 2, 4)]),
        ],
    )
    def test_pi_cells_match_the_reference(self, k, big_n, indices):
        for index in indices:
            args = (k, big_n, index, "U", lambda r, mi: f"x{r}_{mi}", lambda r, mi: f"t{r}_{mi}")
            assert_same_cell(make_pi_cell(*args), reference_pi_cell(*args))

    def test_generic_cells_match_the_reference(self):
        cells = grassmannian_cells(1, 1, 2, 2)
        combos = [(i0, i1) for i0 in combinations(range(2), 1) for i1 in combinations(range(2), 1)]
        assert len(cells) == len(combos) == 4
        for idx, (cell, (i0, i1)) in enumerate(zip(cells, combos), start=1):
            reference = reference_big_cell(
                1, 1, 2, 2, i0, i1, f"U{idx}",
                lambda block, r, mi: f"{'xw'[block]}{r + 1}_{mi + 1}",
                lambda block, r, mi: f"{('et', 'ph')[block]}{r + 1}_{mi + 1}",
            )
            assert_same_cell(cell, reference)

    def test_generic_cell_with_two_rows_of_each_parity(self):
        args = (
            2, 2, 4, 3, (1, 3), (0, 2), "G",
            lambda block, r, mi: f"x{block}{r}{mi}",
            lambda block, r, mi: f"e{block}{r}{mi}",
        )
        assert_same_cell(make_big_cell(*args), reference_big_cell(*args))
