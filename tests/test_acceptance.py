"""Acceptance gate: every guaranteed property at its exact tolerance.

Each criterion prints one ACCEPTANCE line (visible with pytest -s; shown on
failure otherwise) and then asserts.  All comparisons are exact equalities
of rational functions; there are no numeric tolerances to tune.
"""

import random
import time
from fractions import Fraction
from functools import partial

from superpi.atlas import (
    atlas_mismatch,
    check_berezinian_trivial,
    check_cocycle,
    compose,
    super_jacobian,
)
from superpi.builders import (
    build_pi_grassmannian,
    build_pi_projective_closed,
    build_projective_superspace,
    derive_transition_from_cells,
    pi_grassmannian_cells,
)
from superpi.cohomology import (
    TensorSection,
    coboundary_solve,
    cochain_multiple,
    extract_obstruction,
    lifting_verify,
    omega_representative,
)
from superpi.rational import Poly, RatFun
from superpi.report import UNDETERMINED
from superpi.suites import suite_pi_grassmannian_24
from superpi.superalgebra import Chart, SuperFunction, parse_superfunction, substitute
from superpi.supermatrix import SuperMatrix, berezinian, even_det, grid_mul, smat_inverse

from conftest import (
    random_invertible_supermatrix,
    random_superfunction,
    random_transition,
)
from oracles import blocks, coboundary_of, grid_sub, jacobian_chain_product, map_entries, pull_back


def record(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed {suffix}"


def test_criterion_1_pi_line_transitions():
    start = time.monotonic()
    cells = pi_grassmannian_cells(1, 2)
    t01 = derive_transition_from_cells(cells[0], cells[1])
    chart = cells[0].chart
    ok = t01.images["z01"].equals(parse_superfunction("(1)/(z10)", chart))
    ok = ok and t01.images["th01"].equals(
        parse_superfunction("(-1)/(z10^2)*[th10]", chart)
    )
    elapsed = time.monotonic() - start
    record("pi-line-transitions", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_closed_form_transitions():
    start = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        closed = build_pi_projective_closed(n)
        ok = ok and not atlas_mismatch(build_pi_grassmannian(1, n + 1), closed)
        ok = ok and check_cocycle(closed).all_passed
    elapsed = time.monotonic() - start
    record("closed-form-vs-derived", ok and elapsed < 30.0, f"{elapsed:.2f}s")


def _expected_jacobian_entry(chart, text):
    return parse_superfunction(text, chart)


def test_criterion_3_jacobian_blocks():
    ok = True
    for n in (2, 3):
        atlas = build_pi_projective_closed(n)
        t10 = atlas.transition("U0", "U1")
        chart = atlas.chart("U0")
        jac = super_jacobian(t10)
        e = lambda text: _expected_jacobian_entry(chart, text)
        rows = 1 + (n - 1)
        # A block: first row (-1/z10^2, 0, ...), then rows for k = 2..n.
        ok = ok and jac.entries[0][0].equals(e("(-1)/(z10^2)"))
        for c in range(1, n):
            ok = ok and jac.entries[0][c].is_zero
        for c in range(n):
            ok = ok and jac.entries[0][n + c].is_zero
        for r, k in enumerate(range(2, n + 1), start=1):
            ok = ok and jac.entries[r][0].equals(
                e(f"(-z{k}0)/(z10^2) + (-2)/(z10^3)*[th10*th{k}0]")
            )
            for c, kc in enumerate(range(2, n + 1), start=1):
                expected = e("(1)/(z10)") if kc == k else e("(0)")
                ok = ok and jac.entries[r][c].equals(expected)
            # B block entries of the same row
            ok = ok and jac.entries[r][n].equals(e(f"(1)/(z10^2)*[th{k}0]"))
            for c, kc in enumerate(range(2, n + 1), start=1):
                expected = e("(-1)/(z10^2)*[th10]") if kc == k else e("(0)")
                ok = ok and jac.entries[r][n + c].equals(expected)
        # C and D blocks: rows th01, th_k1.
        ok = ok and jac.entries[rows][0].equals(e("(2)/(z10^3)*[th10]"))
        ok = ok and jac.entries[rows][n].equals(e("(-1)/(z10^2)"))
        for c in range(1, n):
            ok = ok and jac.entries[rows][c].is_zero
            ok = ok and jac.entries[rows][n + c].is_zero
        for r, k in enumerate(range(2, n + 1), start=rows + 1):
            ok = ok and jac.entries[r][0].equals(
                e(f"(-1)/(z10^2)*[th{k}0] + (2*z{k}0)/(z10^3)*[th10]")
            )
            for c, kc in enumerate(range(2, n + 1), start=1):
                expected = e("(-1)/(z10^2)*[th10]") if kc == k else e("(0)")
                ok = ok and jac.entries[r][c].equals(expected)
            ok = ok and jac.entries[r][n].equals(e(f"(-z{k}0)/(z10^2)"))
            for c, kc in enumerate(range(2, n + 1), start=1):
                expected = e("(1)/(z10)") if kc == k else e("(0)")
                ok = ok and jac.entries[r][n + c].equals(expected)
        # determinants and the Berezinian
        det_a = even_det(jac.block_a())
        ok = ok and det_a.equals(e(f"(-1)/(z10^{n + 1})"))
        a_inv = smat_inverse(SuperMatrix(chart, (n, 0), (n, 0), jac.block_a())).entries
        _, b, c, d = blocks(jac)
        schur = grid_sub(d, grid_mul(grid_mul(c, a_inv, chart), b, chart))
        det_schur_inv = even_det(schur).invert()
        ok = ok and det_schur_inv.equals(e(f"(-z10^{n + 1})"))
        # the Schur complement itself: lower triangular with the theta-theta
        # corrections confined to the first column (coefficient +1/z10^3,
        # forced by (C A^-1 B)[k][0] = -th10 th_k0 / z10^3)
        ok = ok and schur[0][0].equals(e("(-1)/(z10^2)"))
        for r, k in enumerate(range(2, n + 1), start=1):
            ok = ok and schur[r][0].equals(
                e(f"(-z{k}0)/(z10^2) + (1)/(z10^3)*[th10*th{k}0]")
            )
            for c, kc in enumerate(range(2, n + 1), start=1):
                expected = e("(1)/(z10)") if kc == k else e("(0)")
                ok = ok and schur[r][c].equals(expected)
        ok = ok and berezinian(jac).equals(SuperFunction.one(chart))
    record("jacobian-blocks", ok)


def berezinian_report(atlas):
    return check_berezinian_trivial(atlas, check_cocycle(atlas))


def test_criterion_4_berezinian_triviality():
    ok = True
    for n in (1, 2, 3):
        report = berezinian_report(build_pi_projective_closed(n))
        ok = ok and report.find("verdict").witness == "trivial (exact)"
        ok = ok and all(
            c.witness == "Ber = 1" for c in report.checks if c.identifier.startswith("pair/")
        )
    control = berezinian_report(build_projective_superspace(1, 1))
    ok = ok and control.find("verdict").status == UNDETERMINED
    ok = ok and control.find("verdict").witness == "undetermined"
    for n, m in ((1, 2), (2, 3)):
        report = berezinian_report(build_projective_superspace(n, m))
        ok = ok and report.find("verdict").witness == "trivial (constant cocycle)"
    record("berezinian-triviality", ok)


def test_criterion_4_optional_n4():
    report = berezinian_report(build_pi_projective_closed(4))
    record("berezinian-triviality-n4", report.find("verdict").witness == "trivial (exact)")


def test_criterion_5_lifting_identities():
    ok = True
    for n in (2, 3):
        report = lifting_verify(n)
        ok = ok and report.all_passed
    record("lifting-identities", ok)


def test_criterion_6_obstruction_extraction():
    ok = True
    for n in (2, 3):
        extracted = extract_obstruction(build_pi_projective_closed(n))
        ok = ok and cochain_multiple(extracted, omega_representative(n)) == 1
    for n, m in ((2, 2), (2, 3)):
        ok = ok and extract_obstruction(build_projective_superspace(n, m)).is_zero()
    record("obstruction-extraction", ok, "lambda = 1")


def test_criterion_7_nontriviality_evidence():
    infeasible = coboundary_solve(omega_representative(2), 3) is None
    rng = random.Random(99)
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
    recovered = solution is not None and coboundary_of(atlas, solution).equals(cochain)
    record("nontriviality-evidence", infeasible and recovered)


def test_criterion_8_pi_grassmannian_24():
    report = suite_pi_grassmannian_24()
    prefix_ok = {
        "transitions": True,
        "cotangent-layer": True,
        "cubic-term": True,
        "reduced": True,
    }
    for check in report.checks:
        head = check.identifier.split("/")[0]
        if head in prefix_ok and check.status != "pass":
            prefix_ok[head] = False
    ok = all(prefix_ok.values()) and report.all_passed
    record("pi-grassmannian-24", ok)


def _chart_pair():
    a = Chart("A", ("a1", "a2"), ("p1", "p2"))
    b = Chart("B", ("b1", "b2"), ("q1", "q2"))
    c = Chart("C", ("c1", "c2"), ("r1", "r2"))
    return a, b, c


def test_criterion_9_property_suites():
    cases = 110
    chartq = Chart("Q", ("z1", "z2"), ("t1", "t2", "t3", "t4"))

    rng = random.Random(101)
    for _ in range(cases):
        pf = rng.choice(("even", "odd"))
        pg = rng.choice(("even", "odd"))
        f = random_superfunction(rng, chartq, parity=pf)
        g = random_superfunction(rng, chartq, parity=pg)
        sign = -1 if pf == "odd" and pg == "odd" else 1
        assert (f * g).equals((g * f).scale(sign))

    rng = random.Random(102)
    for _ in range(cases):
        f = random_superfunction(rng, chartq, parity="even", invertible=True)
        assert (f * f.invert()).equals(SuperFunction.one(chartq))

    rng = random.Random(103)
    a, b, _ = _chart_pair()
    t = random_transition(rng, a, b)
    for _ in range(cases):
        f = random_superfunction(rng, b, max_components=2)
        g = random_superfunction(rng, b, max_components=2)
        assert substitute(f + g, t.images).equals(
            substitute(f, t.images) + substitute(g, t.images)
        )
        assert substitute(f * g, t.images).equals(
            substitute(f, t.images) * substitute(g, t.images)
        )

    rng = random.Random(104)
    for _ in range(cases):
        parity = rng.choice(("even", "odd"))
        f = random_superfunction(rng, chartq, parity=parity)
        g = random_superfunction(rng, chartq)
        theta = rng.choice(chartq.odd_coords)
        sign = 1 if parity == "even" else -1
        lhs = (f * g).derive(theta)
        rhs = f.derive(theta) * g + (f * g.derive(theta)).scale(sign)
        assert lhs.equals(rhs)

    rng = random.Random(105)
    chartm = Chart("M", ("z", "w"), ("s", "t"))
    for i in range(cases):
        p, q = (1, 1) if i % 3 else (2, 2)
        m = random_invertible_supermatrix(rng, chartm, p, q)
        n = random_invertible_supermatrix(rng, chartm, p, q)
        assert berezinian(m * n).equals(berezinian(m) * berezinian(n))

    rng = random.Random(106)
    a, b, c = _chart_pair()
    for _ in range(cases):
        t1 = random_transition(rng, a, b)
        t2 = random_transition(rng, b, c)
        direct = super_jacobian(compose(t2, t1))
        pulled = map_entries(super_jacobian(t2), partial(pull_back, t1))
        chained = jacobian_chain_product(super_jacobian(t1), pulled)
        assert direct.equals(chained)

    record("property-suites", True, f"{cases} cases per property")
