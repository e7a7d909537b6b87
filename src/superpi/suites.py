"""Named verification suites combining the module-level checks.

Each suite returns a VerificationReport whose checks assert the expected
outcome for the family under test (a cocycle failure, a wrong Berezinian,
a missing correction term and so on all turn into failing checks), so the
CLI exit status can mirror the report.
"""

from __future__ import annotations

from math import comb

from .atlas import (
    atlas_mismatch,
    check_berezinian_trivial,
    check_cocycle,
    correction_degrees,
)
from .builders import (
    build_pi_grassmannian,
    build_pi_projective_closed,
    build_projective_superspace,
    build_super_grassmannian,
    derive_pi_grassmannian,
    grassmannian_cells,
)
from .cohomology import (
    check_cech_cocycle,
    cochain_multiple,
    coboundary_refute,
    extract_obstruction,
    lifting_verify,
    omega_representative,
)
from .report import FAIL, PASS, VerificationReport
from .superalgebra import parse_superfunction

# Expected change of coordinates between the first two cells of the rank-2
# Pi-Grassmannian on a 4|4 space, written on the source chart U1.  Its
# degree-0 parts are the reduced rank-2 Grassmannian, the degree-1 parts of
# the odd images are the transitions of the parity-shifted cotangent sheaf,
# and the one degree-3 part (in th22) is the cubic term.
G24_EXPECTED_U1_U2 = {
    "x12": "(-x11)/(y11) + (-1)/(y11^2)*[th11*xi11]",
    "x22": "(x21) + (-x11*y21)/(y11) + (1)/(y11)*[th11*xi21]"
    " + (-y21)/(y11^2)*[th11*xi11] + (-x11)/(y11^2)*[xi11*xi21]",
    "y12": "(1)/(y11)",
    "y22": "(y21)/(y11) + (1)/(y11^2)*[xi11*xi21]",
    "th12": "(-1)/(y11)*[th11] + (x11)/(y11^2)*[xi11]",
    "th22": "(1)*[th21] + (-y21)/(y11)*[th11] + (-x11)/(y11)*[xi21]"
    " + (x11*y21)/(y11^2)*[xi11] + (-1)/(y11^2)*[th11*xi11*xi21]",
    "xi12": "(-1)/(y11^2)*[xi11]",
    "xi22": "(1)/(y11)*[xi21] + (-y21)/(y11^2)*[xi11]",
}

def suite_pi_projective(n: int) -> VerificationReport:
    """Gluing, Berezinian triviality and obstruction checks for one space."""
    report = VerificationReport(f"pi-projective n={n}")
    atlas = build_pi_projective_closed(n)
    cocycle = check_cocycle(atlas)
    report.merge(cocycle, prefix="cocycle/")

    ber = check_berezinian_trivial(atlas, cocycle)
    report.merge(ber, prefix="berezinian/")
    verdict = ber.find("verdict")
    report.add_bool(
        "berezinian/expected-trivial-exact",
        verdict.witness == "trivial (exact)",
        f"verdict was {verdict.witness!r}",
    )

    report.add_witness(
        "derivation/cells-match-closed", atlas_mismatch(build_pi_grassmannian(1, n + 1), atlas)
    )

    even, odd = correction_degrees(atlas)
    if n == 1:
        report.add_bool(
            "classification/split",
            not even and not odd,
            "expected a split atlas at n=1",
        )
        extracted = extract_obstruction(atlas)
        report.add_bool(
            "obstruction/zero",
            extracted.is_zero(),
            "nonzero obstruction cochain on a split atlas",
        )
    else:
        report.add_bool(
            "classification/nonprojected-evidence",
            even == {2},
            f"even correction degrees {sorted(even)}",
        )
        extracted = extract_obstruction(atlas)
        lam = cochain_multiple(extracted, omega_representative(n))
        report.add("obstruction/lambda", PASS if lam == 1 else FAIL, f"lambda = {lam}")
    return report


def suite_projective_superspace(n: int, m: int) -> VerificationReport:
    """Gluing and classification for the split model; Berezinian reported."""
    report = VerificationReport(f"projective-superspace n={n} m={m}")
    atlas = build_projective_superspace(n, m)
    cocycle = check_cocycle(atlas)
    report.merge(cocycle, prefix="cocycle/")
    even, odd = correction_degrees(atlas)
    report.add_bool(
        "classification/projected",
        not even,
        "unexpected nilpotent corrections in even transitions",
    )
    report.add_bool(
        "classification/split",
        not even and not odd,
        "odd transitions are not purely linear",
    )
    verdict = check_berezinian_trivial(atlas, cocycle).find("verdict")
    report.add("berezinian/verdict", PASS, verdict.witness)
    extracted = extract_obstruction(atlas)
    report.add_bool(
        "obstruction/zero",
        extracted.is_zero(),
        "nonzero obstruction cochain on a projected atlas",
    )
    return report


def suite_grassmannian(d0: int, d1: int, n: int, m: int) -> VerificationReport:
    """Cell count and gluing for a derived super Grassmannian atlas."""
    report = VerificationReport(f"grassmannian ({d0}|{d1}; {n}|{m})")
    cells = grassmannian_cells(d0, d1, n, m)
    expected = comb(n, d0) * comb(m, d1)
    report.add_bool(
        "cells/count",
        len(cells) == expected,
        f"{len(cells)} cells, expected {expected}",
    )
    atlas = build_super_grassmannian(d0, d1, n, m)
    report.merge(check_cocycle(atlas), prefix="cocycle/")
    return report


def suite_pi_grassmannian_24() -> VerificationReport:
    """Full verification of the rank-2 Pi-Grassmannian on a 4|4 space."""
    report = VerificationReport("pi-grassmannian (2, 4)")
    atlas, pi_witnesses = derive_pi_grassmannian(2, 4)
    count = len(atlas.charts)
    report.add_bool("cells/count", count == 6, f"{count} cells, expected 6")
    for (i, j), witness in pi_witnesses.items():
        report.add_witness(f"pi-symmetry/{i}->{j}", witness)
    report.merge(check_cocycle(atlas), prefix="cocycle/")

    t12 = atlas.transition("U1", "U2")
    chart1 = atlas.chart("U1")
    expected = {
        name: parse_superfunction(text, chart1)
        for name, text in G24_EXPECTED_U1_U2.items()
    }
    # (layer, degree part compared or None for the whole image, coordinates);
    # an expected cubic term that is zero is checked as "<name>-absent".
    layers = [
        ("transitions", None, sorted(expected)),
        ("reduced", 0, sorted(t12.target.even_coords)),
        ("cotangent-layer", 1, sorted(t12.target.odd_coords)),
        ("cubic-term", 3, sorted(t12.target.odd_coords)),
    ]
    for layer, degree, names in layers:
        for name in names:
            actual, wanted = t12.images[name], expected[name]
            if degree is not None:
                actual, wanted = actual.degree_part(degree), wanted.degree_part(degree)
            absent = "-absent" if layer == "cubic-term" and wanted.is_zero else ""
            report.add_equal(f"{layer}/U1->U2/{name}{absent}", actual, wanted)
    return report


def suite_lifting(n: int) -> VerificationReport:
    return lifting_verify(n)


def suite_obstruction(n: int, degree_bound: int) -> VerificationReport:
    """Representative cocycle, extraction and bounded nontriviality evidence."""
    report = VerificationReport(f"obstruction n={n} degree-bound={degree_bound}")
    omega = omega_representative(n)
    report.merge(check_cech_cocycle(omega), prefix="cocycle/")
    extracted = extract_obstruction(build_pi_projective_closed(n))
    lam = cochain_multiple(extracted, omega)
    report.add("extraction/lambda", PASS if lam == 1 else FAIL, f"lambda = {lam}")
    report.merge(coboundary_refute(omega, degree_bound))
    return report
