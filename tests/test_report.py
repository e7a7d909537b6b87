"""Reports: check records, deterministic rendering and the comparison rule."""

import json

import pytest

from superpi import builders, suites
from superpi.cohomology import (
    HomogeneousSection,
    TensorSection,
    check_cech_cocycle,
    lifting_verify,
    omega_representative,
)
from superpi.report import FAIL, PASS, UNDETERMINED, CheckResult, VerificationReport, mismatch
from superpi.superalgebra import Chart, SuperFunction, parse_superfunction

CHART = Chart("U0", ("z10",), ("th10",))


def sf(text):
    return parse_superfunction(text, CHART)


class TestCheckResult:
    def test_unknown_status_raises(self):
        with pytest.raises(ValueError, match="unknown status 'ok'"):
            CheckResult("a", "ok")

    def test_failure_without_witness_raises(self):
        with pytest.raises(ValueError, match="failing check 'a' needs a witness"):
            CheckResult("a", FAIL)
        report = VerificationReport("s")
        with pytest.raises(ValueError):
            report.add("a", FAIL)


class TestRendering:
    def report(self):
        report = VerificationReport("demo")
        report.add("b/second", FAIL, "broken")
        report.add("a/first", PASS)
        report.add("c/third", UNDETERMINED, "no bound")
        report.add("a/zero", PASS, "lambda = 1")
        return report

    def test_text_sorted_by_id_with_counts(self):
        assert self.report().to_text().splitlines() == [
            "suite: demo",
            f"  [{PASS:^12}] a/first",
            f"  [{PASS:^12}] a/zero  :: lambda = 1",
            f"  [{FAIL:^12}] b/second  :: broken",
            f"  [{UNDETERMINED:^12}] c/third  :: no bound",
            "summary: 2 pass, 1 fail, 1 undetermined",
        ]

    def test_json_sorted_by_id_with_counts(self):
        payload = json.loads(self.report().to_json())
        assert payload["suite"] == "demo"
        assert [c["id"] for c in payload["checks"]] == ["a/first", "a/zero", "b/second", "c/third"]
        assert payload["checks"][2] == {"id": "b/second", "status": FAIL, "witness": "broken"}
        assert payload["summary"] == {PASS: 2, FAIL: 1, UNDETERMINED: 1}


class TestComparisonRule:
    def test_equal_values_pass_without_witness(self):
        a, b = sf("(1)/(z10)*[th10]"), sf("(z10)/(z10^2)*[th10]")
        assert mismatch(a, b) == ""
        report = VerificationReport("s")
        report.add_equal("same", a, b)
        assert (report.find("same").status, report.find("same").witness) == (PASS, "")

    def test_unequal_values_fail_with_their_difference(self):
        a, b = sf("(1)/(z10)*[th10]"), sf("(1)")
        assert mismatch(a, b) == "difference (-1) + (1)/(z10)*[th10]"
        report = VerificationReport("s")
        report.add_equal("differs", a, b)
        check = report.find("differs")
        assert (check.status, check.witness) == (FAIL, mismatch(a, b))


class TestWitnessVerdict:
    def test_empty_witness_passes_and_any_other_fails_with_it(self):
        report = VerificationReport("s")
        report.add_witness("same", "")
        report.add_witness("differs", "difference (1)")
        assert [(c.identifier, c.status, c.witness) for c in report.checks] == [
            ("same", PASS, ""),
            ("differs", FAIL, "difference (1)"),
        ]


class TestWitnessesOnlyOnFailure:
    def test_passing_runs_print_nothing(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a passing check built a witness")

        for cls in (SuperFunction, TensorSection, HomogeneousSection):
            monkeypatch.setattr(cls, "to_str", refuse)
        assert suites.suite_pi_grassmannian_24().all_passed
        assert lifting_verify(3).all_passed
        assert check_cech_cocycle(omega_representative(3)).all_passed


class TestFailureWitnesses:
    def test_cells_match_closed_names_pair_and_coordinate(self, monkeypatch):
        monkeypatch.setattr(
            suites, "build_pi_projective_closed", lambda n: builders.build_pi_projective_closed(n, 2)
        )
        check = suites.suite_pi_projective(2).find("derivation/cells-match-closed")
        assert check.status == FAIL
        assert check.witness == (
            "transition U0->U1: coordinate z21: difference (-1)/(z10^2)*[th10*th20]"
        )

    def test_perturbed_cubic_term_fails_exactly_its_checks(self, monkeypatch):
        text = suites.G24_EXPECTED_U1_U2["th22"]
        cubic = "(-1)/(y11^2)*[th11*xi11*xi21]"
        assert cubic in text
        perturbed = text.replace(cubic, "(-2)/(y11^2)*[th11*xi11*xi21]")
        monkeypatch.setitem(suites.G24_EXPECTED_U1_U2, "th22", perturbed)
        report = suites.suite_pi_grassmannian_24()
        failing = {c.identifier: c.witness for c in report.checks if c.status != PASS}
        witness = "difference (1)/(y11^2)*[th11*xi11*xi21]"
        assert failing == {
            "transitions/U1->U2/th22": witness,
            "cubic-term/U1->U2/th22": witness,
        }
