"""Command-line interface: suites, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from superpi import suites
from superpi.cli import DESK, FAMILIES, SUITES, build_arg_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(argv):
    """`python -m superpi argv` in a fresh interpreter that imports from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "superpi", *argv], env=env, capture_output=True, timeout=120
    )


class TestVerify:
    def test_pi_projective_text(self, capsys):
        code = main(["verify", "pi-projective", "--n", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite: pi-projective n=1" in out
        assert "summary:" in out

    def test_pi_projective_json(self, capsys):
        code = main(["verify", "pi-projective", "--n", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "pi-projective n=2"
        assert payload["summary"]["fail"] == 0
        ids = [c["id"] for c in payload["checks"]]
        assert ids == sorted(ids)
        lam = [c for c in payload["checks"] if c["id"] == "obstruction/lambda"]
        assert lam and lam[0]["witness"] == "lambda = 1"

    def test_json_determinism(self, capsys):
        main(["verify", "obstruction", "--n", "2", "--degree-bound", "2", "--format", "json"])
        first = capsys.readouterr().out
        main(["verify", "obstruction", "--n", "2", "--degree-bound", "2", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(
            ["verify", "lifting", "--n", "2", "--format", "json", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text())
        assert payload["summary"]["fail"] == 0

    def test_out_file_text(self, tmp_path):
        target = tmp_path / "report.txt"
        code = main(["verify", "lifting", "--n", "2", "--out", str(target)])
        assert code == 0
        assert "suite: lifting" in target.read_text()

    def test_dump_requires_dimensions(self):
        with pytest.raises(SystemExit) as exc:
            main(["dump", "atlas", "--family", "grassmannian"])
        assert exc.value.code == 2

    def test_superline_suite_passes_with_verdict(self, capsys):
        code = main(["verify", "projective-superspace", "--n", "1", "--m", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "berezinian/verdict" in out

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        from superpi.report import VerificationReport

        def broken(n):
            report = VerificationReport("pi-projective n=1")
            report.add("forced", "fail", "synthetic failure")
            return report

        monkeypatch.setattr(suites, "suite_pi_projective", broken)
        code = main(["verify", "pi-projective", "--n", "1"])
        assert code == 1
        assert "synthetic failure" in capsys.readouterr().out

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "pi-projective"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_negative_degree_bound_exits_two(self, capsys):
        code = main(["verify", "obstruction", "--n", "2", "--degree-bound", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "degree bound must be >= 0, got -1" in captured.err

    def test_unwritable_out_path_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.txt"
        code = main(["verify", "pi-projective", "--n", "1", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("superpi: error: ")
        assert not target.parent.exists()

    def test_oversized_obstruction_system_exits_two(self, capsys, monkeypatch):
        from superpi import cohomology

        monkeypatch.setattr(cohomology, "MAX_DENSE_ENTRIES", 100)
        code = main(["verify", "obstruction", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "coboundary system of at least 45 x 60 exceeds 100 entries" in captured.err

    def test_pi_projective_past_nine(self, capsys):
        code = main(["verify", "pi-projective", "--n", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[    pass    ] derivation/cells-match-closed\n" in out
        assert out.endswith(" 0 fail, 0 undetermined\n")

    def test_internal_error_exits_two(self, capsys):
        code = main(["verify", "lifting", "--n", "9"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestDump:
    def test_dump_atlas(self, capsys):
        code = main(["dump", "atlas", "--family", "pi-projective", "--n", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chart U0" in out
        assert "z01 = (1)/(z10)" in out
        assert "th01 = (-1)/(z10^2)*[th10]" in out

    def test_dump_transitions_filter(self, capsys):
        code = main(
            [
                "dump",
                "transitions",
                "--family",
                "projective-superspace",
                "--n",
                "1",
                "--m",
                "1",
                "--source",
                "U0",
                "--target",
                "U1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "transition U0 -> U1:" in out
        assert "transition U1 -> U0:" not in out

    def test_dump_round_trips_through_parser(self, capsys):
        from superpi.builders import build_pi_projective_closed
        from superpi.superalgebra import parse_superfunction

        main(["dump", "transitions", "--family", "pi-projective", "--n", "2",
              "--source", "U0", "--target", "U1"])
        out = capsys.readouterr().out
        atlas = build_pi_projective_closed(2)
        chart = atlas.chart("U0")
        t = atlas.transition("U0", "U1")
        for line in out.splitlines():
            line = line.strip()
            if "=" not in line or line.startswith("transition"):
                continue
            name, text = (part.strip() for part in line.split("=", 1))
            assert parse_superfunction(text, chart).equals(t.images[name])

    def test_dump_lists_pairs_in_atlas_order(self, capsys):
        code = main(["dump", "transitions", "--family", "pi-projective", "--n", "10",
                     "--source", "U0"])
        out = capsys.readouterr().out
        assert code == 0
        headers = [line for line in out.splitlines() if line.startswith("transition")]
        assert headers == [f"transition U0 -> U{j}:" for j in range(1, 11)]

    def test_dump_missing_pair(self, capsys):
        code = main(
            ["dump", "transitions", "--family", "pi-projective", "--n", "1",
             "--source", "U0", "--target", "U7"]
        )
        assert code == 2


# Every dump family's missing-option message, as the command line prints it.
DUMP_USAGE = [
    ("pi-projective", [], "--n is required for pi-projective"),
    ("projective-superspace", ["--m", "1"], "--n is required for projective-superspace"),
    ("grassmannian", [], "--d0/--d1/--vn/--vm are required for grassmannian"),
    ("grassmannian", ["--d0", "1", "--vm", "2"], "--d0/--d1/--vn/--vm are required for grassmannian"),
]


class TestTables:
    def test_usage_cases_cover_every_family_with_required_options(self):
        families = {family for family, _, _ in DUMP_USAGE}
        assert families == {family for family, (required, _) in FAMILIES.items() if required}

    @pytest.mark.parametrize("what", ["atlas", "transitions"])
    @pytest.mark.parametrize("family, given, message", DUMP_USAGE)
    def test_dump_without_required_options_exits_two(self, family, given, message, what, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dump", what, "--family", family, *given])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"superpi: error: {message}\n")

    @pytest.mark.parametrize(
        "suite, missing",
        [(suite, name) for suite, (_, options) in SUITES.items()
         for name, default in options if default is None],
    )
    def test_verify_without_a_required_option_exits_two(self, suite, missing, capsys):
        _, options = SUITES[suite]
        given = [arg for name, default in options if default is None and name != missing
                 for arg in (f"--{name}", "1")]
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, *given])
        assert exc.value.code == 2
        assert f"the following arguments are required: --{missing}" in capsys.readouterr().err

    def test_every_suite_has_a_golden_call(self):
        from test_golden import CALLS

        covered = {argv[1] for argv in CALLS if argv[0] == "verify"}
        assert set(SUITES) <= covered

    def test_desk_runs_every_suite(self):
        assert {argv[0] for argv in DESK} == set(SUITES)

    @pytest.mark.parametrize("argv", DESK, ids=" ".join)
    def test_desk_call_parses(self, argv):
        args = build_arg_parser().parse_args(["verify", *argv])
        assert (args.command, args.suite) == ("verify", argv[0])

    @pytest.mark.parametrize("suite", SUITES)
    def test_suite_name_resolves_to_a_suite_function(self, suite):
        assert callable(getattr(suites, "suite_" + suite.replace("-", "_"), None))


class TestModuleEntryPoint:
    def test_python_m_superpi_prints_what_main_prints(self, capsys):
        argv = ["verify", "pi-projective", "--n", "1", "--format", "json"]
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode("utf-8")
        done = run_module(argv)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected

    def test_python_m_superpi_exits_with_the_usage_code(self):
        done = run_module(["verify", "pi-projective"])
        assert done.returncode == 2
        assert b"--n" in done.stderr
