"""Smoke tests of the scripts under scripts/, each run as a user runs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from superpi.builders import pi_grassmannian_cells
from superpi.cli import DESK
from superpi.suites import G24_EXPECTED_U1_U2
from superpi.superalgebra import parse_superfunction

ROOT = Path(__file__).resolve().parent.parent


def run_script(name):
    """`python scripts/<name>` with PYTHONPATH=src, from the repository root."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def desk_run():
    """One run of run_all_checks.py, shared by the tests that read it."""
    return run_script("run_all_checks.py")


def test_run_all_checks_passes(desk_run):
    assert desk_run.returncode == 0, desk_run.stdout + desk_run.stderr
    assert "FAILED" not in desk_run.stdout


def test_run_all_checks_prints_one_status_line_per_desk_call(desk_run):
    lines = desk_run.stdout.splitlines()
    assert len(lines) == len(DESK), desk_run.stdout
    for line, argv in zip(lines, DESK):
        assert line.startswith(" ".join(argv) + " "), line


def test_show_pi_grassmannian_24_prints_the_cubic_term():
    done = run_script("show_pi_grassmannian_24.py")
    assert done.returncode == 0, done.stderr
    prefix = "cubic correction in th22: "
    (line,) = [line for line in done.stdout.splitlines() if line.startswith(prefix)]
    chart = pi_grassmannian_cells(2, 4)[0].chart
    expected = parse_superfunction(G24_EXPECTED_U1_U2["th22"], chart).degree_part(3)
    assert parse_superfunction(line.removeprefix(prefix), chart).equals(expected)
    assert not expected.is_zero
