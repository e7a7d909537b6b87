"""Sanity checks of the benchmark harness on counts known in advance.

Run from the repository root (about three minutes on two cores):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import cache

import run
from layers import COUNTERS
from workloads import WORKLOADS


def bench(workload: str, seed: int, trace: int, seconds: int = 1) -> tuple[dict, dict]:
    """The record and the summary line of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    record, summary = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert summary["correct"], record["problems"]
    assert summary["failed"] == 0 and summary["attempted"] > 0
    return record, {name: m["value"] for name, m in summary["metrics"].items()}


@cache
def traced(workload: str, seed: int) -> tuple[dict, dict]:
    return bench(workload, seed, trace=1)


def exact(metrics: dict) -> dict:
    """The metrics that must repeat exactly: counts, not times."""
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in COUNTERS}


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["pi-grassmannian-24", "desk-battery"]
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_gate_rejects_wrong_reports():
    workload = WORKLOADS["obstruction-n3"]
    calls = [list(workload.calls[0])]

    def report(status="pass", ids=("extraction/lambda", "refutation/degree-3")):
        checks = [{"id": cid, "status": status, "witness": ""} for cid in ids]
        return json.dumps({"checks": checks})

    reference: dict[str, str] = {}
    assert run.gate(workload, calls, {"reports": [[0, report()]]}, reference) == (2, [])
    for code, text in [
        (1, report()),
        (0, report(status="fail")),
        (0, report(ids=("extraction/lambda",))),
        (0, report() + " "),
        (0, "not json"),
    ]:
        _, problems = run.gate(workload, calls, {"reports": [[code, text]]}, reference)
        assert problems, (code, text)
    assert run.gate(workload, calls, None, reference)[1]


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-battery",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_obstruction_n3_system_shape():
    _, metrics = traced("obstruction-n3", 0)
    assert metrics["rational.solve_fraction_system.calls"] == 1
    assert metrics["rational.solve_fraction_system.rows"] == 2934
    assert metrics["rational.solve_fraction_system.cols"] == 720
    assert metrics["rational.solve_fraction_system.nnz"] == 4080


def test_pi_grassmannian_24_call_counts():
    _, metrics = traced("pi-grassmannian-24", 0)
    assert metrics["atlas.compose.calls"] == 70
    assert metrics["builders.transformed_cell.calls"] == 90
    assert metrics["trace.overhead_ratio"] > 0


def test_traced_counters_repeat():
    first = exact(traced("desk-battery", 5)[1])
    second = exact(bench("desk-battery", 5, trace=1)[1])
    assert first == second
    assert first["supermatrix.berezinian.calls"] > 0
    assert first["cohomology.lifting_verify.calls"] == 2


def test_reports_identical_across_seeds():
    record, _ = traced("desk-battery", 5)
    other, _ = bench("desk-battery", 6, trace=0)
    assert record["calls"] != other["calls"]
    assert record["report_sha256"] == other["report_sha256"]
