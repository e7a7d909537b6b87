"""Benchmark of the `superpi verify` path, timed from outside the engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from its
`src/` directory, and bytecode is cached under `.bench_build/`.

Every sample is a fresh interpreter (see sample.py) that runs the
workload's CLI calls through `superpi.cli.main`, because a CLI user pays a
cold process-global gcd cache on every run.  Samples run one at a time.

With `--trace 0` the run spends about S seconds: it starts samples while
the next one is expected to end within S seconds, with set-up probes
between them.  It always runs three samples, so a workload whose samples
take more than S/3 seconds overruns S.  It reports medians of

  wall_s        wall time of all CLI calls in one sample;
  cpu_s         process CPU time of the same section;
  setup_s       process spawn to the first suite call (interpreter start,
                `import superpi`, argument parsing), over probes and samples;
  peak_rss_mib  ru_maxrss of the sample process.

With `--trace 1` it runs one untraced and one traced sample with the same
inputs and reports the per-layer metrics of layers.py, plus
trace.overhead_ratio = traced wall_s / untraced wall_s.

Every sample must pass the correctness gate: exit code 0, every check
`pass`, the known-answer checks of the workload present, and report bytes
identical across the samples of the run.  A failing sample counts all its
checks as failed.  The seed sets the desk-battery call order and each
sample's PYTHONHASHSEED.

Standard output ends with two JSON lines: the full record (seed, samples,
check_fail_ratio, report digests, commit, CPU count, CPU model, Python
version), then the summary {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import COUNTERS, PER_FUNCTION, TRACED, metric_name
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PYCACHE = ROOT / ".bench_build" / "pycache"

PROBES_PER_BATCH = 4
MIN_SAMPLES = 3
# Every run must end within 180 s; a sample still running then is killed.
RUN_DEADLINE = time.monotonic() + 170

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {}
    for module, path in TRACED:
        for suffix, unit in PER_FUNCTION.items():
            units[f"{metric_name(module, path)}.{suffix}"] = unit
    units.update(COUNTERS)
    units["trace.overhead_ratio"] = "ratio"
    return units


def run_sample(mode: str, calls: list[list[str]], hash_seed: int) -> dict | None:
    """One sample in a fresh interpreter; None when it crashed or overran."""
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPYCACHEPREFIX=str(PYCACHE),
    )
    # An installed CLI imports cached bytecode, so samples do too.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "sample.py"), mode, repr(spawn), str(SRC), json.dumps(calls)],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, RUN_DEADLINE - spawn),
        )
    except subprocess.TimeoutExpired:
        print(f"{mode} sample killed at the run's deadline", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{mode} sample exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def gate(workload, calls, sample, reference) -> tuple[int, list[str]]:
    """Checks attempted by one sample and the reasons it fails the gate.

    `reference` holds the report text of each call from the run's first
    sample; every later sample must reproduce it byte for byte.
    """
    if sample is None or len(sample["reports"]) != len(calls):
        return 0, ["sample crashed or stopped early"]
    attempted = 0
    problems = []
    for argv, (code, text) in zip(calls, sample["reports"]):
        label = " ".join(argv)
        if code != 0:
            problems.append(f"{label}: exit code {code}")
        if text != reference.setdefault(label, text):
            problems.append(f"{label}: report differs from the run's first sample")
        try:
            checks = {c["id"]: c["status"] for c in json.loads(text)["checks"]}
        except (ValueError, KeyError, TypeError):
            problems.append(f"{label}: no JSON report")
            continue
        attempted += len(checks)
        problems += [f"{label}: {cid} is {st}" for cid, st in checks.items() if st != "pass"]
        problems += [
            f"{label}: known answer {cid} missing"
            for cid in workload.required.get(tuple(argv), ())
            if cid not in checks
        ]
    return attempted, problems


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(calls, hash_seeds, seconds: float) -> tuple[list, list[float]]:
    """Samples until the next would overrun `seconds`, with set-up probes.

    At least MIN_SAMPLES samples run, so a slow workload still gets a median.
    A batch of probes runs before each sample and after the last one: host
    speed drifts over seconds, so probes spread over the run see the same
    mix of fast and slow spells as the samples do.
    """
    start = time.monotonic()
    setups: list[float] = []

    def probe_batch():
        for _ in range(PROBES_PER_BATCH):
            probe = run_sample("setup", calls[:1], next(hash_seeds))
            if probe is not None:
                setups.append(probe["setup_s"])

    samples, durations = [], []
    while True:
        began = time.monotonic()
        probe_batch()
        samples.append(run_sample("run", calls, next(hash_seeds)))
        durations.append(time.monotonic() - began)
        # The next probe batch and sample, then the closing probe batch.
        expected_end = time.monotonic() - start + 1.1 * statistics.median(durations)
        if len(samples) >= MIN_SAMPLES and expected_end > seconds:
            probe_batch()
            return samples, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "superpi" / "cli.py").is_file():
        print(f"no superpi sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    calls = [list(c) for c in workload.ordered_calls(rng)]
    hash_seeds = iter(lambda: rng.randrange(2**32), None)

    # Untimed: compiles the engine's bytecode into the cache.
    if run_sample("setup", calls[:1], next(hash_seeds)) is None:
        return 2

    if args.trace:
        hash_seed = next(hash_seeds)
        samples = [run_sample("run", calls, hash_seed), run_sample("trace", calls, hash_seed)]
    else:
        samples, setups = measure(calls, hash_seeds, args.seconds)

    reference: dict[str, str] = {}
    gated = [gate(workload, calls, sample, reference) for sample in samples]
    # A crashed sample attempted as many checks as the largest good one.
    full = max(checks for checks, _ in gated) or 1
    attempted = failed = 0
    problems: list[str] = []
    for checks, sample_problems in gated:
        attempted += checks or full
        if sample_problems:
            failed += checks or full
            problems += sample_problems
    good = [s for s in samples if s is not None]

    values: dict[str, float] = {}
    if args.trace:
        units = per_layer_units()
        if len(good) == 2:
            values = dict(good[1]["trace"])
            values["trace.overhead_ratio"] = good[1]["wall_s"] / good[0]["wall_s"]
    else:
        units = END_TO_END
        if good:
            values = {name: statistics.median(s[name] for s in good) for name in units}
            values["setup_s"] = statistics.median(setups + [s["setup_s"] for s in good])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "calls": [" ".join(c) for c in calls],
        "samples": [
            None if s is None else {k: v for k, v in s.items() if k not in ("reports", "trace")}
            for s in samples
        ],
        "setup_probes": None if args.trace else setups,
        "check_fail_ratio": failed / attempted,
        "problems": problems,
        "report_sha256": {
            label: hashlib.sha256(text.encode()).hexdigest() for label, text in reference.items()
        },
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": not failed and len(metrics) == len(units),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
