"""One benchmark sample, run in a fresh interpreter by run.py.

    python sample.py MODE SPAWN_TIME SRC_DIR CALLS_JSON

MODE is `setup` (stop at the first suite call), `run` (time every CLI
call) or `trace` (run with per-layer tracing).  SPAWN_TIME is the parent's
time.monotonic() just before it started this process; CLOCK_MONOTONIC is
shared by all processes, so setup time is measured across the spawn.
CALLS_JSON is a list of `superpi` argv lists, run in order through
`superpi.cli.main` with `--format json`.  The result is one JSON line on
standard output.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


class _SuiteReached(Exception):
    pass


def _stamp_first_suite_call(suites, stop: bool) -> dict:
    """Wrap every suite_* entry point so the first call records its time."""
    stamp: dict = {}

    def wrap(fn):
        def first_call_stamped(*args, **kwargs):
            stamp.setdefault("t", time.monotonic())
            if stop:
                raise _SuiteReached
            return fn(*args, **kwargs)

        return first_call_stamped

    for name, fn in list(vars(suites).items()):
        if name.startswith("suite_") and callable(fn):
            setattr(suites, name, wrap(fn))
    return stamp


def main() -> int:
    mode, spawn_time, src, calls = sys.argv[1], float(sys.argv[2]), sys.argv[3], json.loads(sys.argv[4])
    import superpi.cli

    if not Path(superpi.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"superpi imported from {superpi.__file__}, not from {src}", file=sys.stderr)
        return 2
    result: dict = {}
    tracer = None
    if mode == "trace":
        from layers import Tracer

        tracer = Tracer()
        tracer.install(superpi)
    else:
        stamp = _stamp_first_suite_call(superpi.suites, stop=mode == "setup")

    reports = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in calls:
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                code = superpi.cli.main(argv + ["--format", "json"])
        except _SuiteReached:
            break
        except SystemExit as exc:
            code = exc.code
        reports.append([code, out.getvalue()])
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    if tracer is None:
        result["setup_s"] = stamp["t"] - spawn_time
    else:
        result["trace"] = tracer.metrics()
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["reports"] = reports
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
