#!/usr/bin/env python3
"""Run the desk battery, `superpi.cli.DESK`, and print one status line per call.

Each call is parsed by the CLI's own parser and run through `cli.verify`,
the code path of `superpi verify`.  A failing report is printed in full
after its status line, and the script then exits nonzero.  The whole run,
interpreter start included, takes 0.9-1.0 s on a shared 2-core machine
with CPython 3.11.7; obstruction n=3 (0.6-0.7 s) is the slowest, and
pi-grassmannian-24 and pi-projective n=5 take about 0.1 s each.
"""

import sys
import time

from superpi.cli import DESK, build_arg_parser, verify


def main() -> int:
    parser = build_arg_parser()
    ok = True
    for argv in DESK:
        start = time.monotonic()
        report = verify(parser.parse_args(["verify", *argv]))
        elapsed = time.monotonic() - start
        counts = report.counts()
        status = "ok" if report.all_passed else "FAILED"
        print(
            f"{' '.join(argv):40s} {status:6s} "
            f"{counts['pass']:4d} pass {counts['fail']:3d} fail "
            f"{counts['undetermined']:3d} undetermined  ({elapsed:.1f}s)"
        )
        if not report.all_passed:
            ok = False
            print(report.to_text())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
