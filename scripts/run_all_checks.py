#!/usr/bin/env python3
"""Run every verification suite at desk scale and print the reports.

Exits nonzero if any check fails.  The whole run, interpreter start
included, takes 2.3-3.4 s on a 2-core machine with CPython 3.11.7;
obstruction n=3 (0.8-1.3 s) and the (2, 4) Pi-Grassmannian suite
(1.2-1.4 s) are the slowest.
"""

import sys
import time

from superpi import suites


def main() -> int:
    runs = [
        ("pi-projective n=1", lambda: suites.suite_pi_projective(1)),
        ("pi-projective n=2", lambda: suites.suite_pi_projective(2)),
        ("pi-projective n=3", lambda: suites.suite_pi_projective(3)),
        ("projective superspace 1|1", lambda: suites.suite_projective_superspace(1, 1)),
        ("projective superspace 2|3", lambda: suites.suite_projective_superspace(2, 3)),
        ("grassmannian (1|1; 2|2)", lambda: suites.suite_grassmannian(1, 1, 2, 2)),
        ("grassmannian (2|0; 4|0)", lambda: suites.suite_grassmannian(2, 0, 4, 0)),
        ("lifting n=2", lambda: suites.suite_lifting(2)),
        ("lifting n=3", lambda: suites.suite_lifting(3)),
        ("obstruction n=2", lambda: suites.suite_obstruction(2, 3)),
        ("obstruction n=3", lambda: suites.suite_obstruction(3, 3)),
        ("pi-grassmannian (2, 4)", suites.suite_pi_grassmannian_24),
    ]

    ok = True
    for label, run in runs:
        start = time.monotonic()
        report = run()
        elapsed = time.monotonic() - start
        counts = report.counts()
        status = "ok" if report.all_passed else "FAILED"
        print(
            f"{label:32s} {status:6s} "
            f"{counts['pass']:4d} pass {counts['fail']:3d} fail "
            f"{counts['undetermined']:3d} undetermined  ({elapsed:.1f}s)"
        )
        if not report.all_passed:
            ok = False
            print(report.to_text())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
