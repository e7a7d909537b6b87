"""Command-line entry point: named verification suites and atlas dumps.

Exit codes: 0 when every check passes, 1 when any check fails or stays
undetermined, 2 on usage or internal errors.  Reports are deterministic,
so identical invocations produce byte-identical output.

The verify suites and the dump families are each named once, in SUITES
and FAMILIES; the parser, the dispatch and the dump's option check read
those tables.  DESK names the desk-scale battery of verify calls once.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .builders import (
    build_pi_grassmannian,
    build_pi_projective_closed,
    build_projective_superspace,
    build_super_grassmannian,
)
from .report import VerificationReport
from . import suites

# suite -> (help, integer options as (name, default)).  A default of None
# makes the option required.  Suite `a-b` runs `suites.suite_a_b` with the
# options in order, looked up when it runs, so a rebound suite (a tracer's
# wrapper, a test's stand-in) is the one called.
SUITES = {
    "pi-projective": ("cocycle, Berezinian and obstruction", (("n", None),)),
    "projective-superspace": ("split model checks", (("n", None), ("m", None))),
    "grassmannian": (
        "big-cell atlas checks",
        (("d0", None), ("d1", None), ("vn", None), ("vm", None)),
    ),
    "pi-grassmannian-24": ("derived transitions and cubic term", ()),
    "lifting": ("homogeneous-coordinate lifting identities", (("n", None),)),
    "obstruction": (
        "cocycle, extraction, bounded refutation",
        (("n", None), ("degree-bound", 3)),
    ),
}

# The desk battery: every suite at desk scale, as the arguments that follow
# `verify`.  scripts/run_all_checks.py runs it and tests/test_golden.py
# keeps its reports.
DESK = (
    *(("pi-projective", "--n", str(n)) for n in range(1, 6)),
    ("projective-superspace", "--n", "1", "--m", "1"),
    ("projective-superspace", "--n", "2", "--m", "3"),
    ("grassmannian", "--d0", "1", "--d1", "1", "--vn", "2", "--vm", "2"),
    ("grassmannian", "--d0", "2", "--d1", "0", "--vn", "4", "--vm", "0"),
    ("lifting", "--n", "2"),
    ("lifting", "--n", "3"),
    ("obstruction", "--n", "2"),
    ("obstruction", "--n", "3"),
    ("pi-grassmannian-24",),
)

# dump family -> (required options, atlas builder taking the parsed args).
FAMILIES = {
    "pi-projective": (("n",), lambda a: build_pi_projective_closed(a.n)),
    "projective-superspace": (
        ("n",),
        lambda a: build_projective_superspace(a.n, a.m),
    ),
    "grassmannian": (
        ("d0", "d1", "vn", "vm"),
        lambda a: build_super_grassmannian(a.d0, a.d1, a.vn, a.vm),
    ),
    "pi-grassmannian-24": ((), lambda a: build_pi_grassmannian(2, 4)),
}


def _emit(report: VerificationReport, args) -> int:
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0 if report.all_passed else 1


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="superpi",
        description="exact verification suites for Pi-projective supergeometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify_parser = sub.add_parser("verify", help="run a named verification suite")
    vsub = verify_parser.add_subparsers(dest="suite", required=True)
    for suite, (help_text, options) in SUITES.items():
        p = vsub.add_parser(suite, help=help_text)
        for name, default in options:
            p.add_argument(f"--{name}", type=int, required=default is None, default=default)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")

    dump = sub.add_parser("dump", help="print atlases and transitions")
    dsub = dump.add_subparsers(dest="what", required=True)
    for what in ("atlas", "transitions"):
        p = dsub.add_parser(what)
        p.add_argument("--family", required=True, choices=tuple(FAMILIES))
        for name in ("n", "m", "d0", "d1", "vn", "vm"):
            p.add_argument(f"--{name}", type=int, default=0 if name == "m" else None)
        if what == "transitions":
            p.add_argument("--source", default=None)
            p.add_argument("--target", default=None)

    return parser


def verify(args) -> VerificationReport:
    """The report of the suite named by parsed `verify` arguments."""
    options = SUITES[args.suite][1]
    run = getattr(suites, "suite_" + args.suite.replace("-", "_"))
    return run(*(getattr(args, name.replace("-", "_")) for name, _ in options))


def _run_dump(args) -> int:
    atlas = FAMILIES[args.family][1](args)
    lines: list[str] = []
    if args.what == "atlas":
        for chart in atlas.charts:
            lines.append(
                f"chart {chart.name}: even {', '.join(chart.even_coords)}"
                + (f" | odd {', '.join(chart.odd_coords)}" if chart.odd_coords else "")
            )
    pairs = atlas.pairs()
    if args.what == "transitions":
        source = getattr(args, "source", None)
        target = getattr(args, "target", None)
        pairs = [
            (i, j)
            for i, j in pairs
            if (source is None or i == source) and (target is None or j == target)
        ]
        if not pairs:
            print("no transitions match the requested pair", file=sys.stderr)
            return 2
    for i, j in pairs:
        t = atlas.transitions[(i, j)]
        lines.append(f"transition {i} -> {j}:")
        for name in t.target.coords:
            lines.append(f"  {name} = {t.images[name].to_str()}")
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _emit(verify(args), args)
        required = FAMILIES[args.family][0]
        if any(getattr(args, name) is None for name in required):
            verb = "is" if len(required) == 1 else "are"
            parser.error(f"--{'/--'.join(required)} {verb} required for {args.family}")
        return _run_dump(args)
    except (ValueError, ZeroDivisionError, KeyError, OSError) as exc:
        print(f"superpi: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
