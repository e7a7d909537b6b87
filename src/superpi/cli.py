"""Command-line entry point: named verification suites and atlas dumps.

Exit codes: 0 when every check passes, 1 when any check fails or stays
undetermined, 2 on usage or internal errors.  Reports are deterministic,
so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .atlas import Atlas
from .builders import (
    build_pi_grassmannian,
    build_pi_projective_closed,
    build_projective_superspace,
    build_super_grassmannian,
)
from .report import VerificationReport
from . import suites


def _build_family(args) -> Atlas:
    family = args.family
    if family == "pi-projective":
        return build_pi_projective_closed(args.n)
    if family == "projective-superspace":
        return build_projective_superspace(args.n, args.m)
    if family == "grassmannian":
        return build_super_grassmannian(args.d0, args.d1, args.vn, args.vm)
    if family == "pi-grassmannian-24":
        return build_pi_grassmannian(2, 4)
    raise ValueError(f"unknown family {family!r}")


def _emit(report: VerificationReport, args) -> int:
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0 if report.all_passed else 1


def _add_output_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write the report to a file")


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="superpi",
        description="exact verification suites for Pi-projective supergeometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a named verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("pi-projective", help="cocycle, Berezinian and obstruction")
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)

    p = vsub.add_parser("projective-superspace", help="split model checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_output_flags(p)

    p = vsub.add_parser("grassmannian", help="big-cell atlas checks")
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--vn", type=int, required=True)
    p.add_argument("--vm", type=int, required=True)
    _add_output_flags(p)

    p = vsub.add_parser("pi-grassmannian-24", help="derived transitions and cubic term")
    _add_output_flags(p)

    p = vsub.add_parser("lifting", help="homogeneous-coordinate lifting identities")
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)

    p = vsub.add_parser("obstruction", help="cocycle, extraction, bounded refutation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree-bound", type=int, default=3)
    _add_output_flags(p)

    dump = sub.add_parser("dump", help="print atlases and transitions")
    dsub = dump.add_subparsers(dest="what", required=True)
    for what in ("atlas", "transitions"):
        p = dsub.add_parser(what)
        p.add_argument(
            "--family",
            required=True,
            choices=(
                "pi-projective",
                "projective-superspace",
                "grassmannian",
                "pi-grassmannian-24",
            ),
        )
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--m", type=int, default=0)
        p.add_argument("--d0", type=int, default=None)
        p.add_argument("--d1", type=int, default=None)
        p.add_argument("--vn", type=int, default=None)
        p.add_argument("--vm", type=int, default=None)
        if what == "transitions":
            p.add_argument("--source", default=None)
            p.add_argument("--target", default=None)

    return parser


def _run_verify(args) -> int:
    if args.suite == "pi-projective":
        report = suites.suite_pi_projective(args.n)
    elif args.suite == "projective-superspace":
        report = suites.suite_projective_superspace(args.n, args.m)
    elif args.suite == "grassmannian":
        report = suites.suite_grassmannian(args.d0, args.d1, args.vn, args.vm)
    elif args.suite == "pi-grassmannian-24":
        report = suites.suite_pi_grassmannian_24()
    elif args.suite == "lifting":
        report = suites.suite_lifting(args.n)
    elif args.suite == "obstruction":
        report = suites.suite_obstruction(args.n, args.degree_bound)
    else:  # pragma: no cover - argparse guards this
        raise ValueError(f"unknown suite {args.suite!r}")
    return _emit(report, args)


def _run_dump(args) -> int:
    atlas = _build_family(args)
    lines: list[str] = []
    if args.what == "atlas":
        for chart in atlas.charts:
            lines.append(
                f"chart {chart.name}: even {', '.join(chart.even_coords)}"
                + (f" | odd {', '.join(chart.odd_coords)}" if chart.odd_coords else "")
            )
    pairs = sorted(
        (i, j) for i, j in atlas.transitions if i != j
    )
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
            return _run_verify(args)
        if args.command == "dump":
            if args.family == "pi-projective" and args.n is None:
                parser.error("--n is required for pi-projective")
            if args.family == "projective-superspace" and args.n is None:
                parser.error("--n is required for projective-superspace")
            if args.family == "grassmannian" and None in (
                args.d0,
                args.d1,
                args.vn,
                args.vm,
            ):
                parser.error("--d0/--d1/--vn/--vm are required for grassmannian")
            return _run_dump(args)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, ZeroDivisionError, KeyError, OSError) as exc:
        print(f"superpi: error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
