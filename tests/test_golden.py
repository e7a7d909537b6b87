"""Golden behaviour corpus: CLI output must stay identical down to the byte.

`tests/golden/` holds the text and JSON report of every call of the desk
battery `superpi.cli.DESK`, plus two transition dumps (one G_Pi(2, 4) pair,
and one P^10_Pi pair whose names take both forms of
`builders.coordinate_name`) and three `dump atlas` outputs.  The test
regenerates all of them in fresh interpreters under two PYTHONHASHSEED
values and compares byte for byte, so a refactor that changes any
representative, verdict or ordering shows up here.

Regenerate the corpus (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from superpi.cli import DESK, _emit, build_arg_parser, main, verify

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
HASH_SEEDS = ("0", "4242")

FORMATS = ((), ("--format", "json"))
DUMPS = (
    ("dump", "transitions", "--family", "pi-grassmannian-24", "--source", "U1", "--target", "U2"),
    ("dump", "transitions", "--family", "pi-projective", "--n", "10", "--source", "U0", "--target", "U10"),
    ("dump", "atlas", "--family", "pi-projective", "--n", "3"),
    ("dump", "atlas", "--family", "grassmannian", "--d0", "1", "--d1", "1", "--vn", "2", "--vm", "2"),
    ("dump", "atlas", "--family", "projective-superspace", "--n", "2", "--m", "3"),
)
CALLS = (*(("verify", *argv, *fmt) for argv in DESK for fmt in FORMATS), *DUMPS)


def file_name(argv: tuple[str, ...]) -> str:
    """`verify pi-projective --n 2 --format json` -> `verify-pi-projective-n-2.json`."""
    ext = ".json" if argv[-2:] == ("--format", "json") else ".txt"
    body = argv[:-2] if ext == ".json" else argv
    return "-".join(arg.lstrip("-") for arg in body) + ext


def render_all() -> dict[str, str]:
    """Stdout of every corpus call, run in sequence in this interpreter.

    Each DESK suite runs once: the CLI's own `_emit` writes its text and
    its JSON file from the one report.  The dumps run through `main`.
    """
    out = {}

    def capture(argv: tuple[str, ...], run) -> None:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = run()
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
        out[file_name(argv)] = buffer.getvalue()

    parser = build_arg_parser()
    for argv in DESK:
        report = verify(parser.parse_args(["verify", *argv]))
        for fmt in FORMATS:
            args = parser.parse_args(["verify", *argv, *fmt])
            capture(("verify", *argv, *fmt), lambda: _emit(report, args))
    for argv in DUMPS:
        capture(argv, lambda: main(list(argv)))
    return out


def test_corpus_is_complete():
    names = sorted(file_name(argv) for argv in CALLS)
    assert len(set(names)) == len(CALLS)
    assert sorted(p.name for p in GOLDEN.iterdir()) == names


def test_output_matches_corpus_across_hash_seeds():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, "--emit"],
            env=dict(env, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    ]
    for seed, proc in zip(HASH_SEEDS, procs):
        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}: {stderr}"
        rendered = json.loads(stdout)
        assert sorted(rendered) == sorted(file_name(argv) for argv in CALLS)
        for name, text in rendered.items():
            expected = (GOLDEN / name).read_bytes()
            assert text.encode("utf-8") == expected, f"PYTHONHASHSEED={seed}: {name} differs"


if __name__ == "__main__":
    outputs = render_all()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.mkdir(exist_ok=True)
        for name, text in outputs.items():
            (GOLDEN / name).write_bytes(text.encode("utf-8"))
    elif sys.argv[1:] == ["--emit"]:
        json.dump(outputs, sys.stdout)
    else:
        raise SystemExit("usage: test_golden.py --write | --emit")
