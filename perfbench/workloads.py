"""The benchmark's workloads: `superpi verify` calls plus known answers.

Each workload is a list of CLI calls that one sample interpreter runs in
sequence.  `required` maps a call (by its argv) to the check ids whose
verdicts the paper fixes; a sample passes the correctness gate only when
every one of them is present and passes.  The exact list of cocycle check
ids is deliberately not pinned, because pruning redundant triple orderings
is a legitimate engine change.

BENCHMARK.json lists only pi-grassmannian-24 and desk-battery: the
samples of pi-grassmannian-24 need long runs to give a steady median, and
the time allowed for all runs does not cover a third workload at that
length.  obstruction-n3 stays runnable by hand, for work on the dense
solve, and the harness tests still check its system shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

_G24_TRANSITIONS = tuple(
    f"transitions/U1->U2/{name}"
    for name in ("th12", "th22", "x12", "x22", "xi12", "xi22", "y12", "y22")
)

_PI_PROJECTIVE_KNOWN = (
    "berezinian/expected-trivial-exact",
    "derivation/cells-match-closed",
    "obstruction/lambda",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple[tuple[str, ...], ...]
    required: dict[tuple[str, ...], tuple[str, ...]] = field(default_factory=dict)

    def ordered_calls(self, rng: random.Random) -> list[tuple[str, ...]]:
        """The calls in the order one run executes them."""
        calls = list(self.calls)
        rng.shuffle(calls)
        return calls


def _verify(*argv: str) -> tuple[str, ...]:
    return ("verify",) + argv


_G24 = _verify("pi-grassmannian-24")
_OBSTRUCTION_N3 = _verify("obstruction", "--n", "3", "--degree-bound", "3")
_PI_PROJECTIVE = tuple(_verify("pi-projective", "--n", str(n)) for n in range(1, 6))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pi-grassmannian-24",
            "Few large transitions: 6 charts of 8|8 coordinates; time goes to "
            "compose/substitute, transformed_cell/smat_inverse and poly_gcd.",
            (_G24,),
            {_G24: ("cubic-term/U1->U2/th22",) + _G24_TRANSITIONS},
        ),
        Workload(
            "obstruction-n3",
            "One dense exact solve of a 2934 x 720 system over Q dominates; "
            "almost no superalgebra or atlas work, so it bypasses those layers.",
            (_OBSTRUCTION_N3,),
            {_OBSTRUCTION_N3: ("extraction/lambda", "refutation/degree-3")},
        ),
        Workload(
            "desk-battery",
            "Many small atlases of 2-6 charts in one interpreter: Berezinians, "
            "lifting, extraction and the all-orderings cocycle path.",
            _PI_PROJECTIVE
            + (
                _verify("projective-superspace", "--n", "1", "--m", "1"),
                _verify("projective-superspace", "--n", "2", "--m", "3"),
                _verify("grassmannian", "--d0", "1", "--d1", "1", "--vn", "2", "--vm", "2"),
                _verify("grassmannian", "--d0", "2", "--d1", "0", "--vn", "4", "--vm", "0"),
                _verify("lifting", "--n", "2"),
                _verify("lifting", "--n", "3"),
                _verify("obstruction", "--n", "2"),
            ),
            {call: _PI_PROJECTIVE_KNOWN for call in _PI_PROJECTIVE[1:]},
        ),
    )
}
