"""Structured pass/fail reports with symbolic witnesses.

A report is a named suite of checks.  Serialisation (text and JSON) is
deterministic: checks are sorted by identifier and wall-clock timings are
kept only in memory, never in the canonical output, so identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
UNDETERMINED = "undetermined"

_STATUSES = (PASS, FAIL, UNDETERMINED)


def mismatch(actual, expected) -> str:
    """The empty string when actual equals expected, else the witness of the difference.

    actual and expected are values with equals, subtraction and to_str;
    the difference is formed and printed only when they differ.
    """
    if actual.equals(expected):
        return ""
    return "difference " + (actual - expected).to_str()


@dataclass
class CheckResult:
    identifier: str
    status: str
    witness: str = ""
    seconds: float = 0.0

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == FAIL and not self.witness:
            raise ValueError(f"failing check {self.identifier!r} needs a witness")


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, identifier: str, status: str, witness: str = "", seconds: float = 0.0):
        self.checks.append(CheckResult(identifier, status, witness, seconds))

    def add_bool(self, identifier: str, ok: bool, witness_on_fail: str):
        if ok:
            self.add(identifier, PASS)
        else:
            self.add(identifier, FAIL, witness_on_fail)

    def add_witness(self, identifier: str, witness: str):
        """PASS when the witness of a difference is empty, else FAIL with it."""
        self.add(identifier, FAIL if witness else PASS, witness)

    def add_equal(self, identifier: str, actual, expected):
        """PASS when actual equals expected, else FAIL with their mismatch."""
        self.add_witness(identifier, mismatch(actual, expected))

    def merge(self, other: VerificationReport, prefix: str = ""):
        for check in other.checks:
            name = f"{prefix}{check.identifier}" if prefix else check.identifier
            self.checks.append(
                CheckResult(name, check.status, check.witness, check.seconds)
            )

    def sorted_checks(self) -> list[CheckResult]:
        return sorted(self.checks, key=lambda c: c.identifier)

    @property
    def all_passed(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, UNDETERMINED: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def find(self, identifier: str) -> CheckResult:
        for c in self.checks:
            if c.identifier == identifier:
                return c
        raise KeyError(identifier)

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for c in self.sorted_checks():
            line = f"  [{c.status:^12}] {c.identifier}"
            if c.witness:
                line += f"  :: {c.witness}"
            lines.append(line)
        counts = self.counts()
        lines.append(
            f"summary: {counts[PASS]} pass, {counts[FAIL]} fail, "
            f"{counts[UNDETERMINED]} undetermined"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [
                {"id": c.identifier, "status": c.status, "witness": c.witness}
                for c in self.sorted_checks()
            ],
            "summary": self.counts(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)
