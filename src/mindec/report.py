"""Structured pass/fail reports for the verification commands.

Each check records the identity it tested, stated as a formula, plus a
short witness description when it failed.  Reports are plain data so
the CLI can serialize them and tests can assert on individual checks.
A constructor that promises a verified result keeps its verifier's
report on that result (see :func:`attach_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from mindec.errors import InvariantViolation


@dataclass(frozen=True)
class Check:
    name: str
    statement: str
    passed: bool
    witness: str = ""


@dataclass
class VerificationReport:
    subject: str
    checks: List[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, statement: str, passed: bool, witness: str = "") -> bool:
        self.checks.append(Check(name, statement, bool(passed), witness))
        return bool(passed)

    def failed_checks(self) -> Tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "pass": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "statement": c.statement,
                    "pass": c.passed,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
        }

    def __str__(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.subject}"]
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            suffix = f"  ({c.witness})" if c.witness and not c.passed else ""
            lines.append(f"  {mark} {c.name}: {c.statement}{suffix}")
        return "\n".join(lines)


def attach_report(result, report: VerificationReport):
    """Store a passing report as the ``report`` field of a frozen
    result and return the result; raise InvariantViolation, listing the
    checks, when the report failed."""
    if not report.passed:
        raise InvariantViolation(f"{report.subject} failed verification:\n{report}")
    object.__setattr__(result, "report", report)
    return result
