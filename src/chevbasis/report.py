"""Uniform result type for verification sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class VerificationReport:
    """Outcome of an exhaustive exact check.

    ``violations`` holds (site, expected, got) triples; the sweep passes
    iff it is empty.  ``checked`` counts every instance covered, and
    ``violation_count`` the total number of failures even when the stored
    list is truncated.  ``zero_by_grading`` counts the covered instances
    that hold for any table by the root grading, without evaluation, and
    ``implied_by_generation`` those that follow from the evaluated ones
    because the Chevalley generators generate the table, the Chevalley
    involution is an automorphism of it and the bracket is antisymmetric,
    which makes the Jacobi sum alternating, so that one evaluation settles
    every ordering of a triple (only the Jacobi sweep has either); the
    rest are ``evaluated``, so ``checked = evaluated + zero_by_grading +
    implied_by_generation``.
    """

    suite: str
    checked: int = 0
    zero_by_grading: int = 0
    implied_by_generation: int = 0
    violations: list[tuple[Any, Any, Any]] = field(default_factory=list)
    violation_count: int = 0
    max_recorded: int = 100

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    @property
    def evaluated(self) -> int:
        return self.checked - self.zero_by_grading - self.implied_by_generation

    def record(self, site: Any, expected: Any, got: Any) -> None:
        self.violation_count += 1
        if len(self.violations) < self.max_recorded:
            self.violations.append((site, expected, got))

    def to_json(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "checked": self.checked,
            "evaluated": self.evaluated,
            "zero_by_grading": self.zero_by_grading,
            "implied_by_generation": self.implied_by_generation,
            "passed": self.passed,
            "violation_count": self.violation_count,
            "violations": [
                {"site": list(site) if isinstance(site, tuple) else site,
                 "expected": str(expected), "got": str(got)}
                for site, expected, got in self.violations
            ],
        }

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL ({self.violation_count} violations)"
        return (f"{self.suite}: {status}, {self.checked} checks "
                f"({self.evaluated} evaluated, {self.zero_by_grading} zero by grading, "
                f"{self.implied_by_generation} implied by generation)")
