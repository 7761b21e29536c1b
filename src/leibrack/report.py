"""Validity reports returned by the axiom checkers, and the collector that
builds them.

A checker never raises on an axiom failure; it returns a report carrying the
worst residual and a bounded sample of offending index tuples so that large
inputs cannot flood the caller.  Every checker fills one :class:`Collector`:
it lists violations in the order they are found, up to
MAX_LISTED_VIOLATIONS, counts failures, tracks the maximum residual, folds
in the reports of sub-checks, and builds the final report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AxiomError

MAX_LISTED_VIOLATIONS = 20


@dataclass(frozen=True)
class Violation:
    """One failed instance of a law at a specific index tuple."""

    law: str
    where: tuple
    residual: float


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of an axiom check.

    ``violations`` holds at most MAX_LISTED_VIOLATIONS entries even when more
    indices fail; ``max_residual`` is always the true maximum.  ``info``
    carries check-specific extras (plain Python scalars only, so the report
    serializes cleanly).
    """

    passed: bool
    max_residual: float
    violations: tuple = ()
    info: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed

    def require(self, law: str) -> "ValidityReport":
        """This report if it passed, else AxiomError naming ``law``."""
        if not self.passed:
            raise AxiomError(law, self.max_residual, self)
        return self

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_residual": self.max_residual,
            "violations": [
                {"law": v.law, "where": list(v.where), "residual": v.residual}
                for v in self.violations
            ],
            "info": {k: self.info[k] for k in sorted(self.info)},
        }


class Collector:
    """Violations of one check, with its failure count and maximum residual.

    A continuous check passes a tolerance and passes when the maximum
    residual is at most that tolerance.  A discrete check passes none: each
    failure counts with residual 1.0, the check passes when nothing failed,
    and its report keeps the count in ``info["failures"]``.  A NaN residual
    sticks as the maximum, so it always fails the check.
    """

    def __init__(self, tol: float | None = None):
        self.tol = tol
        self.violations: list = []
        self.failures = 0
        self.max_residual = 0.0

    def _fold(self, residual: float):
        if self.max_residual == self.max_residual and \
                not residual <= self.max_residual:
            self.max_residual = residual

    def add(self, law: str, where: tuple = (), residual: float = 1.0):
        """Record one failed instance of ``law``."""
        self.failures += 1
        self._fold(float(residual))
        if len(self.violations) < MAX_LISTED_VIOLATIONS:
            self.violations.append(
                Violation(law, tuple(int(i) for i in where), float(residual)))

    def scan(self, law: str, residuals):
        """A residual array: every entry above the tolerance fails at its
        index, in row-major order."""
        res = np.abs(np.asarray(residuals, dtype=float))
        if res.size:
            self._fold(float(res.max()))
            self.table(law, res > self.tol, res)

    def table(self, law: str, bad, residuals=None, lead: tuple = ()):
        """A boolean table: every true entry fails at ``lead`` plus its
        index, in row-major order, with its residual (1.0 by default)."""
        hits = np.flatnonzero(bad)
        room = max(0, MAX_LISTED_VIOLATIONS - len(self.violations))
        for flat in hits[:room]:
            idx = np.unravel_index(flat, np.shape(bad))
            self.add(law, lead + idx, 1.0 if residuals is None else residuals[idx])
        self.failures += max(0, hits.size - room)
        if hits.size and residuals is None:
            self._fold(1.0)

    def tables(self, *laws, start: int = 0):
        """Several ``(law, bad)`` tables sharing their first axis, listed
        index by index along that axis, which is numbered from ``start``.  A
        ``(law, bad, residuals)`` table folds its residuals into the maximum
        and lists them with its violations."""
        rows = np.zeros(len(laws[0][1]), dtype=bool)
        for _, bad, *residuals in laws:
            rows |= np.reshape(bad, (len(rows), -1)).any(axis=1)
            for res in residuals:
                self._fold(float(np.max(res, initial=0.0)))
        for i in np.flatnonzero(rows):
            for law, bad, *residuals in laws:
                self.table(law, bad[i], *(res[i] for res in residuals),
                           lead=(start + i,))

    def merge(self, report: ValidityReport):
        """Fold in a sub-check's report."""
        self._fold(report.max_residual)
        self.violations += report.violations[:MAX_LISTED_VIOLATIONS - len(self.violations)]
        self.failures += report.info.get("failures", len(report.violations))

    def report(self, info: dict | None = None) -> ValidityReport:
        """The report of everything collected, with ``info`` added."""
        if self.tol is None:
            passed, base = self.failures == 0, {"failures": self.failures}
        else:
            passed, base = self.max_residual <= self.tol, {"tolerance": self.tol}
        base.update(info or {})
        return ValidityReport(bool(passed), self.max_residual,
                              tuple(self.violations), base)
