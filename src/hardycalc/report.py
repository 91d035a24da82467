"""Check reports: the one record type every verification produces.

A report states a claimed bound, the measured value, the witness that
produced the measurement, and the pass verdict under the rule

    pass  <=>  measured <= claimed * (1 + tolerance) + tolerance

which covers both inequality checks (claimed > 0) and identity checks
(claimed = 0, tolerance acts as an absolute bound on the residual).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["CheckReport", "finish_report", "report_passes"]


def report_passes(bound_claimed, bound_measured, tolerance):
    return bound_measured <= bound_claimed * (1.0 + tolerance) + tolerance


@dataclass(frozen=True)
class CheckReport:
    name: str
    bound_claimed: float
    bound_measured: float
    witness: str
    tolerance: float
    passed: bool
    runtime_ms: float
    details: dict = field(default_factory=dict)

    def to_json_dict(self):
        """Serializable dict; the key 'pass' mirrors the verdict field."""
        return {
            "name": self.name,
            "bound_claimed": self.bound_claimed,
            "bound_measured": self.bound_measured,
            "witness": self.witness,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
            "details": {k: self.details[k] for k in sorted(self.details)},
        }

    def csv_row(self):
        return [self.name, repr(self.bound_claimed), repr(self.bound_measured),
                "true" if self.passed else "false"]


def finish_report(name, bound_claimed, bound_measured, witness, tolerance,
                  started_at, details=None):
    """Assemble a CheckReport, computing the verdict and the runtime."""
    now = time.perf_counter()
    return CheckReport(
        name=name,
        bound_claimed=float(bound_claimed),
        bound_measured=float(bound_measured),
        witness=witness,
        tolerance=float(tolerance),
        passed=report_passes(bound_claimed, bound_measured, tolerance),
        runtime_ms=(now - started_at) * 1000.0,
        details=dict(details or {}),
    )
