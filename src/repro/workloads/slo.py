"""Per-trace service-level objectives, evaluated on replay reports.

An :class:`SLOGate` is a frozen triple of ceilings — p99 latency, error
budget, shed budget — checked against a
:class:`~repro.workloads.replay.ReplayReport`.  ``evaluate`` returns a
list of human-readable violations (empty = SLO met), which the bench
layer stores per-row in ``BENCH_workloads.json`` and CI enforces in its
``bench`` job; the chaos-under-load drills use the error budget to
assert fault-injection never eats into client-visible correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.workloads.replay import ReplayReport


@dataclass(frozen=True)
class SLOGate:
    """Ceilings a replay must stay under to pass.

    Parameters
    ----------
    p99_ms:
        p99 end-to-end latency ceiling, milliseconds of simulated time.
    error_budget:
        Maximum tolerated fraction of offered requests that are lost
        (submitted but never completed nor deliberately shed).
    shed_budget:
        Maximum tolerated fraction of offered requests the target may
        shed via admission control.
    """

    p99_ms: float
    error_budget: float = 0.0
    shed_budget: float = 0.05

    def __post_init__(self):
        if self.p99_ms <= 0:
            raise ConfigurationError(f"p99_ms must be > 0, got {self.p99_ms}")
        for name in ("error_budget", "shed_budget"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )

    def evaluate(self, report: ReplayReport) -> List[str]:
        """All violated objectives, as readable strings (empty = pass)."""
        failures: List[str] = []
        p99_ms = report.latency_p99_s * 1e3
        if p99_ms > self.p99_ms:
            failures.append(
                f"p99 {p99_ms:.3f} ms exceeds SLO ceiling {self.p99_ms:.3f} ms"
            )
        if report.error_rate > self.error_budget:
            failures.append(
                f"error rate {report.error_rate:.4f} exceeds budget "
                f"{self.error_budget:.4f} "
                f"({report.errors}/{report.offered} requests lost)"
            )
        if report.shed_rate > self.shed_budget:
            failures.append(
                f"shed rate {report.shed_rate:.4f} exceeds budget "
                f"{self.shed_budget:.4f} "
                f"({report.shed}/{report.offered} requests shed)"
            )
        return failures

    def check(self, report: ReplayReport) -> bool:
        """True iff the report meets every objective."""
        return not self.evaluate(report)

    def as_row(self) -> Dict[str, float]:
        """The gate's ceilings as flat row fields (bench reports)."""
        return {
            "slo_p99_ms": self.p99_ms,
            "slo_error_budget": self.error_budget,
            "slo_shed_budget": self.shed_budget,
        }
