"""Seeded arrival processes: the stochastic half of a workload trace.

An arrival process is sampled into a trace
(:func:`repro.workloads.trace.trace_from_arrivals`), which
:class:`repro.workloads.TraceReplayer` replays against an engine or a
router.  :mod:`repro.serve` and the top-level package re-export both
classes.

Two arrival processes cover the interesting regimes:

* :class:`PoissonArrivals` — memoryless steady traffic at a fixed rate;
* :class:`BurstArrivals` — a base rate punctuated by periodic bursts
  (the flash-crowd shape that stresses admission control).

Both are pure functions of the generator passed to
:meth:`~PoissonArrivals.arrival_times`: the same rng state produces the
same instants bit-for-bit, which is the determinism contract the trace
format is built on (property-tested in
``tests/properties/test_property_arrivals.py``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ConfigurationError


class PoissonArrivals:
    """Memoryless arrivals at ``rate_rps`` requests per second."""

    def __init__(self, rate_rps: float):
        if rate_rps <= 0:
            raise ConfigurationError(f"rate_rps must be > 0, got {rate_rps}")
        self.rate_rps = float(rate_rps)

    def _rate_at(self, t: float) -> float:
        return self.rate_rps

    def arrival_times(self, duration_s: float, rng: np.random.Generator) -> List[float]:
        """Arrival instants in [0, duration_s), oldest first."""
        if duration_s <= 0:
            raise ConfigurationError(f"duration_s must be > 0, got {duration_s}")
        times: List[float] = []
        t = float(rng.exponential(1.0 / self._rate_at(0.0)))
        while t < duration_s:
            times.append(t)
            t += rng.exponential(1.0 / self._rate_at(t))
        return times


class BurstArrivals(PoissonArrivals):
    """Piecewise-Poisson traffic: periodic bursts over a base rate.

    Every ``period_s`` the rate jumps from ``rate_rps`` to ``burst_rps``
    for ``burst_len_s`` seconds (the burst opens each period).  The
    instantaneous rate therefore never drops below ``rate_rps``;
    ``burst_len_s == period_s`` is the degenerate-but-valid boundary
    where the burst never closes and the process is plain Poisson at
    ``burst_rps``.
    """

    def __init__(self, rate_rps: float, burst_rps: float, period_s: float, burst_len_s: float):
        super().__init__(rate_rps)
        if burst_rps < rate_rps:
            raise ConfigurationError(
                f"burst_rps ({burst_rps}) must be >= base rate ({rate_rps})"
            )
        if period_s <= 0 or not 0 < burst_len_s <= period_s:
            raise ConfigurationError(
                "need period_s > 0 and 0 < burst_len_s <= period_s, got "
                f"period_s={period_s}, burst_len_s={burst_len_s}"
            )
        self.burst_rps = float(burst_rps)
        self.period_s = float(period_s)
        self.burst_len_s = float(burst_len_s)

    def _rate_at(self, t: float) -> float:
        return self.burst_rps if (t % self.period_s) < self.burst_len_s else self.rate_rps
