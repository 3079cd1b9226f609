"""Cluster-level metrics: the router's client-facing view of a fleet.

Each replica's :class:`~repro.serve.metrics.ServingMetrics` counts what
*its engine* did; a hedged request that ran on two replicas appears
twice down there.  :class:`ClusterMetrics` counts what the *client*
experienced — one completion per request, latency measured from arrival
at the router to the first response — plus the coordination events that
only exist at the cluster layer: hedges, reroutes after a replica
death, load shedding, swaps, and autoscaling actions.

Like everything in the serving stack the state is plain Python driven
by the simulated clock, so identical seeded runs produce bit-identical
counters and histogram fingerprints.
"""

from __future__ import annotations

from typing import Dict, List

from repro.serve.metrics import LatencyHistogram


class ClusterMetrics:
    """Aggregated client-side view of everything the router did."""

    def __init__(self):
        self.received = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.rerouted = 0
        self.cache_hits = 0
        self.hedges_launched = 0
        self.hedges_won = 0
        self.hedges_cancelled = 0
        self.hedges_wasted = 0
        self.dispatch_faults = 0
        self.backpressure_events = 0
        self.replica_deaths = 0
        self.swaps = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.latency = LatencyHistogram()

    # ------------------------------------------------------------------
    def on_completed(self, latency_s: float, cache_hit: bool = False) -> None:
        self.completed += 1
        if cache_hit:
            self.cache_hits += 1
        self.latency.record(latency_s)

    # ------------------------------------------------------------------
    def rows(self) -> List[Dict[str, object]]:
        """Counter + percentile rows for :func:`repro.bench.report.format_table`."""
        return [
            {"metric": "requests_received", "value": self.received},
            {"metric": "requests_completed", "value": self.completed},
            {"metric": "requests_failed", "value": self.failed},
            {"metric": "requests_shed", "value": self.shed},
            {"metric": "requests_rerouted", "value": self.rerouted},
            {"metric": "cache_hits", "value": self.cache_hits},
            {"metric": "hedges_launched", "value": self.hedges_launched},
            {"metric": "hedges_won", "value": self.hedges_won},
            {"metric": "hedges_cancelled", "value": self.hedges_cancelled},
            {"metric": "hedges_wasted", "value": self.hedges_wasted},
            {"metric": "backpressure_events", "value": self.backpressure_events},
            {"metric": "replica_deaths", "value": self.replica_deaths},
            {"metric": "swaps", "value": self.swaps},
            {"metric": "scale_ups", "value": self.scale_ups},
            {"metric": "scale_downs", "value": self.scale_downs},
            {"metric": "latency_p50_s", "value": self.latency.percentile(50)},
            {"metric": "latency_p95_s", "value": self.latency.percentile(95)},
            {"metric": "latency_p99_s", "value": self.latency.percentile(99)},
        ]
