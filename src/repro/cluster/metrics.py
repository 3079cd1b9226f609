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
counters and latency samples.
"""

from __future__ import annotations

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
