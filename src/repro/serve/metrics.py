"""Serving metrics: counters, latency samples, and tail-latency percentiles.

Throughput numbers without tail latencies hide exactly the effect
micro-batching trades on — a batch that waits ``max_wait_s`` for
companions buys device efficiency with every rider's p99.  The metrics
layer therefore keeps every queue-wait and end-to-end latency sample
plus one batch-size entry per dispatched batch.  Each event is counted
once, where it happens: a request ends ``completed``, ``shed`` (refused
by admission control) or ``cancelled``, a cache lookup is one hit or
miss, and the cache's own ``evictions`` counter
(:class:`~repro.serve.cache.FeatureCache`) is the only eviction count.
A trace replay builds its report from these fields.

All state is plain Python — deterministic, no wall clock — so two
identical simulated runs produce bit-identical metrics.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError


class LatencyHistogram:
    """Every latency sample, with exact nearest-rank percentiles.

    :meth:`record` only checks and appends, because it runs for every
    served request.  Each percentile ``q`` that has been asked for is
    kept up to date as samples arrive (:class:`_RunningRank`), so a
    caller that asks for p99 after every completion, as the hedging
    router does, pays O(log n) per sample instead of a sort.
    """

    def __init__(self):
        self._samples: List[float] = []
        self._ranks: Dict[float, _RunningRank] = {}

    def record(self, seconds: float) -> None:
        if not seconds >= 0:  # also rejects NaN
            raise ConfigurationError(f"latency must be >= 0, got {seconds}")
        self._samples.append(float(seconds))

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Tuple[float, ...]:
        """The recorded samples in arrival order (a read-only copy)."""
        return tuple(self._samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile must lie in [0, 100], got {q}")
        if not self._samples:
            return 0.0
        rank = self._ranks.get(q)
        if rank is None:
            rank = self._ranks[q] = _RunningRank(q)
        return rank.value(self._samples)


class _RunningRank:
    """The nearest-rank ``q``-th percentile of a growing sample list.

    ``low`` is a max-heap (of negated values) holding the ``rank``
    smallest samples and ``high`` a min-heap holding the rest, where
    ``rank = max(1, ceil(q / 100 * n))`` as in a sort, so the answer is
    ``-low[0]``, equal to ``sorted(samples)[rank - 1]``.  Samples are
    taken in on each call, O(log n) apiece.
    """

    def __init__(self, q: float):
        self.q = q
        self.seen = 0
        self.low: List[float] = []
        self.high: List[float] = []

    def value(self, samples: List[float]) -> float:
        low, high = self.low, self.high
        if not self.seen:  # first call: split the sorted samples
            ordered = sorted(samples)
            k = self._rank(len(ordered))
            low[:] = [-x for x in reversed(ordered[:k])]  # ascending: a heap
            high[:] = ordered[k:]
        else:
            for x in samples[self.seen:]:
                if x <= -low[0]:
                    heapq.heappush(low, -x)
                else:
                    heapq.heappush(high, x)
            k = self._rank(len(samples))
            while len(low) < k:
                heapq.heappush(low, -heapq.heappop(high))
            while len(low) > k:
                heapq.heappush(high, -heapq.heappop(low))
        self.seen = len(samples)
        return -low[0]

    def _rank(self, n: int) -> int:
        return max(1, math.ceil(self.q / 100.0 * n))


class ServingMetrics:
    """Aggregated view of everything the serving engine did."""

    def __init__(self):
        self.received = 0
        self.completed = 0
        self.shed = 0
        self.cancelled = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batch_sizes: List[int] = []  # one entry per dispatched batch
        self.wait = LatencyHistogram()
        self.latency = LatencyHistogram()

    # ------------------------------------------------------------------
    def on_batch(self, size: int) -> None:
        self.batch_sizes.append(int(size))

    def on_completed(self, wait_s: float, latency_s: float) -> None:
        self.completed += 1
        self.wait.record(wait_s)
        self.latency.record(latency_s)

    # ------------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        return sum(self.batch_sizes) / len(self.batch_sizes) if self.batch_sizes else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Hit fraction over all cache lookups (0.0 when the cache is cold)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0
