"""Serving metrics: counters, histograms, and tail-latency percentiles.

Throughput numbers without tail latencies hide exactly the effect
micro-batching trades on — a batch that waits ``max_wait_s`` for
companions buys device efficiency with every rider's p99.  The metrics
layer therefore records full latency distributions (queue wait, service
time, end-to-end) plus batch-size and queue-depth observations.  Each
event is counted once, where it happens: a dispatched batch is one entry
of ``batch_sizes``, a cache lookup one hit or miss, and the cache's own
``evictions`` counter (:class:`~repro.serve.cache.FeatureCache`) is the
only eviction count.  Reports build their rows from these fields.

All state is plain Python — deterministic, no wall clock — so two
identical simulated runs produce bit-identical metrics.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError

#: Histogram bucket geometry: log-spaced edges over [1 µs, 1000 s).
_BUCKETS_PER_DECADE = 8
_LO_EXP, _HI_EXP = -6, 3


class LatencyHistogram:
    """Log-bucketed histogram that also keeps exact samples.

    The buckets give a compact, comparable fingerprint of a run (the
    determinism tests assert two seeded runs produce identical bucket
    counts); the raw samples give exact nearest-rank percentiles.

    :meth:`record` only checks and appends, because it runs several
    times per served request.  :meth:`bucket_counts` bins the samples
    recorded since its last call, and each percentile ``q`` that has
    been asked for is kept up to date the same way (:class:`_RunningRank`),
    so a caller that asks for p99 after every completion, as the
    hedging router does, pays O(log n) per sample instead of a sort.
    """

    def __init__(self):
        n = (_HI_EXP - _LO_EXP) * _BUCKETS_PER_DECADE
        self._edges = [
            10.0 ** (_LO_EXP + i / _BUCKETS_PER_DECADE) for i in range(n + 1)
        ]
        self._counts = [0] * (n + 2)  # + underflow and overflow buckets
        self._samples: List[float] = []
        self._binned = 0  # samples already counted in _counts
        self._ranks: Dict[float, _RunningRank] = {}

    def record(self, seconds: float) -> None:
        if not seconds >= 0:  # also rejects NaN
            raise ConfigurationError(f"latency must be >= 0, got {seconds}")
        self._samples.append(float(seconds))

    def _bucket(self, seconds: float) -> int:
        """Index of ``seconds``'s bucket in ``_counts``."""
        if seconds < self._edges[0]:
            return 0
        if seconds >= self._edges[-1]:
            return len(self._counts) - 1
        # Bucket index straight from the exponent (uniform in log space).
        i = int((math.log10(seconds) - _LO_EXP) * _BUCKETS_PER_DECADE)
        i = min(max(i, 0), len(self._counts) - 3)
        # Guard against float rounding at bucket edges.
        while seconds < self._edges[i]:
            i -= 1
        while seconds >= self._edges[i + 1]:
            i += 1
        return i + 1

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self._samples else 0.0

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

    def bucket_counts(self) -> Tuple[int, ...]:
        """The bucket-count fingerprint (underflow, …, overflow)."""
        for seconds in self._samples[self._binned:]:
            self._counts[self._bucket(seconds)] += 1
        self._binned = len(self._samples)
        return tuple(self._counts)


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
        self.rejected = 0
        self.served = 0
        self.cancelled = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batch_sizes: List[int] = []  # one entry per dispatched batch
        self.max_queue_depth = 0
        self.wait = LatencyHistogram()
        self.service = LatencyHistogram()
        self.latency = LatencyHistogram()

    # ------------------------------------------------------------------
    def on_queue_depth(self, depth: int) -> None:
        self.max_queue_depth = max(self.max_queue_depth, depth)

    def on_batch(self, size: int) -> None:
        self.batch_sizes.append(int(size))

    def on_served(self, wait_s: float, service_s: float, latency_s: float) -> None:
        self.served += 1
        self.wait.record(wait_s)
        self.service.record(service_s)
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
