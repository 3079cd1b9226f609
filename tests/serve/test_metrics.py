"""Tests for repro.serve.metrics — histograms and the metrics bundle."""

import math
import time
from bisect import bisect_right

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve import metrics as metrics_module
from repro.serve.metrics import LatencyHistogram, ServingMetrics

#: The bucket edges by definition: log-spaced over [1 µs, 1000 s).
EDGES = [
    10.0 ** (metrics_module._LO_EXP + i / metrics_module._BUCKETS_PER_DECADE)
    for i in range(
        (metrics_module._HI_EXP - metrics_module._LO_EXP)
        * metrics_module._BUCKETS_PER_DECADE + 1
    )
]


def eager_counts(samples):
    """Per-sample binning by definition: bucket i holds edges[i-1] <= x <
    edges[i]; 0 is underflow and the last is overflow."""
    counts = [0] * (len(EDGES) + 1)
    for x in samples:
        counts[bisect_right(EDGES, x)] += 1
    return tuple(counts)


def nearest_rank(samples, q):
    return sorted(samples)[max(1, math.ceil(q / 100.0 * len(samples))) - 1]


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.percentile(99) == 0.0
        assert hist.mean == 0.0

    def test_percentiles_nearest_rank(self):
        hist = LatencyHistogram()
        for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]:
            hist.record(v)
        assert hist.percentile(50) == 5.0
        assert hist.percentile(95) == 10.0
        assert hist.percentile(100) == 10.0
        assert hist.percentile(0) == 1.0

    def test_mean(self):
        hist = LatencyHistogram()
        for v in (1.0, 3.0):
            hist.record(v)
        assert hist.mean == pytest.approx(2.0)

    def test_bucket_counts_partition_samples(self):
        hist = LatencyHistogram()
        values = [0.0, 1e-9, 3.7e-4, 0.02, 5.0, 1e6]
        for v in values:
            hist.record(v)
        counts = hist.bucket_counts()
        assert sum(counts) == len(values)
        assert counts[0] == 2  # 0.0 and 1e-9 underflow
        assert counts[-1] == 1  # 1e6 overflows

    def test_bucket_edges_consistent_with_samples(self):
        # Values at awkward float positions must land in exactly one bucket.
        hist = LatencyHistogram()
        for exp in range(-6, 3):
            hist.record(10.0**exp)
        assert sum(hist.bucket_counts()) == 9

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram().record(-1.0)

    @pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("-inf")])
    def test_bad_sample_rejected_before_it_is_kept(self, bad):
        hist = LatencyHistogram()
        hist.record(0.5)
        with pytest.raises(ConfigurationError, match=r"latency must be >= 0, got"):
            hist.record(bad)
        assert hist.count == 1
        assert hist.total == 0.5
        assert hist.percentile(100) == 0.5
        assert sum(hist.bucket_counts()) == 1

    def test_nan_error_names_the_sample(self):
        with pytest.raises(ConfigurationError, match=r"^latency must be >= 0, got nan$"):
            LatencyHistogram().record(float("nan"))

    def test_bad_percentile_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram().percentile(101)


class TestLazyBuckets:
    """bucket_counts() bins on demand; the counts equal per-sample binning."""

    def test_seeded_samples_match_eager_binning(self):
        rng = np.random.default_rng(0)
        samples = (10.0 ** rng.uniform(-8.0, 4.0, size=5000)).tolist()
        hist = LatencyHistogram()
        for x in samples:
            hist.record(x)
        counts = hist.bucket_counts()
        assert counts == eager_counts(samples)
        assert counts[0] > 0 and counts[-1] > 0  # both tails exercised

    def test_exact_edges_and_their_neighbours(self):
        samples = [0.0, math.inf]
        for edge in EDGES:
            samples += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
        hist = LatencyHistogram()
        for x in samples:
            hist.record(x)
        assert hist.bucket_counts() == eager_counts(samples)

    def test_underflow_and_overflow(self):
        hist = LatencyHistogram()
        for x in (0.0, 1e-7, EDGES[0], EDGES[-1], 5e3, math.inf):
            hist.record(x)
        counts = hist.bucket_counts()
        assert counts[0] == 2
        assert counts[1] == 1
        assert counts[-1] == 3
        assert sum(counts) == 6

    def test_interleaved_record_and_bucket_counts(self):
        rng = np.random.default_rng(1)
        hist, seen = LatencyHistogram(), []
        assert hist.bucket_counts() == eager_counts(seen)
        for chunk in (1, 7, 0, 50, 3, 400):
            for x in (10.0 ** rng.uniform(-7.0, 3.5, size=chunk)).tolist():
                hist.record(x)
                seen.append(x)
            assert hist.bucket_counts() == eager_counts(seen)
            assert hist.bucket_counts() == eager_counts(seen)  # idempotent


class TestRunningPercentile:
    """Percentiles stay exact nearest ranks while samples keep arriving."""

    @pytest.mark.parametrize("q", [0, 1, 33.3, 50, 95, 99, 99.9, 100])
    def test_after_each_record_equals_sorted_rank(self, q):
        rng = np.random.default_rng(2)
        values = rng.exponential(1e-3, size=600)
        values[::7] = values[3]  # ties
        hist, seen = LatencyHistogram(), []
        for x in values.tolist():
            hist.record(x)
            seen.append(x)
            assert hist.percentile(q) == nearest_rank(seen, q)

    def test_many_quantiles_with_irregular_asks(self):
        rng = np.random.default_rng(3)
        hist, seen = LatencyHistogram(), []
        for chunk in (5, 1, 200, 0, 13, 1000):
            for x in rng.lognormal(-6.0, 1.0, size=chunk).tolist():
                hist.record(x)
                seen.append(x)
            for q in (50, 95, 99):
                assert hist.percentile(q) == nearest_rank(seen, q)

    def test_cost_per_ask_grows_slowly_with_samples(self):
        """1,000 record + p99 pairs at 2x10^4 samples cost under 3x what
        they cost at 10^3: no sort per ask."""

        def pairs_s(n, seed):
            rng = np.random.default_rng(seed)
            hist = LatencyHistogram()
            for x in rng.random(n).tolist():
                hist.record(x)
            hist.percentile(99)  # warm-up
            extra = rng.random(1000).tolist()
            t0 = time.perf_counter()
            for x in extra:
                hist.record(x)
                hist.percentile(99)
            return time.perf_counter() - t0

        small, large = [], []
        for seed in range(5):
            small.append(pairs_s(10**3, seed))
            large.append(pairs_s(2 * 10**4, seed))
        assert min(large) < 3 * min(small)


class TestServingMetrics:
    def test_counters_roll_up(self):
        metrics = ServingMetrics()
        metrics.received += 2
        metrics.rejected += 1
        metrics.cancelled += 2
        metrics.on_batch(4)
        metrics.on_batch(2)
        metrics.on_served(0.001, 0.002, 0.003)
        metrics.on_queue_depth(7)
        metrics.on_queue_depth(3)
        assert metrics.received == 2
        assert metrics.rejected == 1
        assert metrics.cancelled == 2
        assert metrics.served == 1
        assert metrics.batch_sizes == [4, 2]  # one entry per dispatched batch
        assert metrics.mean_batch_size == pytest.approx(3.0)
        assert metrics.max_queue_depth == 7

    def test_cancelled_counter_in_rows(self):
        # A withdrawn request is counted as cancelled, never as served or
        # rejected, and leaves the latency histograms empty.
        metrics = ServingMetrics()
        assert metrics.cancelled == 0
        metrics.received += 2
        metrics.cancelled += 2
        assert metrics.cancelled == 2
        assert metrics.served == 0
        assert metrics.rejected == 0
        assert metrics.latency.count == 0

    def test_served_request_reaches_every_histogram(self):
        metrics = ServingMetrics()
        metrics.received += 1
        metrics.on_served(0.001, 0.002, 0.003)
        assert metrics.served == 1
        assert metrics.wait.percentile(50) == 0.001
        assert metrics.service.percentile(50) == 0.002
        assert metrics.latency.percentile(99) == 0.003

    def test_cache_accounting(self):
        metrics = ServingMetrics()
        metrics.cache_hits += 1
        metrics.cache_misses += 3
        assert metrics.cache_hits == 1
        assert metrics.cache_misses == 3
        assert metrics.cache_hit_rate == pytest.approx(0.25)

    def test_cold_cache_hit_rate_is_zero(self):
        assert ServingMetrics().cache_hit_rate == 0.0
