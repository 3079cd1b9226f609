"""Tests for repro.serve.metrics — histograms and the metrics bundle."""

import math
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve.metrics import LatencyHistogram, ServingMetrics


def nearest_rank(samples, q):
    return sorted(samples)[max(1, math.ceil(q / 100.0 * len(samples))) - 1]


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.percentile(99) == 0.0
        assert hist.samples == ()

    def test_percentiles_nearest_rank(self):
        hist = LatencyHistogram()
        for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]:
            hist.record(v)
        assert hist.percentile(50) == 5.0
        assert hist.percentile(95) == 10.0
        assert hist.percentile(100) == 10.0
        assert hist.percentile(0) == 1.0

    def test_samples_are_a_read_only_copy_in_arrival_order(self):
        hist = LatencyHistogram()
        values = [3e-3, 0.0, 1e-9, 5.0, math.inf, 3e-3]
        for v in values:
            hist.record(v)
        samples = hist.samples
        assert samples == tuple(values)
        with pytest.raises(TypeError):
            samples[0] = 1.0
        hist.record(7.0)
        assert samples == tuple(values)  # a copy: later samples don't show
        assert hist.samples[-1] == 7.0 and hist.count == 7

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
        assert hist.samples == (0.5,)
        assert hist.percentile(100) == 0.5

    def test_nan_error_names_the_sample(self):
        with pytest.raises(ConfigurationError, match=r"^latency must be >= 0, got nan$"):
            LatencyHistogram().record(float("nan"))

    def test_bad_percentile_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram().percentile(101)


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
        metrics.shed += 1
        metrics.cancelled += 2
        metrics.on_batch(4)
        metrics.on_batch(2)
        metrics.on_completed(0.001, 0.003)
        assert metrics.received == 2
        assert metrics.shed == 1
        assert metrics.cancelled == 2
        assert metrics.completed == 1
        assert metrics.batch_sizes == [4, 2]  # one entry per dispatched batch
        assert metrics.mean_batch_size == pytest.approx(3.0)

    def test_cancelled_counter_in_rows(self):
        # A withdrawn request is counted as cancelled, never as completed
        # or shed, and leaves the latency histograms empty.
        metrics = ServingMetrics()
        assert metrics.cancelled == 0
        metrics.received += 2
        metrics.cancelled += 2
        assert metrics.cancelled == 2
        assert metrics.completed == 0
        assert metrics.shed == 0
        assert metrics.latency.count == 0

    def test_served_request_reaches_every_histogram(self):
        metrics = ServingMetrics()
        metrics.received += 1
        metrics.on_completed(0.001, 0.003)
        assert metrics.completed == 1
        assert metrics.wait.samples == (0.001,)
        assert metrics.latency.samples == (0.003,)
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
