"""Tests for repro.workloads.replay — the duck-typed trace replayer."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServingError
from repro.serve.batcher import BatchPolicy
from repro.serve.cache import FeatureCache
from repro.serve.engine import ConstantServiceModel, ServingEngine
from repro.serve.registry import ServableModel
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.replay import TraceReplayer
from repro.workloads.trace import Trace, TraceEvent, trace_from_arrivals


@pytest.fixture
def servable(small_ae):
    return ServableModel("ae", small_ae)


def make_engine(servable, max_batch=16, queue_depth=64, cache=None):
    return ServingEngine(
        servable,
        policy=BatchPolicy(max_batch_size=max_batch, max_wait_s=2e-3,
                           max_queue_depth=queue_depth),
        service_model=ConstantServiceModel(base_s=1e-3, per_example_s=5e-5),
        cache=cache,
    )


def poisson_trace(seed=0, rate=1000.0, duration=0.3, **kwargs):
    return trace_from_arrivals(
        PoissonArrivals(rate), duration, seed=seed, **kwargs
    )


class TestReplay:
    def test_accounting_consistent(self, servable):
        trace = poisson_trace()
        report = TraceReplayer(make_engine(servable), trace).run()
        assert report.offered == trace.n_requests
        assert report.completed + report.shed + report.errors == report.offered
        assert report.errors == 0
        assert report.makespan_s >= trace.duration_s
        assert report.latency_p50_s <= report.latency_p95_s <= report.latency_p99_s
        assert report.fingerprint == trace.fingerprint()

    def test_engine_counts_each_event_once(self, servable):
        """After a drained replay through a cached engine with no
        cancellations, every request is one lookup and ends served or
        rejected, and the cache's own counter is the eviction count."""

        class CountingCache(FeatureCache):
            added = 0  # stores of a key the cache did not hold

            def store(self, key, value):
                self.added += self.lookup(key) is None
                super().store(key, value)

        cache = CountingCache(max_entries=16)
        engine = make_engine(servable, queue_depth=8, cache=cache)
        report = TraceReplayer(
            engine, poisson_trace(seed=3, rate=8000.0, duration=0.2)
        ).run()
        m = engine.metrics
        assert engine.outstanding == 0 and m.cancelled == 0
        assert report.offered == m.received
        assert m.cache_hits + m.cache_misses == m.received
        assert m.cache_hits + sum(m.batch_sizes) == m.served
        assert m.received == m.served + m.rejected
        assert cache.evictions == cache.added - len(cache)
        assert min(m.cache_hits, m.cache_misses, m.rejected, cache.evictions) > 0

    def test_bit_identical_across_runs(self, servable, small_ae):
        trace = poisson_trace(seed=42)
        first = TraceReplayer(make_engine(servable), trace).run()
        second = TraceReplayer(
            make_engine(ServableModel("ae2", small_ae)), trace
        ).run()
        assert first == second  # every field, including p99

    def test_single_use(self, servable):
        replayer = TraceReplayer(make_engine(servable), poisson_trace())
        replayer.run()
        with pytest.raises(ServingError, match="single-use"):
            replayer.run()

    def test_invalid_trace_rejected_on_construction(self, servable):
        bad = Trace(name="bad", seed=0, duration_s=1.0, payload_pool=4,
                    events=(TraceEvent(0.2), TraceEvent(0.1)))
        with pytest.raises(ConfigurationError, match="precedes"):
            TraceReplayer(make_engine(servable), bad)

    def test_train_events_require_trainer(self, servable):
        trace = Trace(name="t", seed=0, duration_s=1.0, payload_pool=4,
                      events=(TraceEvent(0.1, "train"),))
        with pytest.raises(ConfigurationError, match="trainer"):
            TraceReplayer(make_engine(servable), trace)

    def test_explicit_payloads_validated(self, servable):
        trace = poisson_trace(payload_pool=8)
        with pytest.raises(ConfigurationError, match="payloads"):
            TraceReplayer(make_engine(servable), trace,
                          payloads=np.zeros((8, 7)))
        with pytest.raises(ConfigurationError, match="rows"):
            TraceReplayer(make_engine(servable), trace,
                          payloads=np.zeros((4, 25)))

    def test_shed_counted_when_target_refuses(self, servable):
        engine = make_engine(servable, max_batch=1, queue_depth=2)
        report = TraceReplayer(engine, poisson_trace(rate=4000.0)).run()
        assert report.shed > 0
        assert report.shed == engine.metrics.rejected
        assert report.shed_rate == pytest.approx(report.shed / report.offered)

    def test_inline_cache_hits_counted_once(self, servable):
        trace = poisson_trace(rate=2000.0, payload_pool=4)
        engine = make_engine(servable, cache=FeatureCache())
        report = TraceReplayer(engine, trace).run()
        assert report.cache_hits > 0
        assert report.completed == report.offered  # hits aren't double-counted
        assert report.errors == 0

    def test_run_leaves_no_cyclic_garbage(self, servable):
        """What run() leaves for the cyclic collector stays under 64 B per
        request: no request object (with its payload and result views)
        outlives the replay in a reference cycle."""
        trace = poisson_trace(rate=10_000.0, duration=0.5)  # ~5,000 requests
        replayer = TraceReplayer(make_engine(servable, max_batch=32, queue_depth=256), trace)
        gc.collect()
        tracemalloc.start()
        try:
            report = replayer.run()
            after_run = tracemalloc.get_traced_memory()[0]
            gc.collect()
            after_collect = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert report.completed > 4_000
        assert (after_run - after_collect) / trace.n_requests < 64


class _FlakyTrainer:
    """step() fails on the second call; charges 1 ms otherwise."""

    def __init__(self):
        self.calls = 0

    def step(self, now):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("optimizer diverged")
        return 1e-3


class TestTrainEvents:
    def trace_with_train(self):
        events = (
            TraceEvent(0.01, "request", 0),
            TraceEvent(0.02, "train"),
            TraceEvent(0.03, "train"),
            TraceEvent(0.04, "train"),
            TraceEvent(0.05, "request", 1),
        )
        return Trace(name="mixed", seed=0, duration_s=0.1, payload_pool=4,
                     events=events)

    def test_trainer_steps_counted(self, servable):
        trainer = _FlakyTrainer()
        report = TraceReplayer(
            make_engine(servable), self.trace_with_train(), trainer=trainer
        ).run()
        assert trainer.calls == 3
        assert report.train_steps == 2
        assert report.train_failures == 1
        assert report.train_seconds == pytest.approx(2e-3)
        assert "optimizer diverged" in report.first_train_error

    def test_trainer_failure_never_kills_serving(self, servable):
        report = TraceReplayer(
            make_engine(servable), self.trace_with_train(),
            trainer=_FlakyTrainer(),
        ).run()
        assert report.completed == 2
        assert report.errors == 0


class TestActions:
    def test_actions_fire_at_their_instant(self, servable):
        seen = []
        report = TraceReplayer(
            make_engine(servable),
            poisson_trace(duration=0.2),
            actions=[(0.05, seen.append), (0.15, seen.append)],
        ).run()
        assert seen == [0.05, 0.15]
        assert report.errors == 0
