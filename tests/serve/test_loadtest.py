"""Serving load runs on the replay path: arrivals, determinism, batching gains.

A load run is ``TraceReplayer(engine, trace_from_arrivals(...)).run()``;
the counters and nearest-rank percentiles are read from
``engine.metrics``, the offered count and makespan from the replay.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve import BurstArrivals, PoissonArrivals
from repro.serve.batcher import BatchPolicy
from repro.serve.cache import FeatureCache
from repro.serve.engine import ConstantServiceModel, ServingEngine
from repro.serve.registry import ServableModel
from repro.workloads import TraceReplayer, trace_from_arrivals


@pytest.fixture
def servable(small_ae):
    return ServableModel("ae", small_ae)


def make_engine(servable, max_batch, **engine_kwargs):
    engine_kwargs.setdefault(
        # 1 ms dispatch overhead + 0.05 ms/example: strong batching incentive.
        "service_model",
        ConstantServiceModel(base_s=1e-3, per_example_s=5e-5),
    )
    return ServingEngine(
        servable,
        policy=BatchPolicy(max_batch_size=max_batch, max_wait_s=2e-3),
        **engine_kwargs,
    )


def load_run(servable, max_batch, rate, duration=0.5, seed=0, payload_pool=64,
             **engine_kwargs):
    """Replay seeded Poisson arrivals; returns ``(engine.metrics, replay)``."""
    engine = make_engine(servable, max_batch, **engine_kwargs)
    trace = trace_from_arrivals(
        PoissonArrivals(rate), duration, seed=seed, payload_pool=payload_pool
    )
    return engine.metrics, TraceReplayer(engine, trace).run()


class TestArrivalProcesses:
    def test_poisson_rate_roughly_respected(self):
        rng = np.random.default_rng(0)
        times = PoissonArrivals(1000.0).arrival_times(2.0, rng)
        assert 1600 < len(times) < 2400
        assert all(0 <= t < 2.0 for t in times)
        assert times == sorted(times)

    def test_poisson_deterministic_given_rng(self):
        a = PoissonArrivals(500.0).arrival_times(1.0, np.random.default_rng(7))
        b = PoissonArrivals(500.0).arrival_times(1.0, np.random.default_rng(7))
        assert a == b

    def test_burst_rate_profile(self):
        rng = np.random.default_rng(0)
        arrivals = BurstArrivals(100.0, 5000.0, period_s=1.0, burst_len_s=0.1)
        times = arrivals.arrival_times(1.0, rng)
        in_burst = sum(1 for t in times if t < 0.1)
        assert in_burst > len(times) / 2  # the 10% burst window dominates

    @pytest.mark.parametrize(
        "ctor",
        [
            lambda: PoissonArrivals(0.0),
            lambda: BurstArrivals(100.0, 50.0, 1.0, 0.1),
            lambda: BurstArrivals(100.0, 200.0, 1.0, 2.0),
        ],
    )
    def test_invalid_processes(self, ctor):
        with pytest.raises(ConfigurationError):
            ctor()

    def test_burst_len_equal_to_period_is_valid_boundary(self):
        """burst_len_s == period_s: the burst never closes, so the
        process degenerates to constant Poisson at burst_rps."""
        burst = BurstArrivals(100.0, 800.0, period_s=0.25, burst_len_s=0.25)
        a = burst.arrival_times(0.5, np.random.default_rng(5))
        b = PoissonArrivals(800.0).arrival_times(0.5, np.random.default_rng(5))
        assert a == b

    def test_reexport_is_the_workloads_class(self):
        """repro.serve and repro re-export the workloads classes."""
        import repro
        from repro.workloads import arrivals

        assert PoissonArrivals is arrivals.PoissonArrivals is repro.PoissonArrivals
        assert BurstArrivals is arrivals.BurstArrivals is repro.BurstArrivals


class TestLoadTestHarness:
    """The serving gates, on one engine."""

    def test_report_accounting_consistent(self, servable):
        """The engine's counters account for every offered request."""
        metrics, replay = load_run(servable, max_batch=8, rate=2000.0)
        assert replay.offered == metrics.completed + metrics.shed
        assert metrics.completed > 0
        latency = metrics.latency
        assert latency.percentile(50) <= latency.percentile(95) <= latency.percentile(99)
        assert 1.0 <= metrics.mean_batch_size <= 8.0

    def test_deterministic_across_runs(self, servable, small_ae):
        """Same seed ⇒ bit-identical latency samples and counters."""
        first, first_replay = load_run(servable, max_batch=16, rate=3000.0, seed=42)
        second, second_replay = load_run(
            ServableModel("ae2", small_ae), max_batch=16, rate=3000.0, seed=42
        )
        assert first.latency.samples == second.latency.samples
        assert first.wait.samples == second.wait.samples
        assert first.completed == second.completed
        assert first_replay.makespan_s == second_replay.makespan_s
        assert first.latency.percentile(99) == second.latency.percentile(99)

    def test_different_seeds_differ(self, servable, small_ae):
        first, _ = load_run(servable, max_batch=16, rate=3000.0, seed=1)
        second, _ = load_run(
            ServableModel("ae2", small_ae), max_batch=16, rate=3000.0, seed=2
        )
        assert first.latency.samples != second.latency.samples

    def test_batching_at_least_doubles_saturated_throughput(self, servable, small_ae):
        """The acceptance gate: at high arrival rate, dynamic batching
        must deliver ≥ 2× the throughput of batch-size-1 serving."""
        # base_s=1ms ⇒ batch-1 capacity ≈ 950 rps; offered 8000 rps.
        unbatched, unbatched_replay = load_run(servable, max_batch=1, rate=8000.0)
        batched, batched_replay = load_run(
            ServableModel("ae2", small_ae), max_batch=32, rate=8000.0
        )
        assert unbatched.shed > 0  # the unbatched server saturates
        assert (batched.completed / batched_replay.makespan_s
                >= 2.0 * unbatched.completed / unbatched_replay.makespan_s)
        assert batched.mean_batch_size > 2.0

    def test_cache_accelerates_repetitive_traffic(self, servable):
        metrics, _ = load_run(
            servable, max_batch=8, rate=2000.0, payload_pool=4,  # heavy reuse
            cache=FeatureCache(),
        )
        assert metrics.cache_hits > metrics.completed / 2

    def test_all_served_requests_carry_results(self, servable):
        engine = ServingEngine(
            servable,
            policy=BatchPolicy(max_batch_size=4, max_wait_s=1e-3),
            service_model=ConstantServiceModel(base_s=1e-4, per_example_s=1e-5),
        )
        trace = trace_from_arrivals(PoissonArrivals(500.0), 0.2, seed=3)
        replay = TraceReplayer(engine, trace).run()
        assert engine.metrics.shed == 0
        assert engine.metrics.completed == replay.offered == replay.completed


class TestTraceMode:
    def test_trace_mode_matches_arrivals_mode(self, servable, small_ae):
        """A trace built from hand-spawned streams, replayed with the pool
        drawn from stream 1, equals the seeded recipe: the replayer
        rebuilds that same pool from the trace's seed."""
        from repro.utils.rng import spawn_generators
        from repro.workloads.trace import trace_from_streams

        inline, _ = load_run(servable, max_batch=8, rate=2000.0, seed=9)
        arrival_rng, payload_rng, pick_rng = spawn_generators(9, 3)
        pool = payload_rng.random((64, 25))
        trace = trace_from_streams(
            PoissonArrivals(2000.0), 0.5, arrival_rng, pick_rng, 64, seed=9,
        )
        engine = make_engine(ServableModel("ae2", small_ae), max_batch=8)
        TraceReplayer(engine, trace, payloads=pool).run()
        replayed = engine.metrics
        assert replayed.latency.samples == inline.latency.samples
        assert replayed.completed == inline.completed
        assert replayed.latency.percentile(99) == inline.latency.percentile(99)
