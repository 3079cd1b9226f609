"""Router load runs on the replay path: determinism, actions, accounting.

A load run is ``TraceReplayer(router, trace_from_arrivals(...)).run()``;
the counters and nearest-rank percentiles are read from
``router.metrics``, the offered count and makespan from the replay.
"""

import pytest

from repro.cluster.router import NO_HEDGING, LeastLoadedPolicy, Router
from repro.serve import PoissonArrivals
from repro.workloads import TraceReplayer, trace_from_arrivals

from tests.cluster.conftest import fast_config


def make_router(servable, n=2):
    return Router(
        servable,
        n_replicas=n,
        replica_config=fast_config(),
        policy=LeastLoadedPolicy(),
        hedge=NO_HEDGING,
    )


def load_run(servable, rate=800.0, duration=0.05, seed=0, actions=()):
    """Replay seeded Poisson arrivals; returns ``(router.metrics, replay)``."""
    router = make_router(servable)
    trace = trace_from_arrivals(PoissonArrivals(rate), duration, seed=seed)
    return router.metrics, TraceReplayer(router, trace, actions=actions).run()


class TestHarness:
    def test_accounting_consistent(self, servable):
        """The router's counters account for every offered request."""
        metrics, replay = load_run(servable)
        assert replay.offered == metrics.completed + metrics.shed + metrics.failed
        assert metrics.failed == 0
        assert metrics.completed / replay.makespan_s > 0
        assert metrics.latency.percentile(50) <= metrics.latency.percentile(99)

    def test_deterministic_across_runs(self, servable):
        a, a_replay = load_run(servable, seed=42)
        b, b_replay = load_run(servable, seed=42)
        assert a.latency.samples == b.latency.samples
        assert (a_replay.offered, a.completed, a.shed) == (
            b_replay.offered, b.completed, b.shed
        )
        assert a_replay.makespan_s == b_replay.makespan_s

    def test_different_seeds_differ(self, servable):
        a, _ = load_run(servable, seed=1)
        b, _ = load_run(servable, seed=2)
        assert a.latency.samples != b.latency.samples

    def test_actions_fire_at_scheduled_times(self, servable):
        """Actions given out of order still fire in time order."""
        fired = []
        load_run(servable, actions=[(0.02, fired.append), (0.01, fired.append)])
        assert fired == [pytest.approx(0.01), pytest.approx(0.02)]


class TestTraceMode:
    def test_empty_trace_replays_cleanly(self, servable):
        """A trace with zero events is a valid (degenerate) workload."""
        from repro.workloads import Trace

        empty = Trace(name="idle", seed=0, duration_s=0.05, payload_pool=4,
                      events=())
        router = make_router(servable)
        replay = TraceReplayer(router, empty).run()
        assert replay.offered == 0
        assert router.metrics.completed == 0
        assert router.metrics.shed == 0
        assert router.metrics.latency.percentile(99) == 0.0
        assert replay.makespan_s == pytest.approx(0.05)

    def test_trace_replay_matches_arrivals_mode(self, servable):
        """A trace built from hand-spawned streams, replayed with the pool
        drawn from stream 1, equals the seeded recipe."""
        from repro.utils.rng import spawn_generators
        from repro.workloads.trace import trace_from_streams

        inline, inline_replay = load_run(servable, seed=5)
        arrival_rng, payload_rng, pick_rng = spawn_generators(5, 3)
        pool = payload_rng.random((64, 25))
        trace = trace_from_streams(
            PoissonArrivals(800.0), 0.05, arrival_rng, pick_rng, 64, seed=5,
        )
        router = make_router(servable)
        replay = TraceReplayer(router, trace, payloads=pool).run()
        assert router.metrics.latency.samples == inline.latency.samples
        assert router.metrics.completed == inline.completed
        assert replay.makespan_s == inline_replay.makespan_s
