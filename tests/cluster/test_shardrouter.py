"""ShardRouter: placement, scatter-gather parity, degraded mode, faults."""

import numpy as np
import pytest

from repro.cluster.benchrun import drill_replica_config
from repro.cluster.replica import ReplicaConfig
from repro.cluster.shardrouter import ShardRouter, place_shards
from repro.errors import ConfigurationError, ServingError
from repro.nn.stacked import LayerSpec, StackedAutoencoder
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import SimulatedServiceModel
from repro.shard.servables import gather_outputs
from repro.shard.shards import partition
from repro.testing.faults import FaultPlan, inject
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.replay import TraceReplayer
from repro.workloads.trace import trace_from_arrivals


@pytest.fixture(scope="module")
def stack():
    x = np.random.default_rng(0).random((48, 12))
    model = StackedAutoencoder(
        12,
        [LayerSpec(10, epochs=1, batch_size=16), LayerSpec(8, epochs=1, batch_size=16)],
        seed=0,
    )
    model.pretrain(x)
    return model


def _router(stack, n=2, **kw):
    return ShardRouter(
        partition(stack, n), replica_config=drill_replica_config(), **kw
    )


def _drain(router, sreq):
    guard = 0
    while sreq.complete_s is None and not sreq.failed:
        t = router.next_event_time()
        assert t is not None, "request stuck with no pending events"
        router.poll(t)
        guard += 1
        assert guard < 1000
    return sreq


#: ``place_shards(len(fleet), fleet, n_vnodes=v)`` per ``(fleet, v)``, as
#: recorded before the ring was shared with ``ConsistentHashPolicy``; a
#: smaller shard count places the same replicas in the same order.
PINNED_PLACEMENTS = {
    ((0, 1), 1): [1, 0],
    ((0, 1), 8): [0, 1],
    ((0, 1), 64): [0, 1],
    ((0, 1, 2), 1): [2, 1, 0],
    ((0, 1, 2), 8): [0, 2, 1],
    ((0, 1, 2), 64): [2, 1, 0],
    ((0, 1, 2, 3), 1): [2, 3, 1, 0],
    ((0, 1, 2, 3), 8): [0, 3, 2, 1],
    ((0, 1, 2, 3), 64): [2, 1, 3, 0],
    (tuple(range(8)), 1): [2, 3, 7, 1, 6, 4, 0, 5],
    (tuple(range(8)), 8): [7, 3, 6, 5, 1, 0, 4, 2],
    (tuple(range(8)), 64): [2, 6, 5, 0, 3, 7, 4, 1],
    (tuple(range(16)), 1): [
        8, 2, 14, 3, 6, 7, 12, 11,
        5, 15, 1, 4, 9, 13, 0, 10,
    ],
    (tuple(range(16)), 8): [
        7, 8, 13, 3, 6, 12, 14, 0,
        5, 9, 11, 2, 15, 10, 1, 4,
    ],
    (tuple(range(16)), 64): [
        14, 6, 13, 11, 15, 12, 4, 3,
        5, 9, 7, 8, 0, 10, 1, 2,
    ],
    ((3, 7, 11), 1): [11, 3, 7],
    ((3, 7, 11), 8): [7, 3, 11],
    ((3, 7, 11), 64): [7, 11, 3],
    ((0, 5, 9, 12, 40), 1): [9, 0, 12, 5, 40],
    ((0, 5, 9, 12, 40), 8): [0, 5, 9, 40, 12],
    ((0, 5, 9, 12, 40), 64): [40, 5, 9, 12, 0],
}


class TestPlacement:
    def test_one_replica_per_shard_deterministically(self):
        a = place_shards(4, range(4))
        b = place_shards(4, range(4))
        assert a == b
        assert sorted(a) == [0, 1, 2, 3]
        assert len(set(a.values())) == 4

    def test_placement_pure_function_of_fleet_ids(self):
        assert place_shards(2, [5, 9, 11]) == place_shards(2, [11, 5, 9])

    def test_too_few_replicas_rejected(self):
        with pytest.raises(ConfigurationError):
            place_shards(3, range(2))

    def test_placements_are_pinned_for_every_shard_count(self):
        for (fleet, n_vnodes), replicas in PINNED_PLACEMENTS.items():
            for n in range(1, len(fleet) + 1):
                placement = place_shards(n, fleet, n_vnodes=n_vnodes)
                assert placement == dict(enumerate(replicas[:n])), (fleet, n_vnodes, n)


class TestConstruction:
    def test_requires_complete_shard_set(self, stack):
        shards = partition(stack, 4)
        with pytest.raises(ConfigurationError, match="complete"):
            ShardRouter(shards[:-1])

    def test_replicas_match_placement(self, stack):
        router = _router(stack, 2)
        assert router.n_shards == 2
        assert router.n_live == 2
        for k in range(2):
            assert router.replica_of(k).id == router.placement[k]


class TestScatterGather:
    def test_answer_equals_direct_gather_of_partial_outputs(self, stack):
        router = _router(stack, 2)
        payload = np.random.default_rng(1).random(12)
        sreq = router.submit(payload, 0.0)
        assert sreq is not None
        _drain(router, sreq)
        shards = router.shards
        oracle = gather_outputs(
            shards, [s.partial_output(payload[None, :])[0] for s in shards]
        )
        assert np.max(np.abs(sreq.result - oracle)) == 0.0
        assert not sreq.degraded

    def test_rejects_wrong_payload_shape(self, stack):
        router = _router(stack, 2)
        with pytest.raises(ServingError):
            router.submit(np.zeros(5), 0.0)


class TestDegradedMode:
    def test_replica_death_degrades_not_fails(self, stack):
        router = _router(stack, 2)
        victim = router.placement[1]
        trace = trace_from_arrivals(PoissonArrivals(2000.0), 0.05, seed=0)
        plan = FaultPlan.fail("replica.serve", nth=2, match={"replica": victim})
        with inject(plan):
            TraceReplayer(router, trace).run()
        assert plan.fired() == 1
        assert router.metrics.replica_deaths == 1
        assert router.metrics.failed == 0
        assert router.degraded_requests >= 1
        assert router.n_live == 1

    def test_scatter_fault_loses_one_leg_only(self, stack):
        router = _router(stack, 2)
        plan = FaultPlan.fail(
            "shard.exchange", nth=0, match={"phase": "scatter", "shard": 1}
        )
        with inject(plan):
            sreq = router.submit(np.random.default_rng(2).random(12), 0.0)
        assert plan.fired() == 1
        assert sreq is not None
        _drain(router, sreq)
        assert sreq.lost_shards == (1,)
        assert sreq.degraded
        assert not sreq.failed
        # zero-filled slice for the lost stack shard
        lo, hi = router.shards[1].partition.bounds(
            len(stack.layer_sizes) - 1, 1
        )
        assert np.all(sreq.result[lo:hi] == 0.0)
        assert router.degraded_requests == 1
        assert router.degraded_legs == 1

    def test_all_legs_lost_fails_the_request(self, stack):
        router = _router(stack, 2)
        plan = FaultPlan.fail("shard.exchange", nth=0, times=2,
                              match={"phase": "scatter"})
        with inject(plan):
            sreq = router.submit(np.random.default_rng(3).random(12), 0.0)
        assert sreq is None
        assert router.metrics.shed == 1

    def test_gather_fault_fails_the_request(self, stack):
        router = _router(stack, 2)
        plan = FaultPlan.fail("shard.gather", nth=0)
        sreq = router.submit(np.random.default_rng(4).random(12), 0.0)
        assert sreq is not None
        with inject(plan):
            guard = 0
            while sreq.complete_s is None and not sreq.failed:
                t = router.next_event_time()
                if t is None:
                    break
                router.poll(t)
                guard += 1
                assert guard < 1000
        assert plan.fired() == 1
        assert sreq.failed

    def test_backpressured_leg_degrades(self, stack):
        tiny = ReplicaConfig(
            policy=BatchPolicy(max_batch_size=4, max_wait_s=1e-3,
                               max_queue_depth=1),
            n_workers=1,
            cache_entries=0,
            service_model_factory=SimulatedServiceModel,
        )
        router = ShardRouter(partition(stack, 2), replica_config=tiny)
        rng = np.random.default_rng(5)
        degraded_before = router.degraded_legs
        for _ in range(64):  # overrun the depth-1 queues
            router.submit(rng.random(12), 0.0)
        assert router.degraded_legs > degraded_before
