"""Tests for repro.cluster.router — policies, spillover, hedging, fail-over."""

import gc
import math
import weakref
from bisect import bisect_left

import numpy as np
import pytest

from repro.cluster.router import (
    NO_HEDGING,
    ConsistentHashPolicy,
    HedgePolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    Router,
    _stable_hash,
    payload_key,
)
from repro.errors import ConfigurationError, ServingError
from repro.testing.faults import FaultPlan, inject

from tests.cluster.conftest import BASE_S, PER_EXAMPLE_S, PreferLowestId, fast_config


def make_router(servable, n=2, policy=None, hedge=NO_HEDGING, **cfg):
    return Router(
        servable,
        n_replicas=n,
        replica_config=fast_config(**cfg),
        policy=policy if policy is not None else PreferLowestId(),
        hedge=hedge,
    )


def payload(seed=0, n=25):
    return np.random.default_rng(seed).random(n)


def drain(router, until=5.0, step=0.005, start=0.0):
    """Poll on a fixed grid; returns every completion in order."""
    done = []
    t = start
    while t <= until:
        done.extend(router.poll(t))
        t += step
    return done


class TestConstruction:
    def test_requires_servable(self):
        with pytest.raises(ServingError, match="ServableModel"):
            Router(object(), n_replicas=1)

    def test_bad_replica_count(self, servable):
        with pytest.raises(ConfigurationError):
            make_router(servable, n=0)

    def test_payload_shape_validated(self, servable):
        router = make_router(servable, n=1)
        with pytest.raises(ServingError, match="1-D vector"):
            router.submit(np.zeros((2, 25)), 0.0)

    def test_payload_key_stable_and_content_sensitive(self):
        a, b = payload(1), payload(2)
        assert payload_key(a) == payload_key(a.copy())
        assert payload_key(a) != payload_key(b)


class TestKeyValues:
    """Routing keys keep the values every simulated-clock drill was
    recorded with."""

    #: payload_key values recorded before the key format was shared
    #: between the router and the feature cache.
    GOLDEN = {
        "contiguous": 1180649149696084654,
        "strided": 13142151229948441656,
        "big_endian": 15468675229241138300,
        "float32": 15121417239452860091,
    }

    @staticmethod
    def payloads():
        contiguous = np.random.default_rng(11).random(25)
        return {
            "contiguous": contiguous,
            "strided": np.random.default_rng(12).random(50)[::2],
            "big_endian": contiguous.astype(">f8"),
            "float32": np.random.default_rng(13).random(25).astype(np.float32),
        }

    def test_payload_key_golden_values(self):
        payloads = self.payloads()
        assert not payloads["strided"].flags["C_CONTIGUOUS"]
        assert {name: payload_key(p) for name, p in payloads.items()} == self.GOLDEN

    def test_router_keys_the_validated_float64_payload(self, servable):
        router = make_router(servable, n=2, policy=ConsistentHashPolicy())
        payloads = self.payloads()
        keys = {name: router.submit(p, 0.0).key for name, p in payloads.items()}
        assert keys["contiguous"] == self.GOLDEN["contiguous"]
        assert keys["strided"] == self.GOLDEN["strided"]
        # Validation converts to native float64 before keying.
        assert keys["big_endian"] == self.GOLDEN["contiguous"]
        assert keys["float32"] == payload_key(payloads["float32"].astype(np.float64))
        assert router.submit(payloads["contiguous"].tolist(), 0.0).key == keys["contiguous"]


class TestRoutingPolicies:
    def test_round_robin_rotates(self, servable):
        router = make_router(servable, n=3, policy=RoundRobinPolicy())
        for i in range(6):
            router.submit(payload(i), 0.0)
        received = [r.engine.metrics.received for r in router.replicas]
        assert received == [2, 2, 2]

    def test_least_loaded_steers_away_from_queues(self, servable):
        router = make_router(servable, n=2, policy=PreferLowestId())
        for i in range(3):  # pin three requests onto replica 0
            router.submit(payload(i), 0.0)
        router.policy = LeastLoadedPolicy()
        creq = router.submit(payload(99), 0.0)
        assert creq.legs[0].replica_id == 1

    def test_consistent_hash_is_sticky(self, servable):
        router = make_router(servable, n=3, policy=ConsistentHashPolicy())
        p = payload(7)
        first = router.submit(p, 0.0).legs[0].replica_id
        for i in range(4):
            creq = router.submit(p, 0.001 * (i + 1))
            assert creq.legs[0].replica_id == first

    def test_consistent_hash_spreads_distinct_keys(self, servable):
        router = make_router(servable, n=3, policy=ConsistentHashPolicy(),
                             cache_entries=0)
        hit = set()
        for i in range(30):
            creq = router.submit(payload(i), 0.0)
            if creq is not None and creq.legs:
                hit.add(creq.legs[0].replica_id)
        assert len(hit) >= 2

    def test_consistent_hash_feeds_replica_cache(self, servable):
        router = make_router(
            servable, n=2, policy=ConsistentHashPolicy(), cache_entries=32
        )
        p = payload(3)
        first = router.submit(p, 0.0)
        drain(router, until=0.1)
        assert first.complete_s is not None
        again = router.submit(p, 0.2)
        # Same key -> same replica -> its private cache answers inline.
        assert again.complete_s == 0.2
        assert router.metrics.cache_hits == 1
        assert again.served_by == first.served_by
        np.testing.assert_array_equal(again.result, first.result)

    def test_bad_vnode_count(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashPolicy(n_vnodes=0)


class TestPolicyContracts:
    """Pure policy-level contracts, checked against lightweight fakes."""

    class FakeReplica:
        def __init__(self, rid, outstanding=0):
            self.id = rid
            self.outstanding = outstanding

    class FakeRequest:
        def __init__(self, key):
            self.key = key

    def keyset(self, n=300):
        return [payload_key(payload(i)) for i in range(n)]

    def assignments(self, policy, keys, ids):
        replicas = [self.FakeReplica(rid) for rid in ids]
        return {
            k: policy.choose(self.FakeRequest(k), replicas).id for k in keys
        }

    def test_consistent_hash_add_replica_rebalance_bound(self):
        """Adding one replica to N=4 remaps ≤ 2/N of a fixed keyset."""
        policy = ConsistentHashPolicy()
        keys = self.keyset()
        before = self.assignments(policy, keys, [0, 1, 2, 3])
        after = self.assignments(policy, keys, [0, 1, 2, 3, 4])
        moved = sum(1 for k in keys if before[k] != after[k])
        assert moved <= len(keys) * 2 / 4
        # Every remapped key went TO the new member, never between old ones.
        assert all(after[k] == 4 for k in keys if before[k] != after[k])

    def test_consistent_hash_matches_the_tuple_ring(self):
        """The list ring picks what a sorted (hash, id) tuple ring picks,
        for any candidate order and for sparse ids."""
        keys = self.keyset() + [0, 2**64 - 1]
        policy = ConsistentHashPolicy(n_vnodes=16)
        for ids in ([0, 1], [0, 1, 2, 3], [3, 1, 2], [7], [2, 9, 40]):
            ring = sorted(
                (_stable_hash(f"replica-{rid}-vnode-{v}".encode()), rid)
                for rid in ids
                for v in range(16)
            )
            for key in keys:
                i = bisect_left(ring, (key, -1))
                expected = ring[i if i < len(ring) else 0][1]
                assert self.assignments(policy, [key], ids)[key] == expected

    def test_consistent_hash_remove_replica_rebalance_bound(self):
        """Removing one replica from N=5 remaps ≤ 2/N of a fixed keyset."""
        policy = ConsistentHashPolicy()
        keys = self.keyset()
        before = self.assignments(policy, keys, [0, 1, 2, 3, 4])
        after = self.assignments(policy, keys, [0, 1, 2, 3])
        moved = sum(1 for k in keys if before[k] != after[k])
        assert moved <= len(keys) * 2 / 5
        # Only the departed member's keys moved; survivors kept theirs.
        assert all(before[k] == 4 for k in keys if before[k] != after[k])

    def test_least_loaded_tie_break_is_deterministic(self):
        """Equal load ⇒ lowest id wins, whatever the candidate order."""
        policy = LeastLoadedPolicy()
        request = self.FakeRequest(0)
        replicas = [self.FakeReplica(rid, outstanding=3) for rid in (2, 0, 1)]
        for rotation in range(3):
            rotated = replicas[rotation:] + replicas[:rotation]
            assert policy.choose(request, rotated).id == 0

    def test_least_loaded_prefers_lighter_queue_over_lower_id(self):
        policy = LeastLoadedPolicy()
        replicas = [self.FakeReplica(0, outstanding=5),
                    self.FakeReplica(1, outstanding=2)]
        assert policy.choose(self.FakeRequest(0), replicas).id == 1


class TestBackpressure:
    def test_spillover_to_second_replica(self, servable):
        router = make_router(servable, n=2)
        for i in range(8):  # fill replica 0's bounded queue
            router.submit(payload(i), 0.0)
        creq = router.submit(payload(99), 0.0)
        assert creq is not None
        assert creq.legs[0].replica_id == 1
        assert router.metrics.backpressure_events == 1
        assert router.metrics.shed == 0

    def test_shed_when_every_replica_refuses(self, servable):
        router = make_router(servable, n=1)
        accepted = [router.submit(payload(i), 0.0) for i in range(12)]
        shed = [creq for creq in accepted if creq is None]
        assert len(shed) == 4  # queue depth 8 absorbs the rest
        assert router.metrics.shed == 4
        assert router.metrics.received == 12


class TestHedging:
    def straggler_plan(self, factor=100.0):
        return FaultPlan.corrupt(
            "replica.serve",
            transform=lambda seconds, ctx: seconds * factor,
            times=None,
            match={"replica": 0},
        )

    def hedge_policy(self, deadline=0.05):
        # Huge warmup: the deadline stays pinned at min_deadline_s.
        return HedgePolicy(min_deadline_s=deadline, warmup=10**6)

    def test_hedge_wins_and_wasted_loser_is_counted(self, servable):
        router = make_router(servable, n=2, hedge=self.hedge_policy())
        with inject(self.straggler_plan()):
            creq = router.submit(payload(0), 0.0)
            assert creq.hedge_at == pytest.approx(0.05)
            router.poll(0.01)   # dispatches on replica 0: in flight for ~1.1 s
            router.poll(0.05)   # hedge deadline -> second leg on replica 1
            assert router.metrics.hedges_launched == 1
            done = drain(router, until=0.2, start=0.06)
            assert done == [creq]
            assert creq.served_by == 1
            assert creq.latency_s < 0.1
            assert router.metrics.hedges_won == 1
            # The straggler leg was already on the device: it cannot be
            # cancelled, and its eventual completion is wasted work.
            assert router.metrics.hedges_cancelled == 0
            drain(router, until=1.5, start=1.0)
            assert router.metrics.hedges_wasted == 1
        assert router.metrics.completed == 1

    def test_hedge_cancels_still_queued_loser(self, servable):
        router = make_router(servable, n=2, hedge=self.hedge_policy())
        with inject(self.straggler_plan()):
            blocker = router.submit(payload(0), 0.0)
            router.poll(0.01)  # replica 0's worker now busy ~1.1 s
            creq = router.submit(payload(1), 0.011)
            router.poll(0.062)  # creq's hedge fires while it is still queued
            done = drain(router, until=0.2, start=0.07)
            assert creq in done
            assert creq.served_by == 1
            # The queued loser leg was withdrawn from replica 0's queue.
            assert router.metrics.hedges_cancelled >= 1
            assert router.replicas[0].queue_depth == 0
            drain(router, until=1.5, start=1.0)
            assert blocker.complete_s is not None
        assert router.metrics.failed == 0

    def test_no_hedging_on_single_replica(self, servable):
        router = make_router(servable, n=1, hedge=self.hedge_policy())
        with inject(self.straggler_plan()):
            router.submit(payload(0), 0.0)
            drain(router, until=2.0)
        assert router.metrics.hedges_launched == 0

    def test_deadline_warmup_and_clamp(self, servable):
        router = make_router(
            servable, n=2,
            hedge=HedgePolicy(multiplier=2.0, min_deadline_s=0.01,
                              max_deadline_s=0.02, warmup=10),
        )
        assert router.hedge_deadline_s() == pytest.approx(0.01)  # cold
        for _ in range(10):
            router.metrics.on_completed(0.5, cache_hit=False)
        # 2 x p99 = 1.0 s, but the SLO ceiling clamps it.
        assert router.hedge_deadline_s() == pytest.approx(0.02)

    def test_deadline_tracks_p99_without_ceiling(self, servable):
        router = make_router(
            servable, n=2,
            hedge=HedgePolicy(multiplier=2.0, min_deadline_s=0.01, warmup=10),
        )
        for _ in range(10):
            router.metrics.on_completed(0.5, cache_hit=False)
        assert router.hedge_deadline_s() == pytest.approx(1.0)

    def test_deadline_is_exact_p99_through_a_seeded_hedged_run(self, servable):
        hedge = HedgePolicy(multiplier=2.0, min_deadline_s=0.005, warmup=20)
        router = make_router(servable, n=2, hedge=hedge)
        rng = np.random.default_rng(4)
        samples, checked, t = [], 0, 0.0
        with inject(self.straggler_plan(factor=3.0)):
            for _ in range(600):
                t += rng.exponential(1 / 250.0)
                router.submit(rng.random(25), t)
                done = router.poll(t)
                samples.extend(creq.latency_s for creq in done)
                if not done:
                    continue
                expected = hedge.min_deadline_s
                if len(samples) >= hedge.warmup:
                    rank = max(1, math.ceil(99 / 100.0 * len(samples)))
                    p99 = sorted(samples)[rank - 1]
                    assert router.metrics.latency.percentile(99) == p99
                    expected = max(expected, hedge.multiplier * p99)
                    checked += 1
                assert router.metrics.latency.count == len(samples)
                assert router.hedge_deadline_s() == expected
        assert checked > 100
        assert router.metrics.hedges_launched > 0

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError, match="multiplier"):
            HedgePolicy(multiplier=1.0)
        with pytest.raises(ConfigurationError, match="min_deadline_s"):
            HedgePolicy(min_deadline_s=0.0)
        with pytest.raises(ConfigurationError, match="max_deadline_s"):
            HedgePolicy(min_deadline_s=0.02, max_deadline_s=0.01)
        with pytest.raises(ConfigurationError, match="warmup"):
            HedgePolicy(warmup=0)


class TestFaultSitesAndFailover:
    def test_dispatch_fault_skips_replica(self, servable):
        plan = FaultPlan.fail("router.dispatch", times=None, match={"replica": 0})
        router = make_router(servable, n=2)
        with inject(plan):
            creq = router.submit(payload(0), 0.0)
        assert creq.legs[0].replica_id == 1
        assert router.metrics.dispatch_faults == 1

    def test_dispatch_fault_everywhere_sheds(self, servable):
        plan = FaultPlan.fail("router.dispatch", times=None)
        router = make_router(servable, n=2)
        with inject(plan):
            assert router.submit(payload(0), 0.0) is None
        assert router.metrics.shed == 1
        assert router.metrics.dispatch_faults == 2

    def test_replica_death_fails_over(self, servable):
        plan = FaultPlan.fail("replica.serve", match={"replica": 0})
        router = make_router(servable, n=2)
        with inject(plan):
            creq = router.submit(payload(0), 0.0)
            done = drain(router, until=0.2)
        assert done == [creq]
        assert creq.served_by == 1
        assert creq.failed is False
        assert router.metrics.replica_deaths == 1
        assert router.metrics.rerouted == 1
        assert router.metrics.failed == 0
        assert router.n_live == 1  # the corpse was reaped

    def test_death_with_no_survivors_fails_request(self, servable):
        plan = FaultPlan.fail("replica.serve", match={"replica": 0})
        router = make_router(servable, n=1)
        with inject(plan):
            creq = router.submit(payload(0), 0.0)
            drain(router, until=0.2)
        assert creq.failed is True
        assert router.metrics.failed == 1
        assert router.pending == 0
        assert router.n_live == 0


class TestSwapAndScaling:
    def test_swap_drains_old_engine_with_zero_failures(self, servable, servable_b):
        router = make_router(servable, n=2)
        inflight = router.submit(payload(0), 0.0)
        router.poll(0.01)  # dispatched on the old engine
        router.swap(servable_b, 0.012)
        assert router.metrics.swaps == 1
        assert router.swap_complete is False
        fresh = router.submit(payload(1), 0.013)
        done = drain(router, until=0.2, start=0.02)
        assert inflight in done and fresh in done
        assert router.swap_complete is True
        assert all(r.servable.name == "ae-v2" for r in router.replicas)
        assert router.metrics.failed == 0

    def test_swap_rejects_incompatible_width(self, servable, small_rbm):
        from repro.serve.registry import ServableModel

        router = make_router(servable, n=1)
        with pytest.raises(ServingError, match="input width"):
            router.swap(ServableModel("rbm", small_rbm), 0.0)
        with pytest.raises(ServingError, match="ServableModel"):
            router.swap(object(), 0.0)

    def test_add_and_remove_replica(self, servable):
        router = make_router(servable, n=1)
        added = router.add_replica()
        assert router.n_live == 2
        assert added.servable is servable
        victim = router.remove_replica(0.0)
        assert victim == added.id
        router.poll(0.0)  # idle retiree is reaped immediately
        assert router.n_live == 1
        assert router.metrics.scale_ups == 1
        assert router.metrics.scale_downs == 1

    def test_remove_replica_enforces_floor(self, servable):
        router = make_router(servable, n=1)
        assert router.remove_replica(0.0) is None

    def test_retiring_replica_drains_before_reap(self, servable):
        router = make_router(servable, n=2, policy=RoundRobinPolicy())
        creqs = [router.submit(payload(i), 0.0) for i in range(2)]
        assert router.remove_replica(0.0) == 1
        assert router.n_live == 1
        done = drain(router, until=0.2)
        assert set(done) == set(creqs)  # queued work still completes
        assert all(r.id == 0 for r in router.replicas)

    def test_reaped_replica_is_released(self, servable):
        """Once reaped, nothing in the router holds the replica, so its
        engine, cache and latency samples can be collected."""
        router = make_router(servable, n=2, policy=RoundRobinPolicy())
        for i in range(4):
            router.submit(payload(i), 0.0)
        retiree = weakref.ref(router.replicas[1])
        assert router.remove_replica(0.0) == 1
        drain(router, until=0.2)
        assert [r.id for r in router.replicas] == [0]
        gc.collect()
        assert retiree() is None
