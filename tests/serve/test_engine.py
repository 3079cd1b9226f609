"""Tests for repro.serve.engine — dispatch, workers, cache, service models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServingError
from repro.serve.batcher import BatchPolicy
from repro.serve.cache import FeatureCache
from repro.serve.engine import (
    ConstantServiceModel,
    ServingEngine,
    SimulatedServiceModel,
    WorkerPool,
)
from repro.serve.registry import ServableModel


@pytest.fixture
def servable(small_ae):
    return ServableModel("ae", small_ae)


def make_engine(servable, **kwargs):
    kwargs.setdefault("service_model", ConstantServiceModel(base_s=0.01, per_example_s=0.001))
    return ServingEngine(servable, **kwargs)


class TestServiceModels:
    def test_constant_affine(self):
        model = ConstantServiceModel(base_s=0.01, per_example_s=0.001)
        assert model.seconds(1) == pytest.approx(0.011)
        assert model.seconds(10) == pytest.approx(0.02)

    def test_simulated_sublinear_in_batch(self, servable):
        model = SimulatedServiceModel(servable)
        t1, t32 = model.seconds(1), model.seconds(32)
        assert t32 > t1  # bigger batches cost more in total...
        assert t32 < 32 * t1  # ...but far less per example
        assert model.seconds(32) == t32  # cached and deterministic

    def test_bad_batch_size(self, servable):
        with pytest.raises(ServingError):
            SimulatedServiceModel(servable).seconds(0)


class TestWorkerPool:
    def test_acquire_and_busy(self):
        pool = WorkerPool(2)
        assert pool.acquire(0.0) == 0
        pool.busy_until(0, 5.0)
        assert pool.acquire(0.0) == 1
        pool.busy_until(1, 3.0)
        assert pool.acquire(0.0) is None
        assert pool.next_free_time() == 3.0
        assert pool.acquire(3.0) == 1

    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)

    def test_fresh_pool_is_immediately_free(self):
        pool = WorkerPool(3)
        assert pool.n_workers == 3
        assert pool.next_free_time() == 0.0
        assert pool.acquire(0.0) == 0  # lowest index wins

    def test_acquire_at_exact_free_boundary(self):
        pool = WorkerPool(1)
        pool.busy_until(0, 2.0)
        assert pool.acquire(1.999) is None
        assert pool.acquire(2.0) == 0  # boundary counts as free

    def test_simultaneous_frees_pick_lowest_index(self):
        pool = WorkerPool(3)
        for w in range(3):
            pool.busy_until(w, 5.0)
        assert pool.next_free_time() == 5.0
        assert pool.acquire(5.0) == 0

    def test_full_occupancy_reports_earliest_release(self):
        pool = WorkerPool(2)
        pool.busy_until(0, 9.0)
        pool.busy_until(1, 4.0)
        assert pool.acquire(3.0) is None
        assert pool.next_free_time() == 4.0
        assert pool.acquire(4.5) == 1


class TestServingEngine:
    def test_requires_servable_wrapper(self, small_ae):
        with pytest.raises(ServingError, match="ServableModel"):
            ServingEngine(small_ae)

    def test_rejects_wrong_payload_shape(self, servable):
        engine = make_engine(servable)
        with pytest.raises(ServingError, match="features"):
            engine.submit(np.zeros(7), now=0.0)

    def test_full_batch_dispatches_and_completes(self, servable, rng):
        engine = make_engine(servable, policy=BatchPolicy(max_batch_size=2, max_wait_s=1.0))
        r1 = engine.submit(rng.random(25), now=0.0)
        r2 = engine.submit(rng.random(25), now=0.001)
        assert engine.poll(0.001) == []  # dispatched, service takes 0.012s
        assert r1.dispatch_s == pytest.approx(0.001)
        done = engine.poll(0.001 + 0.012)
        assert done == [r1, r2]
        assert r1.result.shape == (9,)
        # The real forward pass ran: result matches a direct encode.
        np.testing.assert_allclose(r1.result, servable.predict(r1.payload[None, :])[0])

    def test_partial_batch_waits_until_deadline(self, servable, rng):
        engine = make_engine(
            servable, policy=BatchPolicy(max_batch_size=8, max_wait_s=0.005)
        )
        request = engine.submit(rng.random(25), now=0.0)
        engine.poll(0.004)
        assert request.dispatch_s is None
        assert engine.next_event_time() == pytest.approx(0.005)
        engine.poll(0.005)
        assert request.dispatch_s == pytest.approx(0.005)

    def test_backpressure_rejects_and_counts(self, servable, rng):
        engine = make_engine(
            servable,
            policy=BatchPolicy(max_batch_size=4, max_wait_s=10.0, max_queue_depth=2),
        )
        assert engine.submit(rng.random(25), now=0.0) is not None
        assert engine.submit(rng.random(25), now=0.0) is not None
        assert engine.submit(rng.random(25), now=0.0) is None
        assert engine.metrics.rejected == 1
        assert engine.metrics.received == 3

    def test_single_worker_serialises_batches(self, servable, rng):
        engine = make_engine(
            servable, policy=BatchPolicy(max_batch_size=1, max_wait_s=0.0), n_workers=1
        )
        engine.submit(rng.random(25), now=0.0)
        engine.submit(rng.random(25), now=0.0)
        engine.poll(0.0)
        # Only one batch in flight; the second waits for the worker.
        assert len(engine.metrics.batch_sizes) == 1
        assert engine.next_event_time() == pytest.approx(0.011)
        engine.poll(0.011)
        assert len(engine.metrics.batch_sizes) == 2

    def test_two_workers_run_batches_concurrently(self, servable, rng):
        engine = make_engine(
            servable, policy=BatchPolicy(max_batch_size=1, max_wait_s=0.0), n_workers=2
        )
        engine.submit(rng.random(25), now=0.0)
        engine.submit(rng.random(25), now=0.0)
        engine.poll(0.0)
        assert len(engine.metrics.batch_sizes) == 2

    def test_cache_hit_completes_immediately(self, servable):
        cache = FeatureCache()
        engine = make_engine(
            servable, policy=BatchPolicy(max_batch_size=1, max_wait_s=0.0), cache=cache
        )
        payload = np.full(25, 0.5)
        first = engine.submit(payload, now=0.0)
        engine.poll(0.0)
        engine.poll(1.0)  # retire → populates the cache
        assert first.complete_s is not None and not first.cache_hit
        second = engine.submit(payload, now=2.0)
        assert second.cache_hit
        assert second.complete_s == 2.0
        np.testing.assert_array_equal(second.result, first.result)
        assert engine.metrics.cache_hits == 1

    def test_value_equal_payloads_share_one_cache_entry(self, servable):
        engine = make_engine(
            servable, policy=BatchPolicy(max_batch_size=1, max_wait_s=0.0),
            cache=FeatureCache(),
        )
        x = np.random.default_rng(11).random(25)
        first = engine.submit(x, now=0.0)
        engine.poll(0.0)
        engine.poll(1.0)  # retire → populates the cache
        assert not first.cache_hit
        strided = np.zeros(50)
        strided[::2] = x
        variants = [x.copy(), strided[::2], x.astype(">f8"), x.tolist()]
        for i, variant in enumerate(variants):
            request = engine.submit(variant, now=2.0 + i)
            assert request.cache_hit
            np.testing.assert_array_equal(request.result, first.result)
        # float32 input is validated to float64: value-equal to its cast.
        rounded = x.astype(np.float32)
        assert not engine.submit(rounded, now=10.0).cache_hit
        engine.poll(10.0)
        engine.poll(11.0)
        assert engine.submit(rounded.astype(np.float64), now=12.0).cache_hit
        assert len(engine.cache) == 2
        assert engine.metrics.cache_hits == 5

    def test_cache_miss_counted_and_hit_rate_tracks(self, servable, rng):
        engine = make_engine(
            servable, policy=BatchPolicy(max_batch_size=1, max_wait_s=0.0),
            cache=FeatureCache(),
        )
        payload = rng.random(25)
        engine.submit(payload, now=0.0)
        engine.poll(0.0)
        engine.poll(1.0)
        assert engine.metrics.cache_misses == 1
        assert engine.metrics.cache_hit_rate == 0.0
        engine.submit(payload, now=2.0)
        assert engine.metrics.cache_hit_rate == pytest.approx(0.5)

    def test_cache_counts_its_evictions(self, servable, rng):
        engine = make_engine(
            servable, policy=BatchPolicy(max_batch_size=4, max_wait_s=0.0),
            cache=FeatureCache(max_entries=2),
        )
        for i in range(4):
            engine.submit(rng.random(25), now=0.0)
        engine.poll(0.0)
        engine.poll(1.0)  # retiring 4 distinct entries evicts 2
        assert engine.cache.evictions == 2
        assert engine.metrics.cache_misses == 4

    def test_cancel_withdraws_queued_request(self, servable, rng):
        engine = make_engine(
            servable, policy=BatchPolicy(max_batch_size=8, max_wait_s=10.0)
        )
        request = engine.submit(rng.random(25), now=0.0)
        assert engine.cancel(request, 0.1)
        assert engine.metrics.cancelled == 1
        assert engine.queue_depth == 0
        assert not engine.cancel(request, 0.2)  # already gone

    def test_cancel_cannot_recall_in_flight_work(self, servable, rng):
        engine = make_engine(
            servable, policy=BatchPolicy(max_batch_size=1, max_wait_s=0.0)
        )
        request = engine.submit(rng.random(25), now=0.0)
        engine.poll(0.0)  # dispatched to the device
        assert not engine.cancel(request, 0.001)
        assert engine.metrics.cancelled == 0

    def test_load_surface_tracks_lifecycle(self, servable, rng):
        engine = make_engine(
            servable, policy=BatchPolicy(max_batch_size=2, max_wait_s=10.0)
        )
        assert engine.outstanding == 0
        engine.submit(rng.random(25), now=0.0)
        assert (engine.queue_depth, engine.in_flight, engine.outstanding) == (1, 0, 1)
        engine.submit(rng.random(25), now=0.0)
        engine.poll(0.0)  # full batch dispatches
        assert (engine.queue_depth, engine.in_flight, engine.outstanding) == (0, 2, 2)
        engine.poll(1.0)
        assert engine.outstanding == 0

    def test_idle_engine_has_no_next_event(self, servable):
        assert make_engine(servable).next_event_time() is None

    def test_predict_bypasses_queue(self, servable, rng):
        engine = make_engine(servable)
        x = rng.random((3, 25))
        np.testing.assert_array_equal(engine.predict(x), servable.predict(x))
