"""Tests for repro.cluster.autoscaler — watermarks, pacing, bounds."""

import numpy as np
import pytest

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.router import NO_HEDGING, Router
from repro.errors import ConfigurationError

from tests.cluster.conftest import PreferLowestId, fast_config


def make_router(servable, n=1):
    return Router(
        servable,
        n_replicas=n,
        replica_config=fast_config(),
        policy=PreferLowestId(),
        hedge=NO_HEDGING,
    )


def config(**kwargs):
    kwargs.setdefault("min_replicas", 1)
    kwargs.setdefault("max_replicas", 4)
    kwargs.setdefault("high_watermark", 4.0)
    kwargs.setdefault("low_watermark", 1.0)
    kwargs.setdefault("interval_s", 0.01)
    kwargs.setdefault("cooldown_s", 0.05)
    return AutoscalerConfig(**kwargs)


def flood(router, n, now=0.0):
    rng = np.random.default_rng(0)
    for _ in range(n):
        router.submit(rng.random(25), now)


class TestConfigValidation:
    def test_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_replicas=0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_replicas=3, max_replicas=2)

    def test_bad_watermarks(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(low_watermark=5.0, high_watermark=5.0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(low_watermark=-1.0)

    def test_bad_pacing(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(interval_s=0.0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(cooldown_s=-1.0)


class TestScalingDecisions:
    def test_scales_up_on_deep_queues(self, servable):
        router = make_router(servable)
        scaler = Autoscaler(router, config())
        flood(router, 6)  # outstanding 6 > high watermark 4
        assert scaler.evaluate(0.0) == "scale-up"
        assert router.n_live == 2
        assert scaler.history[0]["action"] == "scale-up"
        assert scaler.history[0]["mean_outstanding"] == pytest.approx(6.0)

    def test_scales_up_on_rejections(self, servable):
        router = make_router(servable)
        scaler = Autoscaler(router, config(high_watermark=1e9))
        flood(router, 12)  # queue depth 8 -> four rejections
        assert scaler.evaluate(0.0) == "scale-up"
        assert scaler.history[0]["shed_delta"] == 4

    def test_rejection_delta_not_recounted(self, servable):
        router = make_router(servable)
        scaler = Autoscaler(router, config(high_watermark=1e9, cooldown_s=0.0))
        flood(router, 12)
        assert scaler.evaluate(0.0) == "scale-up"
        # Old rejections must not trigger a second action forever after.
        for r in router.replicas:
            r.engine.poll(10.0)
        assert scaler.evaluate(10.0) != "scale-up"

    def test_scales_down_when_idle(self, servable):
        router = make_router(servable, n=3)
        scaler = Autoscaler(router, config())
        assert scaler.evaluate(0.0) == "scale-down"
        router.poll(0.0)
        assert router.n_live == 2

    def test_respects_min_and_max(self, servable):
        router = make_router(servable, n=1)
        scaler = Autoscaler(
            router, config(max_replicas=2, cooldown_s=0.0, interval_s=0.01)
        )
        flood(router, 6, now=0.0)
        assert scaler.evaluate(0.0) == "scale-up"
        flood(router, 6, now=0.02)
        assert scaler.evaluate(0.02) is None  # at max_replicas
        idle = make_router(servable, n=1)
        idle_scaler = Autoscaler(idle, config())
        assert idle_scaler.evaluate(0.0) is None  # at min_replicas

    def test_interval_gates_evaluations(self, servable):
        router = make_router(servable)
        scaler = Autoscaler(router, config(interval_s=1.0, cooldown_s=0.0))
        flood(router, 6)
        assert scaler.evaluate(0.0) == "scale-up"
        flood(router, 6, now=0.5)
        assert scaler.evaluate(0.5) is None  # within the interval
        assert scaler.evaluate(1.0) == "scale-up"

    def test_cooldown_separates_actions(self, servable):
        router = make_router(servable)
        scaler = Autoscaler(router, config(interval_s=0.01, cooldown_s=1.0))
        flood(router, 6, now=0.0)
        assert scaler.evaluate(0.0) == "scale-up"
        flood(router, 6, now=0.02)
        assert scaler.evaluate(0.02) is None  # distress, but cooling down
        flood(router, 6, now=1.0)
        assert scaler.evaluate(1.0) == "scale-up"

    def test_default_config_used_when_none(self, servable):
        scaler = Autoscaler(make_router(servable))
        assert scaler.config.min_replicas == 1
        assert scaler.evaluate(0.0) is None
