"""Tests for repro.cluster.replica — a replica's poll across its death."""

import numpy as np
import pytest

from repro.cluster.replica import Replica
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import ConstantServiceModel
from repro.testing.faults import FaultPlan, inject

from tests.cluster.conftest import fast_config


class TestDeathPoll:
    def test_death_poll_returns_what_it_retired(self, servable):
        """The poll that retires the first batch dies dispatching the
        second; it still returns the 32 requests it retired."""
        replica = Replica(0, servable, fast_config(
            policy=BatchPolicy(max_batch_size=32, max_wait_s=1e-3),
            service_model_factory=lambda s: ConstantServiceModel(1e-3, 0.0),
        ))
        rng = np.random.default_rng(0)
        requests = [replica.submit(rng.random(25), 0.0) for _ in range(64)]
        plan = FaultPlan.fail("replica.serve", nth=1, match={"replica": 0})
        with inject(plan):
            assert replica.poll(0.0) == []  # dispatches the first batch
            done = replica.poll(1e-3)
        assert plan.fired() == 1 and not replica.alive
        assert done == requests[:32]
        assert all(r.complete_s == pytest.approx(1e-3) for r in done)
        assert all(r.complete_s is None for r in requests[32:])
        assert replica.poll(2e-3) == []
