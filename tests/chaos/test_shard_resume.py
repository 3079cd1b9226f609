"""Kill-anywhere resume for sharded pre-training.

The contract under test: a ``sharded_pretrain`` run killed at *any*
fault site — the cross-shard exchange, the gradient engine's worker, or
an epoch boundary — resumes from the latest checkpoint to parameters
bit-identical to an uninterrupted run.  The RNG streams, the engine's
worker streams and the exchange cadence must all survive the crash.
"""

import numpy as np
import pytest

from repro.nn.sharded import sharded_pretrain
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.executor import ParallelGradientEngine
from repro.testing.faults import FaultError, FaultPlan, inject
from tests.shard.test_sharded_pretrain import _shard_diff

SPECS = [LayerSpec(8, epochs=2, batch_size=16), LayerSpec(6, epochs=2, batch_size=16)]
KW = dict(exchange_every=2)


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(3).random((48, 12))


def _sae():
    return StackedAutoencoder(12, SPECS, seed=7)


class TestExchangeKill:
    @pytest.mark.parametrize("nth", [0, 2, 5])
    def test_kill_at_any_exchange_resumes_bit_identical(self, x, tmp_path, nth):
        baseline = sharded_pretrain(_sae(), x, 2, **KW)
        store = CheckpointStore(tmp_path, keep=32)
        with pytest.raises(FaultError):
            with inject(FaultPlan.fail("shard.exchange", nth=nth)):
                sharded_pretrain(_sae(), x, 2, checkpoint=store, **KW)
        if store.latest() is None:
            resumed = sharded_pretrain(_sae(), x, 2, **KW)
        else:
            resumed = sharded_pretrain(_sae(), x, 2, resume_from=store, **KW)
        assert _shard_diff(baseline, resumed) == 0.0

    def test_dbn_exchange_kill_resumes_bit_identical(self, x, tmp_path):
        binary = (x > 0.5).astype(np.float64)

        def dbn():
            return DeepBeliefNetwork(12, SPECS, cd_k=1, seed=7)

        baseline = sharded_pretrain(dbn(), binary, 2, **KW)
        store = CheckpointStore(tmp_path, keep=32)
        with pytest.raises(FaultError):
            with inject(FaultPlan.fail("shard.exchange", nth=4)):
                sharded_pretrain(dbn(), binary, 2, checkpoint=store, **KW)
        assert store.latest() is not None
        resumed = sharded_pretrain(dbn(), binary, 2, resume_from=store, **KW)
        assert _shard_diff(baseline, resumed) == 0.0


class TestEngineWorkerKill:
    def test_worker_kill_mid_block_resumes_bit_identical(self, x, tmp_path):
        with ParallelGradientEngine(2, blas_threads=None, seed=7) as eng:
            baseline = sharded_pretrain(_sae(), x, 2, engine=eng, **KW)
        store = CheckpointStore(tmp_path, keep=32)
        # 2 shards x 2 workers = 4 worker events per batch, 12 per epoch:
        # nth=14 lands in block 0's second epoch, after the first snapshot.
        with ParallelGradientEngine(2, blas_threads=None, seed=7) as eng:
            with pytest.raises(FaultError):
                with inject(FaultPlan.fail("engine.worker", nth=14)):
                    sharded_pretrain(_sae(), x, 2, engine=eng,
                                     checkpoint=store, **KW)
        assert store.latest() is not None
        with ParallelGradientEngine(2, blas_threads=None, seed=7) as eng:
            resumed = sharded_pretrain(_sae(), x, 2, engine=eng,
                                       resume_from=store, **KW)
        assert _shard_diff(baseline, resumed) == 0.0


class TestRepeatedCrashes:
    def test_crash_twice_then_finish(self, x, tmp_path):
        """Crash-resume-crash-resume: the store's latest snapshot always
        wins, and the final parameters still match the clean run."""
        baseline = sharded_pretrain(_sae(), x, 2, **KW)
        store = CheckpointStore(tmp_path, keep=32)
        with pytest.raises(FaultError):
            with inject(FaultPlan.fail("shard.exchange", nth=1)):
                sharded_pretrain(_sae(), x, 2, checkpoint=store, **KW)
        with pytest.raises(FaultError):
            with inject(FaultPlan.fail("shard.exchange", nth=4)):
                sharded_pretrain(_sae(), x, 2, checkpoint=store,
                                 resume_from=store, **KW)
        resumed = sharded_pretrain(_sae(), x, 2, resume_from=store, **KW)
        assert _shard_diff(baseline, resumed) == 0.0
