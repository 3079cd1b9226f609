"""sharded_pretrain: N=1 identity, exchanges, replicated bias, resume."""

import itertools

import numpy as np
import pytest

from repro.bench.shardbench import _max_abs, _model_params
from repro.errors import ConfigurationError
from repro.nn.cost import SparseAutoencoderCost
from repro.nn.sharded import sharded_pretrain
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from repro.runtime.checkpoint import CheckpointError, CheckpointStore
from repro.runtime.executor import ParallelGradientEngine
from repro.shard.shards import merge, partition
from repro.testing.faults import FaultError, FaultPlan, inject
from repro.train.callbacks import History

SPECS = [LayerSpec(8, epochs=2, batch_size=16), LayerSpec(6, epochs=2, batch_size=16)]


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(0).random((48, 12))


def _sae():
    return StackedAutoencoder(12, SPECS, seed=5)


def _shard_diff(a, b):
    worst = 0.0
    for sa, sb in zip(a, b):
        for pa, pb in zip(_model_params(sa.model), _model_params(sb.model)):
            worst = max(worst, _max_abs(pa, pb))
        for ca, cb in zip(sa.cross, sb.cross):
            worst = max(worst, _max_abs(ca.values, cb.values))
    return worst


def _dbn():
    return DeepBeliefNetwork(12, SPECS, cd_k=1, seed=5)


def _assert_same_history(a: History, b: History):
    assert a.updates == b.updates
    assert a.epochs == b.epochs
    assert a.layers == b.layers


class TestCascade:
    def test_one_shard_is_bit_identical_to_unsharded(self, x):
        ref, ref_history = _sae(), History()
        ref.pretrain(x, callbacks=ref_history)
        sharded, history = _sae(), History()
        sharded_pretrain(sharded, x, 1, callbacks=history)
        assert all(
            _max_abs(a, b) == 0.0
            for a, b in zip(_model_params(ref), _model_params(sharded))
        )
        assert ref.layer_errors == sharded.layer_errors
        _assert_same_history(ref_history, history)

    def test_dbn_one_shard_matches_unsharded(self, x):
        binary = (x > 0.5).astype(np.float64)
        ref, ref_history = _dbn(), History()
        ref.pretrain(binary, callbacks=ref_history)
        sharded, history = _dbn(), History()
        sharded_pretrain(sharded, binary, 1, callbacks=history)
        assert all(
            _max_abs(a, b) == 0.0
            for a, b in zip(_model_params(ref), _model_params(sharded))
        )
        _assert_same_history(ref_history, history)

    def test_template_holds_merged_blocks_after_training(self, x):
        stack = _sae()
        shards = sharded_pretrain(stack, x, 2)
        assert stack.is_trained
        rebuilt = merge(shards)
        assert all(
            _max_abs(a, b) == 0.0
            for a, b in zip(_model_params(stack), _model_params(rebuilt))
        )

    def test_deterministic_across_runs(self, x):
        a = sharded_pretrain(_sae(), x, 2, exchange_every=2)
        b = sharded_pretrain(_sae(), x, 2, exchange_every=2)
        assert _shard_diff(a, b) == 0.0

    def test_exchange_fires_on_schedule(self, x):
        # 3 batches x 2 epochs x 2 blocks = 12 updates; exchange_every=2
        # gives exactly 6 exchange events: a kill armed for the 6th
        # (0-based nth=5) fires, one armed for a 7th never does.
        with pytest.raises(FaultError):
            with inject(FaultPlan.fail("shard.exchange", nth=5)) as plan:
                sharded_pretrain(_sae(), x, 2, exchange_every=2)
        assert plan.fired("shard.exchange") == 1
        with inject(FaultPlan.fail("shard.exchange", nth=6)) as plan:
            sharded_pretrain(_sae(), x, 2, exchange_every=2)
        assert plan.fired("shard.exchange") == 0

    def test_zero_exchange_every_never_fires_the_site(self, x):
        with inject(FaultPlan.fail("shard.exchange", nth=1)) as plan:
            sharded_pretrain(_sae(), x, 2)
        assert plan.fired("shard.exchange") == 0

    def test_trained_template_rejected(self, x):
        stack = _sae()
        stack.pretrain(x)
        with pytest.raises(ConfigurationError, match="trained"):
            sharded_pretrain(stack, x, 2)

    def test_mlp_rejected(self, x):
        from repro.nn.mlp import DeepNetwork

        with pytest.raises(ConfigurationError, match="Stacked"):
            sharded_pretrain(DeepNetwork([12, 8, 4]), x, 2)


def _params(shard):
    return _model_params(shard.model) + [cb.values for cb in shard.cross]


class TestReplicatedBias:
    """The first block's visible bias (SAE ``b2``, RBM ``b``) is copied
    whole onto every shard and trains there; the exchange re-syncs it."""

    @staticmethod
    def _first_block_biases(kind, x, exchange_every):
        stack, data, name = (
            (_sae(), x, "b2") if kind == "sae"
            else (_dbn(), (x > 0.5).astype(np.float64), "b")
        )
        seen = {}

        def callback(i, blocks, _errors):
            if i == 0:  # right after block 0's last update (and exchange)
                seen["biases"] = [getattr(b, name).copy() for b in blocks]

        sharded_pretrain(stack, data, 2, exchange_every=exchange_every,
                         callback=callback)
        return seen["biases"]

    def test_no_parameter_is_shared(self, x):
        stack = _sae()
        trained = sharded_pretrain(stack, x, 3)
        split = partition(stack, 3)
        for shards in (trained, split):
            for a, b in itertools.combinations(shards, 2):
                for pa, pb in itertools.product(_params(a), _params(b)):
                    assert not np.shares_memory(pa, pb)
            for shard in shards:
                for pa, pb in itertools.product(_params(shard), _model_params(stack)):
                    assert not np.shares_memory(pa, pb)

    @pytest.mark.parametrize("kind", ["sae", "dbn"])
    def test_copies_drift_apart_without_an_exchange(self, x, kind):
        # 3 batches per epoch x 2 epochs: block 0 ends on update 6; an
        # exchange every 4 updates last fired at update 4.
        for exchange_every in (0, 4):
            first, second = self._first_block_biases(kind, x, exchange_every)
            assert _max_abs(first, second) > 0.0, exchange_every

    @pytest.mark.parametrize("kind", ["sae", "dbn"])
    def test_copies_are_equal_right_after_an_exchange(self, x, kind):
        first, second = self._first_block_biases(kind, x, 2)
        assert np.array_equal(first, second)


class TestResume:
    def _run(self, x, store=None, resume_from=None, engine=None):
        return sharded_pretrain(
            _sae(), x, 2,
            checkpoint=store, resume_from=resume_from, engine=engine,
            exchange_every=2,
        )

    def test_resume_from_every_snapshot_is_bit_identical(self, x, tmp_path):
        store = CheckpointStore(tmp_path, keep=32)
        baseline = self._run(x, store=store)
        snapshots = store.list()
        assert len(snapshots) == 4  # 2 blocks x 2 epochs
        for snap in snapshots:
            resumed = self._run(x, resume_from=snap)
            assert _shard_diff(baseline, resumed) == 0.0, snap.name

    def test_kill_at_exchange_site_then_resume(self, x, tmp_path):
        baseline = self._run(x)
        store = CheckpointStore(tmp_path, keep=32)
        with pytest.raises(FaultError):
            with inject(FaultPlan.fail("shard.exchange", nth=3)):
                self._run(x, store=store)
        assert store.latest() is not None
        resumed = self._run(x, resume_from=store)
        assert _shard_diff(baseline, resumed) == 0.0

    def test_engine_mode_mismatch_rejected(self, x, tmp_path):
        store = CheckpointStore(tmp_path, keep=32)
        self._run(x, store=store)
        with ParallelGradientEngine(2, blas_threads=None, seed=5) as eng:
            with pytest.raises(CheckpointError, match="execution mode"):
                self._run(x, resume_from=store, engine=eng)

    def test_engine_resume_bit_identical(self, x, tmp_path):
        store = CheckpointStore(tmp_path, keep=32)
        with ParallelGradientEngine(2, blas_threads=None, seed=5) as eng:
            baseline = self._run(x, engine=eng)
        with ParallelGradientEngine(2, blas_threads=None, seed=5) as eng:
            self._run(x, store=store, engine=eng)
        mid = store.list()[1]
        with ParallelGradientEngine(2, blas_threads=None, seed=5) as eng:
            resumed = self._run(x, resume_from=mid, engine=eng)
        assert _shard_diff(baseline, resumed) == 0.0

    def test_different_cost_rejected(self, x, tmp_path):
        store = CheckpointStore(tmp_path, keep=32)
        self._run(x, store=store)
        cost = SparseAutoencoderCost(weight_decay=0.5, sparsity_weight=9.0)
        with pytest.raises(CheckpointError, match="hyper-parameters"):
            sharded_pretrain(StackedAutoencoder(12, SPECS, cost=cost, seed=5),
                             x, 2, resume_from=store, exchange_every=2)

    def test_shard_count_cross_rejection(self, x, tmp_path):
        store = CheckpointStore(tmp_path, keep=32)
        self._run(x, store=store)
        with pytest.raises(CheckpointError, match="n_shards"):
            sharded_pretrain(_sae(), x, 4, resume_from=store, exchange_every=2)
