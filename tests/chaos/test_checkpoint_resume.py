"""The kill-anywhere invariant.

Kill the training stack at any registered fault site, resume from the
last crash-consistent snapshot, and the final parameters must be
**bit-identical** (``np.array_equal``, not allclose) to an uninterrupted
run at the same seed, execution mode, and worker count.
"""

import numpy as np
import pytest

from repro.nn.cost import SparseAutoencoderCost
from repro.nn.finetune import finetune
from repro.nn.mlp import DeepNetwork
from repro.nn.sharded import sharded_pretrain
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from repro.runtime.checkpoint import CheckpointError, CheckpointStore
from repro.runtime.executor import ParallelGradientEngine
from repro.testing.faults import FaultError, FaultPlan, inject

N_WORKERS = 2
SPECS = [LayerSpec(8, epochs=2, batch_size=16), LayerSpec(5, epochs=2, batch_size=16)]


@pytest.fixture
def x(digits_25):
    return digits_25[:48]


def _sae(n_visible, seed=3):
    cost = SparseAutoencoderCost(
        weight_decay=1e-3, sparsity_target=0.1, sparsity_weight=0.3
    )
    return StackedAutoencoder(n_visible, SPECS, cost=cost, seed=seed)


def _dbn(n_visible, seed=3):
    return DeepBeliefNetwork(n_visible, [LayerSpec(7, epochs=3, batch_size=12)],
                             seed=seed)


def _assert_blocks_equal(a, b, names):
    for i, (ba, bb) in enumerate(zip(a.blocks, b.blocks)):
        for name in names:
            assert np.array_equal(getattr(ba, name), getattr(bb, name)), (
                f"block {i} array {name!r} not bit-identical after resume"
            )


class TestKillAnywhereSAE:
    # One kill per engine site, at visits that land in different epochs /
    # blocks.  With 3 batches per epoch and the two-phase SAE protocol
    # (rho pass + grad pass) each worker logs 6 visits per epoch, so the
    # earliest resumable kill is visit 6 (epoch 1's snapshot exists).
    PLANS = [
        pytest.param(lambda: FaultPlan.kill_worker(0, nth=8), id="worker0-epoch2"),
        pytest.param(lambda: FaultPlan.kill_worker(1, nth=11), id="worker1-late"),
        pytest.param(lambda: FaultPlan.fail("engine.reduce", nth=6), id="reduce"),
    ]

    def test_crash_before_first_snapshot_leaves_empty_store(self, x, tmp_path):
        # A kill in the very first epoch predates any snapshot: resume is
        # impossible (the store is empty and says so); recovery is a
        # fresh run, which the other tests prove is equivalent.
        store = CheckpointStore(tmp_path)
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=0) as eng:
            with pytest.raises(FaultError):
                with inject(FaultPlan.kill_worker(0, nth=2)):
                    _sae(x.shape[1]).pretrain(x, engine=eng, checkpoint=store)
        assert store.latest() is None
        with pytest.raises(CheckpointError, match="no checkpoints"):
            store.load_latest()

    @pytest.mark.parametrize("make_plan", PLANS)
    def test_engine_kill_then_resume_bit_identical(self, x, tmp_path, make_plan):
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=0) as eng:
            baseline = _sae(x.shape[1]).pretrain(x, engine=eng)
        store = CheckpointStore(tmp_path, keep=3)
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=0) as eng:
            with pytest.raises(FaultError):
                with inject(make_plan()):
                    _sae(x.shape[1]).pretrain(x, engine=eng, checkpoint=store)
        assert store.latest() is not None, "crash left no snapshot to resume from"
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=0) as eng:
            resumed = _sae(x.shape[1]).pretrain(
                x, engine=eng, checkpoint=store, resume_from=tmp_path
            )
        _assert_blocks_equal(baseline, resumed, ("w1", "b1", "w2", "b2"))
        assert baseline.layer_errors == resumed.layer_errors


class TestKillAnywhereDBN:
    # CD sampling is stochastic — exact resume additionally proves the
    # engine worker streams are captured and restored bit-for-bit.
    PLANS = [
        pytest.param(lambda: FaultPlan.kill_worker(1, nth=4), id="worker1"),
        pytest.param(lambda: FaultPlan.fail("engine.reduce", nth=9), id="reduce"),
    ]

    @pytest.mark.parametrize("make_plan", PLANS)
    def test_engine_kill_then_resume_bit_identical(self, x, tmp_path, make_plan):
        v = (x > 0.5).astype(np.float64)
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=0) as eng:
            baseline = _dbn(x.shape[1]).pretrain(v, engine=eng)
        store = CheckpointStore(tmp_path, keep=3)
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=0) as eng:
            with pytest.raises(FaultError):
                with inject(make_plan()):
                    _dbn(x.shape[1]).pretrain(v, engine=eng, checkpoint=store)
        assert store.latest() is not None
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=0) as eng:
            resumed = _dbn(x.shape[1]).pretrain(
                v, engine=eng, checkpoint=store, resume_from=tmp_path
            )
        _assert_blocks_equal(baseline, resumed, ("w", "b", "c"))


@pytest.mark.usefixtures("threaded_dispatch")
class TestKillAnywhereDBNThreaded(TestKillAnywhereDBN):
    """The same kills with every shard on its slot thread: the fault
    surfaces through a worker's future and resume stays bit-identical."""


class TestSerialResume:
    def test_resume_from_mid_run_snapshot_matches_full_run(self, x, tmp_path):
        # Serial mode has no injected kill; emulate a crash by restarting
        # from an intermediate snapshot file instead of the newest one.
        store = CheckpointStore(tmp_path, keep=100)
        baseline = _sae(x.shape[1]).pretrain(x, checkpoint=store)
        snapshots = store.list()
        assert len(snapshots) == 4  # 2 blocks x 2 epochs
        resumed = _sae(x.shape[1]).pretrain(x, resume_from=snapshots[1])
        _assert_blocks_equal(baseline, resumed, ("w1", "b1", "w2", "b2"))

    def test_finetune_serial_resume(self, x, digits_25, tmp_path):
        labels = np.arange(48) % 10

        def run(checkpoint=None, resume_from=None, epochs=4):
            net = DeepNetwork([x.shape[1], 9, 10], head="softmax", seed=2)
            finetune(net, x, labels, epochs=epochs, batch_size=16, seed=7,
                     checkpoint=checkpoint, resume_from=resume_from)
            return net

        store = CheckpointStore(tmp_path)
        baseline = run(checkpoint=store)
        resumed = run(resume_from=store.list()[0])
        for a, b in zip(baseline.layers, resumed.layers):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.b, b.b)


class TestFinetuneEngineKill:
    def test_kill_worker_then_resume_bit_identical(self, x, tmp_path):
        labels = np.arange(48) % 10

        def run(checkpoint=None, resume_from=None, plan=None):
            net = DeepNetwork([x.shape[1], 9, 10], head="softmax", seed=2)
            with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=0) as eng:
                if plan is not None:
                    with inject(plan):
                        finetune(net, x, labels, epochs=4, batch_size=16, seed=7,
                                 engine=eng, checkpoint=checkpoint)
                else:
                    finetune(net, x, labels, epochs=4, batch_size=16, seed=7,
                             engine=eng, checkpoint=checkpoint,
                             resume_from=resume_from)
            return net

        baseline = run()
        store = CheckpointStore(tmp_path)
        with pytest.raises(FaultError):
            run(checkpoint=store,
                plan=FaultPlan.fail("engine.worker", nth=9, match={"kind": "mlp"}))
        assert store.latest() is not None
        resumed = run(checkpoint=store, resume_from=tmp_path)
        for a, b in zip(baseline.layers, resumed.layers):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.b, b.b)


class TestKillAnywhereSerial:
    """A serial run is the W=1 engine, so it carries the engine's kill
    points: worker 0 before each update's gradient, and the reduce site
    after it.  Each kill lands after the first snapshot."""

    @staticmethod
    def _kill_and_resume(run, make_plan, tmp_path):
        baseline = run()
        store = CheckpointStore(tmp_path, keep=3)
        with pytest.raises(FaultError):
            with inject(make_plan()) as plan:
                run(checkpoint=store)
        assert sum(plan.fired(site) for site in ("engine.worker", "engine.reduce")) == 1
        assert store.latest() is not None, "crash left no snapshot to resume from"
        return baseline, run(checkpoint=store, resume_from=tmp_path)

    @pytest.mark.parametrize("make_plan", [
        pytest.param(lambda: FaultPlan.kill_worker(0, nth=4), id="worker0"),
        pytest.param(lambda: FaultPlan.fail("engine.reduce", nth=7), id="reduce"),
    ])
    def test_sae(self, x, tmp_path, make_plan):
        def run(**ckpt):
            return _sae(x.shape[1]).pretrain(x, **ckpt)

        baseline, resumed = self._kill_and_resume(run, make_plan, tmp_path)
        _assert_blocks_equal(baseline, resumed, ("w1", "b1", "w2", "b2"))
        assert baseline.layer_errors == resumed.layer_errors

    @pytest.mark.parametrize("make_plan", [
        pytest.param(lambda: FaultPlan.kill_worker(0, nth=5), id="worker0"),
        pytest.param(lambda: FaultPlan.fail("engine.reduce", nth=9), id="reduce"),
    ])
    def test_dbn(self, x, tmp_path, make_plan):
        v = (x > 0.5).astype(np.float64)

        def run(**ckpt):
            return _dbn(x.shape[1]).pretrain(v, **ckpt)

        baseline, resumed = self._kill_and_resume(run, make_plan, tmp_path)
        _assert_blocks_equal(baseline, resumed, ("w", "b", "c"))
        assert baseline.layer_errors == resumed.layer_errors

    @pytest.mark.parametrize("make_plan", [
        pytest.param(lambda: FaultPlan.kill_worker(0, nth=4), id="worker0"),
        pytest.param(lambda: FaultPlan.fail("engine.reduce", nth=8), id="reduce"),
    ])
    def test_finetune(self, x, tmp_path, make_plan):
        labels = np.arange(48) % 10

        def run(**ckpt):
            net = DeepNetwork([x.shape[1], 9, 10], head="softmax", seed=2)
            result = finetune(net, x, labels, epochs=4, batch_size=16, seed=7, **ckpt)
            return net, result.losses

        (baseline, base_losses), (resumed, losses) = self._kill_and_resume(
            run, make_plan, tmp_path
        )
        for a, b in zip(baseline.layers, resumed.layers):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.b, b.b)
        assert base_losses == losses


class TestResumeValidation:
    def test_worker_count_mismatch_rejected(self, x, tmp_path):
        store = CheckpointStore(tmp_path)
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=0) as eng:
            with pytest.raises(FaultError):
                with inject(FaultPlan.kill_worker(0, nth=8)):
                    _sae(x.shape[1]).pretrain(x, engine=eng, checkpoint=store)
        with ParallelGradientEngine(3, blas_threads=None, seed=0) as eng:
            with pytest.raises(CheckpointError, match="n_workers"):
                _sae(x.shape[1]).pretrain(x, engine=eng, resume_from=tmp_path)

    def test_execution_mode_mismatch_rejected(self, x, tmp_path):
        store = CheckpointStore(tmp_path)
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=0) as eng:
            with pytest.raises(FaultError):
                with inject(FaultPlan.kill_worker(0, nth=8)):
                    _sae(x.shape[1]).pretrain(x, engine=eng, checkpoint=store)
        with pytest.raises(CheckpointError, match="execution mode"):
            _sae(x.shape[1]).pretrain(x, resume_from=tmp_path)

    def test_wrong_model_rejected(self, x, tmp_path):
        store = CheckpointStore(tmp_path)
        _sae(x.shape[1]).pretrain(x, checkpoint=store)
        other = StackedAutoencoder(
            x.shape[1], [LayerSpec(6, epochs=2, batch_size=16)], seed=3
        )
        with pytest.raises(CheckpointError, match="match"):
            other.pretrain(x, resume_from=tmp_path)

    def test_wrong_kind_rejected(self, x, tmp_path):
        store = CheckpointStore(tmp_path)
        _sae(x.shape[1]).pretrain(x, checkpoint=store)
        with pytest.raises(CheckpointError, match="kind"):
            _dbn(x.shape[1]).pretrain((x > 0.5).astype(np.float64),
                                      resume_from=tmp_path)


def _with_engine(train):
    """``train(engine, x, **ckpt)`` as ``run(workers, x, **ckpt)``: serial
    when ``workers`` is None, else on a borrowed W-worker engine."""
    def run(workers, x, **ckpt):
        if workers is None:
            return train(None, x, **ckpt)
        with ParallelGradientEngine(workers, blas_threads=None, seed=0) as eng:
            return train(eng, x, **ckpt)
    return run


def _pipelined(workers, x, **ckpt):
    mode = "serial" if workers is None else "thread"
    return _sae(x.shape[1]).pretrain(
        x, strategy="pipelined", engine_mode=mode, n_workers=workers, **ckpt
    )


#: every resumable driver, as ``run(workers, x, checkpoint=/resume_from=)``
DRIVERS = {
    "greedy": _with_engine(
        lambda eng, x, **ckpt: _sae(x.shape[1]).pretrain(x, engine=eng, **ckpt)
    ),
    "sharded": _with_engine(
        lambda eng, x, **ckpt: sharded_pretrain(_sae(x.shape[1]), x, 2, engine=eng, **ckpt)
    ),
    "finetune": _with_engine(
        lambda eng, x, **ckpt: finetune(
            DeepNetwork([x.shape[1], 9, 10], head="softmax", seed=2),
            x, np.arange(len(x)) % 10, epochs=2, batch_size=16, seed=7,
            engine=eng, **ckpt,
        )
    ),
    "pipelined": _pipelined,
}


class TestEngineStateRefusals:
    """Every driver refuses a resume whose execution mode or worker count
    differs from the snapshot's.  A pipelined snapshot records its
    ``engine_mode`` and refuses a serial→engine switch on that first."""

    @pytest.mark.parametrize("driver, saved, resumed, message", [
        *[(d, None, N_WORKERS, "execution mode")
          for d in ("greedy", "sharded", "finetune")],
        *[(d, N_WORKERS, N_WORKERS + 1, "n_workers") for d in DRIVERS],
    ])
    def test_mismatch_refused(self, x, tmp_path, driver, saved, resumed, message):
        run = DRIVERS[driver]
        run(saved, x, checkpoint=tmp_path)
        with pytest.raises(CheckpointError, match=message):
            run(resumed, x, resume_from=tmp_path)


def _trained_arrays(result):
    """Every parameter array a driver's result holds, in a fixed order."""
    if isinstance(result, list):  # sharded: the trained shards
        return [a for shard in result for a in _trained_arrays(shard.model)]
    if hasattr(result, "network"):  # fine-tune
        return result.network.parameters()
    return [a for block in result.blocks for a in block.parameters()]


class TestResumeFromStore:
    """``resume_from`` takes a :class:`CheckpointStore` in every driver,
    and resuming from one equals resuming from its directory (and the
    uninterrupted run)."""

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_store_equals_directory(self, x, tmp_path, driver):
        run = DRIVERS[driver]
        store = CheckpointStore(tmp_path, keep=100)
        full = _trained_arrays(run(None, x, checkpoint=store))
        for path in store.list()[1:]:
            path.unlink()  # the first snapshot, mid-run, becomes the newest
        from_directory = _trained_arrays(run(None, x, resume_from=tmp_path))
        from_store = _trained_arrays(run(None, x, resume_from=CheckpointStore(tmp_path)))
        assert len(from_store) == len(from_directory) == len(full) > 0
        for a, b, c in zip(full, from_directory, from_store):
            assert np.array_equal(a, b) and np.array_equal(b, c)

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_empty_store_refused(self, x, tmp_path, driver):
        with pytest.raises(CheckpointError, match="no checkpoints under"):
            DRIVERS[driver](None, x, resume_from=CheckpointStore(tmp_path))
