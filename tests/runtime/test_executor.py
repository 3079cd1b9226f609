"""ParallelGradientEngine: bit-exactness vs serial, determinism, lifecycle.

The shapes here sit below ``AUTO_SERIAL_CUTOFF``, so the plain test
classes exercise the inline path (shards on the calling thread); each
``*Threaded`` subclass re-runs them with every shard on its slot thread.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.autoencoder import SparseAutoencoder
from repro.nn.cost import SparseAutoencoderCost
from repro.nn.finetune import finetune
from repro.nn.mlp import DeepNetwork, one_hot
from repro.nn.rbm import RBM
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from repro.optim.sgd import SGD
from repro.runtime import executor
from repro.runtime.executor import ExecutorClosedError, ParallelGradientEngine
from repro.runtime.workspace import Workspace
from repro.utils.rng import spawn_streams

TOL = 1e-10  # the ISSUE's parallel-vs-serial equivalence bound


def _sae(sparsity=3.0, n_visible=12, n_hidden=7, seed=0):
    cost = SparseAutoencoderCost(
        weight_decay=1e-3, sparsity_target=0.05, sparsity_weight=sparsity
    )
    return SparseAutoencoder(n_visible, n_hidden, cost=cost, seed=seed)


def _grad_diff(a, b):
    return max(
        float(np.max(np.abs(a.w1 - b.w1))),
        float(np.max(np.abs(a.b1 - b.b1))),
        float(np.max(np.abs(a.w2 - b.w2))),
        float(np.max(np.abs(a.b2 - b.b2))),
    )


class TestSAEEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_gradients_match_serial(self, n_workers):
        model = _sae()
        x = np.random.default_rng(1).random((23, model.n_visible))
        loss_ref, g_ref = model.gradients(x)
        with ParallelGradientEngine(n_workers=n_workers, blas_threads=None) as eng:
            loss_par, g_par = eng.gradients(model, x)
        assert abs(loss_par - loss_ref) <= TOL
        assert _grad_diff(g_ref, g_par) <= TOL

    def test_sparsity_penalty_uses_global_rho(self):
        # The KL penalty is non-decomposable: a naive per-shard ρ̂ would
        # give a different (wrong) gradient.  The two-phase protocol must
        # reproduce the batch-global statistic exactly.
        model = _sae(sparsity=10.0)
        x = np.random.default_rng(2).random((17, model.n_visible))
        _, g_ref = model.gradients(x)
        with ParallelGradientEngine(n_workers=4, blas_threads=None) as eng:
            _, g_par = eng.gradients(model, x)
        assert _grad_diff(g_ref, g_par) <= TOL

    def test_no_sparsity_single_phase(self):
        model = _sae(sparsity=0.0)
        x = np.random.default_rng(3).random((10, model.n_visible))
        _, g_ref = model.gradients(x)
        with ParallelGradientEngine(n_workers=2, blas_threads=None) as eng:
            _, g_par = eng.gradients(model, x)
        assert _grad_diff(g_ref, g_par) <= TOL

    def test_step_trajectory_matches_serial(self):
        parallel, serial = _sae(seed=5), _sae(seed=5)
        rng = np.random.default_rng(4)
        ws = Workspace()
        with ParallelGradientEngine(n_workers=3, blas_threads=None) as eng:
            for _ in range(5):
                batch = rng.random((13, parallel.n_visible))
                _, grads = eng.gradients(parallel, batch)
                parallel.apply_update(grads, 0.1, workspace=eng.coordinator_workspace)
                _, grads = serial.gradients_into(batch, ws)
                serial.apply_update(grads, 0.1, workspace=ws)
        assert float(np.max(np.abs(parallel.w1 - serial.w1))) <= TOL

    def test_more_workers_than_rows(self):
        model = _sae()
        x = np.random.default_rng(5).random((2, model.n_visible))
        _, g_ref = model.gradients(x)
        with ParallelGradientEngine(n_workers=6, blas_threads=None) as eng:
            _, g_par = eng.gradients(model, x)
        assert _grad_diff(g_ref, g_par) <= TOL

    def test_sgd_through_flat_objective_matches_serial(self):
        # The engine reduces straight into the model's flat gradient views.
        parallel, serial = _sae(seed=7), _sae(seed=7)
        data = np.random.default_rng(6).random((30, parallel.n_visible))
        serial.enable_flat_views()
        parallel.enable_flat_views()
        ws = Workspace()

        def serial_objective(theta, batch):
            return serial.flat_loss_and_grad(theta, batch, workspace=ws)

        with ParallelGradientEngine(n_workers=2, blas_threads=None) as eng:

            def parallel_objective(theta, batch):
                np.copyto(parallel._flat_theta, theta)
                loss, _ = eng.gradients(parallel, batch, out=parallel._flat_grad_views)
                return loss, parallel._flat_grad

            res_par = SGD(learning_rate=0.2, seed=1).minimize(
                parallel_objective,
                parallel.get_flat_parameters(),
                data, batch_size=8, epochs=2,
            )
        res_ser = SGD(learning_rate=0.2, seed=1).minimize(
            serial_objective, serial.get_flat_parameters(),
            data, batch_size=8, epochs=2,
        )
        assert float(np.max(np.abs(res_par.theta - res_ser.theta))) <= TOL


@pytest.mark.usefixtures("threaded_dispatch")
class TestSAEEquivalenceThreaded(TestSAEEquivalence):
    """The SAE checks with every shard on its slot thread."""


class TestCDDeterminism:
    def test_bit_reproducible_at_fixed_worker_count(self):
        x = np.random.default_rng(7).random((19, 9))
        stats = []
        for _ in range(2):
            rbm = RBM(9, 5, seed=3)
            with ParallelGradientEngine(n_workers=3, blas_threads=None, seed=42) as eng:
                stats.append(eng.cd_gradients(rbm, x))
        np.testing.assert_array_equal(stats[0].grad_w, stats[1].grad_w)
        np.testing.assert_array_equal(stats[0].grad_b, stats[1].grad_b)
        np.testing.assert_array_equal(stats[0].grad_c, stats[1].grad_c)

    def test_matches_serial_shard_oracle(self):
        # Serial oracle: run the same shards through the same spawned
        # streams, reduce by shard weight — the engine must agree ≤1e-10.
        rbm = RBM(9, 5, seed=3)
        x = np.random.default_rng(8).random((19, 9))
        n_workers = 3
        with ParallelGradientEngine(
            n_workers=n_workers, blas_threads=None, seed=42
        ) as eng:
            shards = eng._shards(x.shape[0])
            stats = eng.cd_gradients(rbm, x)

        streams = spawn_streams(42, n_workers)
        ws = Workspace()
        m = x.shape[0]
        gw = np.zeros_like(rbm.w)
        err = 0.0
        for i, (start, stop) in enumerate(shards):
            s = rbm.contrastive_divergence(
                x[start:stop], k=1, rng=streams[i], workspace=ws
            )
            weight = (stop - start) / m
            gw += weight * s.grad_w
            err += weight * s.reconstruction_error
        assert float(np.max(np.abs(stats.grad_w - gw))) <= TOL
        assert abs(stats.reconstruction_error - err) <= TOL

    def test_cd_options_reach_every_shard(self):
        # k and sample_visible travel to the shards as call options.
        rbm = RBM(9, 5, seed=3)
        x = np.random.default_rng(8).random((19, 9))
        with ParallelGradientEngine(n_workers=3, blas_threads=None, seed=42) as eng:
            shards = eng._shards(x.shape[0])
            stats = eng.cd_gradients(rbm, x, k=2, sample_visible=True)
        streams = spawn_streams(42, 3)
        ws = Workspace()
        gw = np.zeros_like(rbm.w)
        for i, (start, stop) in enumerate(shards):
            s = rbm.contrastive_divergence(
                x[start:stop], k=2, rng=streams[i], sample_visible=True, workspace=ws
            )
            gw += (stop - start) / x.shape[0] * s.grad_w
        assert float(np.max(np.abs(stats.grad_w - gw))) <= TOL

    def test_cd_step_updates_model(self):
        rbm = RBM(9, 5, seed=3)
        w_before = rbm.w.copy()
        x = np.random.default_rng(9).random((12, 9))
        with ParallelGradientEngine(n_workers=2, blas_threads=None) as eng:
            stats = eng.cd_gradients(rbm, x)
            rbm.apply_update(stats, 0.1, workspace=eng.coordinator_workspace)
        assert stats.reconstruction_error > 0
        assert not np.array_equal(rbm.w, w_before)


@pytest.mark.usefixtures("threaded_dispatch")
class TestCDDeterminismThreaded(TestCDDeterminism):
    """The CD checks with every shard on its slot thread."""


class TestSupervisedEquivalence:
    def test_gradients_match_serial(self):
        net = DeepNetwork([8, 6, 4], head="softmax", seed=0)
        rng = np.random.default_rng(10)
        x = rng.random((21, 8))
        targets = one_hot(rng.integers(0, 4, size=21), 4)
        loss_ref, g_ref = net.gradients(x, targets)
        with ParallelGradientEngine(n_workers=3, blas_threads=None) as eng:
            loss_par, g_par = eng.supervised_gradients(net, x, targets)
        assert abs(loss_par - loss_ref) <= TOL
        for (gw_r, gb_r), (gw_p, gb_p) in zip(g_ref, g_par):
            assert float(np.max(np.abs(gw_r - gw_p))) <= TOL
            assert float(np.max(np.abs(gb_r - gb_p))) <= TOL

    def test_row_count_mismatch_rejected(self):
        net = DeepNetwork([8, 4], head="softmax", seed=0)
        with ParallelGradientEngine(n_workers=2, blas_threads=None) as eng:
            with pytest.raises(ConfigurationError):
                eng.supervised_gradients(net, np.zeros((5, 8)), np.zeros((4, 4)))


@pytest.mark.usefixtures("threaded_dispatch")
class TestSupervisedEquivalenceThreaded(TestSupervisedEquivalence):
    """The back-propagation checks with every shard on its slot thread."""


class TestTrainingLoopWiring:
    def test_stacked_autoencoder_pretrain_matches_serial(self):
        specs = [LayerSpec(n_hidden=6, epochs=2, batch_size=7)]
        x = np.random.default_rng(11).random((20, 10))
        serial = StackedAutoencoder(10, specs, seed=0).pretrain(x)
        with ParallelGradientEngine(n_workers=2, blas_threads=None) as eng:
            parallel = StackedAutoencoder(10, specs, seed=0).pretrain(x, engine=eng)
        diff = np.max(np.abs(serial.blocks[0].w1 - parallel.blocks[0].w1))
        assert float(diff) <= TOL

    def test_dbn_pretrain_with_engine_learns(self):
        specs = [LayerSpec(n_hidden=6, epochs=3, batch_size=8)]
        x = (np.random.default_rng(12).random((24, 10)) > 0.5).astype(float)
        with ParallelGradientEngine(n_workers=2, blas_threads=None, seed=1) as eng:
            dbn = DeepBeliefNetwork(10, specs, seed=0).pretrain(x, engine=eng)
        errors = dbn.layer_errors[0]
        assert len(errors) == 3
        assert errors[-1] <= errors[0]

    def test_finetune_with_engine_matches_serial(self):
        rng = np.random.default_rng(13)
        x = rng.random((26, 8))
        labels = rng.integers(0, 3, size=26)
        serial_net = DeepNetwork([8, 5, 3], head="softmax", seed=2)
        parallel_net = DeepNetwork([8, 5, 3], head="softmax", seed=2)
        res_ser = finetune(serial_net, x, labels, epochs=2, seed=9)
        with ParallelGradientEngine(n_workers=2, blas_threads=None) as eng:
            res_par = finetune(parallel_net, x, labels, epochs=2, seed=9, engine=eng)
        assert res_par.n_updates == res_ser.n_updates
        np.testing.assert_allclose(res_par.losses, res_ser.losses, atol=TOL)
        diff = np.max(np.abs(serial_net.layers[0].w - parallel_net.layers[0].w))
        assert float(diff) <= TOL


@pytest.mark.usefixtures("threaded_dispatch")
class TestTrainingLoopWiringThreaded(TestTrainingLoopWiring):
    """The training trajectories with every shard on its slot thread."""


# -- both dispatch paths: same results, where the shards run, failures -------

KINDS = ("sae", "rbm", "mlp")


def _model(kind, seed=0):
    if kind == "sae":
        return _sae(sparsity=3.0, n_visible=8, seed=seed)  # two-phase protocol
    if kind == "rbm":
        return RBM(8, 5, seed=seed)
    return DeepNetwork([8, 6, 4], head="softmax", seed=seed)


def _gradients(eng, model, x, rng):
    """One engine gradient call on ``model``; flat list of its results."""
    if isinstance(model, SparseAutoencoder):
        loss, g = eng.gradients(model, x)
        return [loss, g.w1, g.b1, g.w2, g.b2]
    if isinstance(model, RBM):
        s = eng.cd_gradients(model, x)
        return [s.reconstruction_error, s.grad_w, s.grad_b, s.grad_c]
    targets = np.eye(4)[rng.integers(0, 4, size=x.shape[0])]
    loss, grads = eng.supervised_gradients(model, x, targets)
    return [loss] + [a for pair in grads for a in pair]


def _step(eng, model, x, rng):
    """One synchronized update: an engine gradient call, then the apply."""
    if isinstance(model, SparseAutoencoder):
        _, grads = eng.gradients(model, x)
    elif isinstance(model, RBM):
        grads = eng.cd_gradients(model, x)
    else:
        targets = np.eye(4)[rng.integers(0, 4, size=x.shape[0])]
        _, grads = eng.supervised_gradients(model, x, targets)
    model.apply_update(grads, 0.1, workspace=eng.coordinator_workspace)


def _run_steps(kind, n_workers):
    """Three ragged steps and a final gradient; everything a run produces."""
    model = _model(kind)
    rng = np.random.default_rng(21)
    with ParallelGradientEngine(n_workers, blas_threads=None, seed=4) as eng:
        for rows in (23, 17, 25):
            _step(eng, model, rng.random((rows, 8)), rng)
        results = [np.copy(r) for r in _gradients(eng, model, rng.random((19, 8)), rng)]
        streams = eng.capture_rng_streams()
    return results + [np.copy(p) for p in model.parameters()], streams


def _record_threads(monkeypatch):
    """Wrap the shard tasks (prepass included) to log ``(slot index, thread ident)``."""
    seen = []
    for name in ("_prepass_task", "_shard_task"):
        original = getattr(ParallelGradientEngine, name)

        def recording(slot, *args, _original=original):
            seen.append((slot.index, threading.get_ident()))
            return _original(slot, *args)

        monkeypatch.setattr(ParallelGradientEngine, name, staticmethod(recording))
    return seen


class TestShardDispatch:
    @pytest.mark.parametrize("n_workers", [2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_inline_and_threaded_runs_are_bit_identical(
        self, kind, n_workers, monkeypatch
    ):
        inline, inline_streams = _run_steps(kind, n_workers)
        with monkeypatch.context() as patch:
            patch.setattr(executor, "AUTO_SERIAL_CUTOFF", 0)
            threaded, threaded_streams = _run_steps(kind, n_workers)
        assert len(inline) == len(threaded)
        for a, b in zip(inline, threaded):
            assert np.array_equal(a, b)
        assert inline_streams == threaded_streams

    @pytest.mark.parametrize("kind", KINDS)
    def test_shards_run_where_the_cutoff_says(self, kind, monkeypatch):
        seen = _record_threads(monkeypatch)
        rows_at_cutoff = executor.AUTO_SERIAL_CUTOFF // 8
        rng = np.random.default_rng(0)
        caller = threading.get_ident()
        with ParallelGradientEngine(2, blas_threads=None, seed=1) as eng:
            model = _model(kind)
            _gradients(eng, model, rng.random((rows_at_cutoff - 1, 8)), rng)
            assert seen and all(ident == caller for _, ident in seen)
            assert all(slot.ident is None for slot in eng._slots)  # never started
            seen.clear()
            _gradients(eng, model, rng.random((rows_at_cutoff, 8)), rng)
            slot_idents = [slot.ident for slot in eng._slots]
        assert sorted({i for i, _ in seen}) == [0, 1]
        assert all(ident == slot_idents[i] for i, ident in seen)

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_worker_never_hands_off(self, kind, monkeypatch, threaded_dispatch):
        seen = _record_threads(monkeypatch)
        rng = np.random.default_rng(0)
        with ParallelGradientEngine(1, blas_threads=None, seed=1) as eng:
            _gradients(eng, _model(kind), rng.random((4096, 8)), rng)
            slot = eng._slots[0]
        assert seen and all(ident == threading.get_ident() for _, ident in seen)
        assert slot.ident is None and slot.workspace.n_buffers == 0

    @pytest.mark.parametrize("threaded", [False, True], ids=["inline", "threaded"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_shard_exception_propagates_unchanged(
        self, kind, threaded, monkeypatch, request
    ):
        if threaded:
            request.getfixturevalue("threaded_dispatch")
        error = RuntimeError("shard 1 failed")
        original = ParallelGradientEngine._shard_task

        def failing(slot, *args):
            if slot.index == 1:
                raise error
            return original(slot, *args)

        monkeypatch.setattr(ParallelGradientEngine, "_shard_task", staticmethod(failing))
        rng = np.random.default_rng(0)
        with ParallelGradientEngine(2, blas_threads=None, seed=1) as eng:
            with pytest.raises(RuntimeError) as info:
                _gradients(eng, _model(kind), rng.random((12, 8)), rng)
        assert info.value is error

    def test_threaded_failure_joins_every_shard_before_raising(
        self, monkeypatch, threaded_dispatch
    ):
        # Shard 0 fails at once while shard 1 is still running: the caller
        # must not see the error before slot 1 has finished writing.
        finished = threading.Event()
        original = ParallelGradientEngine._shard_task

        def task(slot, *args):
            if slot.index == 0:
                raise RuntimeError("shard 0 failed")
            time.sleep(0.05)
            result = original(slot, *args)
            finished.set()
            return result

        monkeypatch.setattr(ParallelGradientEngine, "_shard_task", staticmethod(task))
        with ParallelGradientEngine(2, blas_threads=None, seed=1) as eng:
            with pytest.raises(RuntimeError, match="shard 0 failed"):
                eng.cd_gradients(RBM(8, 5, seed=0), np.ones((12, 8)))
            assert finished.is_set()


class TestLifecycle:
    def test_close_then_use_raises(self):
        eng = ParallelGradientEngine(n_workers=2, blas_threads=None)
        eng.close()
        assert eng.closed
        with pytest.raises(ExecutorClosedError):
            eng.gradients(_sae(), np.zeros((4, 12)))
        eng.close()  # idempotent

    def test_context_manager_closes(self):
        with ParallelGradientEngine(n_workers=2, blas_threads=None) as eng:
            assert not eng.closed
        assert eng.closed

    def test_worker_exception_propagates(self, monkeypatch, threaded_dispatch):
        model = _sae()
        x = np.random.default_rng(0).random((8, model.n_visible))

        def boom(*args, **kwargs):
            raise ValueError("shard failed")

        with ParallelGradientEngine(n_workers=2, blas_threads=None) as eng:
            with monkeypatch.context() as patch:
                patch.setattr(SparseAutoencoder, "shard_gradients", boom)
                with pytest.raises(ValueError, match="shard failed"):
                    eng.gradients(model, x)
            # The failed call left the engine usable.
            _, g_par = eng.gradients(model, x)
        assert _grad_diff(model.gradients(x)[1], g_par) <= TOL

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            ParallelGradientEngine(n_workers=0)

    def test_bad_batch_shape_rejected(self):
        model = _sae()
        with ParallelGradientEngine(n_workers=2, blas_threads=None) as eng:
            with pytest.raises(ConfigurationError):
                eng.gradients(model, np.zeros((4, model.n_visible + 1)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_batch_rejected_with_its_shape(self, kind):
        rng = np.random.default_rng(0)
        with ParallelGradientEngine(n_workers=2, blas_threads=None) as eng:
            with pytest.raises(ConfigurationError, match=r"\(0, 8\)"):
                _gradients(eng, _model(kind), np.zeros((0, 8)), rng)

    def test_shards_are_balanced_and_cover(self):
        with ParallelGradientEngine(n_workers=4, blas_threads=None) as eng:
            bounds = eng._shards(10)
        assert bounds[0] == (0, 3)
        assert bounds[-1][1] == 10
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) - min(sizes) <= 1


class TestOneShardInPlace:
    """A lone shard writes the call's own result arrays: no reduce pass."""

    @staticmethod
    def _spy(monkeypatch, model):
        outs, reduces = [], []
        kernel = type(model).shard_gradients

        def shard_gradients(self, workspace, out, *shard, **kw):
            outs.append(out)
            return kernel(self, workspace, out, *shard, **kw)

        reduce = ParallelGradientEngine._reduce

        def spy_reduce(pieces, weights, out):
            reduces.append(out)
            return reduce(pieces, weights, out)

        monkeypatch.setattr(type(model), "shard_gradients", shard_gradients)
        monkeypatch.setattr(ParallelGradientEngine, "_reduce", staticmethod(spy_reduce))
        return outs, reduces

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_workers,rows", [(1, 9), (2, 1)])
    def test_out_none_writes_the_engine_accumulators(
        self, kind, n_workers, rows, monkeypatch
    ):
        model = _model(kind)
        outs, reduces = self._spy(monkeypatch, model)
        x = np.random.default_rng(3).random((rows, 8))
        with ParallelGradientEngine(n_workers, blas_threads=None, seed=1) as eng:
            result = _gradients(eng, model, x, np.random.default_rng(2))
            (out,) = outs
            assert out is eng._plans[id(model)].acc
        assert all(a is b for a, b in zip(result[1:], out))
        assert reduces == []

    def test_out_arrays_are_written_in_place(self, monkeypatch):
        model = _model("sae")
        outs, reduces = self._spy(monkeypatch, model)
        target = [np.empty_like(p) for p in model.parameters()]
        x = np.random.default_rng(4).random((9, 8))
        with ParallelGradientEngine(1, blas_threads=None) as eng:
            _, grads = eng.gradients(model, x, out=target)
        assert outs == [target] and reduces == []
        assert all(a is b for a, b in zip(grads, target))

    def test_flat_objective_writes_the_flat_gradient_views(self, monkeypatch):
        # A flat SGD objective passes the model's flat gradient views as out=.
        model = _model("sae")
        outs, reduces = self._spy(monkeypatch, model)
        x = np.random.default_rng(5).random((9, 8))
        model.enable_flat_views()
        with ParallelGradientEngine(1, blas_threads=None) as eng:
            eng.gradients(model, x, out=model._flat_grad_views)
        (out,) = outs
        assert out is model._flat_grad_views and reduces == []
        assert all(np.shares_memory(view, model._flat_grad) for view in out)
