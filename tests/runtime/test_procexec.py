"""ProcessGradientEngine: parity with the thread engine, lifecycle, failure
containment, spawn-safety, and ``make_engine`` backend selection."""

import multiprocessing as mp
import os
import subprocess
import sys
import textwrap
from functools import partial

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
from repro.runtime.executor import ExecutorClosedError, ParallelGradientEngine
from repro.runtime.procexec import (
    EngineError,
    ProcessGradientEngine,
    _handle,
    make_engine,
    process_engine_available,
)
from repro.runtime.workspace import Workspace

TOL = 1e-10  # the ISSUE's parallel-vs-serial equivalence bound

pytestmark = pytest.mark.skipif(
    not process_engine_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)


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


# Worker payloads must be picklable: module-level, not lambdas.
def _square(i):
    return i * i


def _boom():
    raise ValueError("shard failed")


class TestSAEEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_gradients_match_serial(self, n_workers):
        model = _sae()
        x = np.random.default_rng(1).random((23, model.n_visible))
        loss_ref, g_ref = model.gradients(x)
        with ProcessGradientEngine(n_workers=n_workers, blas_threads=None) as eng:
            loss_par, g_par = eng.sae_gradients(model, x)
        assert abs(loss_par - loss_ref) <= TOL
        assert _grad_diff(g_ref, g_par) <= TOL

    def test_sparsity_penalty_uses_global_rho(self):
        model = _sae(sparsity=10.0)
        x = np.random.default_rng(2).random((17, model.n_visible))
        _, g_ref = model.gradients(x)
        with ProcessGradientEngine(n_workers=4, blas_threads=None) as eng:
            _, g_par = eng.sae_gradients(model, x)
        assert _grad_diff(g_ref, g_par) <= TOL

    def test_bit_identical_to_thread_engine(self):
        # Not just ≤1e-10: at fixed W the two backends share shard bounds,
        # weights, and reduction order, so the arithmetic is *identical*.
        model = _sae(sparsity=10.0)
        x = np.random.default_rng(3).random((19, model.n_visible))
        with ParallelGradientEngine(n_workers=3, blas_threads=None) as eng:
            loss_t, g_t = eng.sae_gradients(model, x)
        with ProcessGradientEngine(n_workers=3, blas_threads=None) as eng:
            loss_p, g_p = eng.sae_gradients(model, x)
        assert loss_p == loss_t
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(g_p, name), getattr(g_t, name))

    def test_step_trajectory_matches_serial(self):
        parallel, serial = _sae(seed=5), _sae(seed=5)
        rng = np.random.default_rng(4)
        ws = Workspace()
        with ProcessGradientEngine(n_workers=3, blas_threads=None) as eng:
            for _ in range(5):
                batch = rng.random((13, parallel.n_visible))
                eng.sae_step(parallel, batch, 0.1)
                _, grads = serial.gradients_into(batch, ws)
                serial.apply_update(grads, 0.1, workspace=ws)
        assert float(np.max(np.abs(parallel.w1 - serial.w1))) <= TOL

    def test_more_workers_than_rows(self):
        model = _sae()
        x = np.random.default_rng(5).random((2, model.n_visible))
        _, g_ref = model.gradients(x)
        with ProcessGradientEngine(n_workers=6, blas_threads=None) as eng:
            _, g_par = eng.sae_gradients(model, x)
        assert _grad_diff(g_ref, g_par) <= TOL

    def test_sgd_through_flat_objective_matches_serial(self):
        parallel, serial = _sae(seed=7), _sae(seed=7)
        data = np.random.default_rng(6).random((30, parallel.n_visible))
        serial.enable_flat_views()
        ws = Workspace()

        def serial_objective(theta, batch):
            return serial.flat_loss_and_grad(theta, batch, workspace=ws)

        with ProcessGradientEngine(n_workers=2, blas_threads=None) as eng:
            res_par = SGD(learning_rate=0.2, seed=1).minimize(
                eng.flat_objective(parallel),
                parallel.get_flat_parameters(),
                data, batch_size=8, epochs=2,
            )
        res_ser = SGD(learning_rate=0.2, seed=1).minimize(
            serial_objective, serial.get_flat_parameters(),
            data, batch_size=8, epochs=2,
        )
        assert float(np.max(np.abs(res_par.theta - res_ser.theta))) <= TOL


class TestCDDeterminism:
    def test_bit_reproducible_at_fixed_worker_count(self):
        x = np.random.default_rng(7).random((19, 9))
        stats = []
        for _ in range(2):
            rbm = RBM(9, 5, seed=3)
            with ProcessGradientEngine(n_workers=3, blas_threads=None, seed=42) as eng:
                stats.append(eng.cd_gradients(rbm, x))
        np.testing.assert_array_equal(stats[0].grad_w, stats[1].grad_w)
        np.testing.assert_array_equal(stats[0].grad_b, stats[1].grad_b)
        np.testing.assert_array_equal(stats[0].grad_c, stats[1].grad_c)

    def test_bit_identical_to_thread_engine_including_streams(self):
        # The coordinator owns stream i and ships its state to worker i,
        # so gradients AND the post-step stream positions must match the
        # thread engine exactly — that is what makes checkpoint/resume
        # engine-agnostic.
        x = np.random.default_rng(8).random((19, 9))
        results = []
        for cls in (ParallelGradientEngine, ProcessGradientEngine):
            rbm = RBM(9, 5, seed=3)
            with cls(n_workers=3, blas_threads=None, seed=42) as eng:
                stats = eng.cd_gradients(rbm, x)
                results.append((stats, eng.capture_rng_streams()))
        (s_t, streams_t), (s_p, streams_p) = results
        np.testing.assert_array_equal(s_p.grad_w, s_t.grad_w)
        assert s_p.reconstruction_error == s_t.reconstruction_error
        assert streams_p == streams_t

    def test_cd_options_bit_identical_to_thread_engine(self):
        # k and sample_visible cross the pipe as the shard message's options.
        x = np.random.default_rng(8).random((19, 9))
        results = []
        for cls in (ParallelGradientEngine, ProcessGradientEngine):
            rbm = RBM(9, 5, seed=3)
            with cls(n_workers=3, blas_threads=None, seed=42) as eng:
                stats = eng.cd_gradients(rbm, x, k=2, sample_visible=True)
                results.append((stats, eng.capture_rng_streams()))
        (s_t, streams_t), (s_p, streams_p) = results
        np.testing.assert_array_equal(s_p.grad_w, s_t.grad_w)
        assert streams_p == streams_t

    def test_capture_restore_streams_replays_exactly(self):
        rbm = RBM(9, 5, seed=3)
        x = np.random.default_rng(9).random((15, 9))
        with ProcessGradientEngine(n_workers=2, blas_threads=None, seed=11) as eng:
            snapshot = eng.capture_rng_streams()
            first = eng.cd_gradients(rbm, x)
            eng.restore_rng_streams(snapshot)
            replay = eng.cd_gradients(rbm, x)
        np.testing.assert_array_equal(first.grad_w, replay.grad_w)
        assert first.reconstruction_error == replay.reconstruction_error

    def test_cd_step_updates_model(self):
        rbm = RBM(9, 5, seed=3)
        w_before = rbm.w.copy()
        x = np.random.default_rng(9).random((12, 9))
        with ProcessGradientEngine(n_workers=2, blas_threads=None) as eng:
            stats = eng.cd_step(rbm, x, 0.1)
        assert stats.reconstruction_error > 0
        assert not np.array_equal(rbm.w, w_before)


class TestSupervisedEquivalence:
    def test_gradients_match_serial(self):
        net = DeepNetwork([8, 6, 4], head="softmax", seed=0)
        rng = np.random.default_rng(10)
        x = rng.random((21, 8))
        targets = one_hot(rng.integers(0, 4, size=21), 4)
        loss_ref, g_ref = net.gradients(x, targets)
        with ProcessGradientEngine(n_workers=3, blas_threads=None) as eng:
            loss_par, g_par = eng.supervised_gradients(net, x, targets)
        assert abs(loss_par - loss_ref) <= TOL
        for (gw_r, gb_r), (gw_p, gb_p) in zip(g_ref, g_par):
            assert float(np.max(np.abs(gw_r - gw_p))) <= TOL
            assert float(np.max(np.abs(gb_r - gb_p))) <= TOL

    def test_row_count_mismatch_rejected(self):
        net = DeepNetwork([8, 4], head="softmax", seed=0)
        with ProcessGradientEngine(n_workers=2, blas_threads=None) as eng:
            with pytest.raises(ConfigurationError):
                eng.supervised_gradients(net, np.zeros((5, 8)), np.zeros((4, 4)))


class TestTrainingLoopWiring:
    def test_stacked_autoencoder_pretrain_matches_serial(self):
        specs = [LayerSpec(n_hidden=6, epochs=2, batch_size=7)]
        x = np.random.default_rng(11).random((20, 10))
        serial = StackedAutoencoder(10, specs, seed=0).pretrain(x)
        with ProcessGradientEngine(n_workers=2, blas_threads=None) as eng:
            parallel = StackedAutoencoder(10, specs, seed=0).pretrain(x, engine=eng)
        diff = np.max(np.abs(serial.blocks[0].w1 - parallel.blocks[0].w1))
        assert float(diff) <= TOL

    def test_dbn_pretrain_bit_identical_to_thread_engine(self):
        specs = [LayerSpec(n_hidden=6, epochs=3, batch_size=8)]
        x = (np.random.default_rng(12).random((24, 10)) > 0.5).astype(float)
        with ParallelGradientEngine(n_workers=2, blas_threads=None, seed=1) as eng:
            thread_dbn = DeepBeliefNetwork(10, specs, seed=0).pretrain(x, engine=eng)
        with ProcessGradientEngine(n_workers=2, blas_threads=None, seed=1) as eng:
            proc_dbn = DeepBeliefNetwork(10, specs, seed=0).pretrain(x, engine=eng)
        for a, b in zip(thread_dbn.blocks, proc_dbn.blocks):
            np.testing.assert_array_equal(a.w, b.w)
            np.testing.assert_array_equal(a.b, b.b)
            np.testing.assert_array_equal(a.c, b.c)
        assert thread_dbn.layer_errors == proc_dbn.layer_errors

    def test_finetune_with_engine_matches_serial(self):
        rng = np.random.default_rng(13)
        x = rng.random((26, 8))
        labels = rng.integers(0, 3, size=26)
        serial_net = DeepNetwork([8, 5, 3], head="softmax", seed=2)
        parallel_net = DeepNetwork([8, 5, 3], head="softmax", seed=2)
        res_ser = finetune(serial_net, x, labels, epochs=2, seed=9)
        with ProcessGradientEngine(n_workers=2, blas_threads=None) as eng:
            res_par = finetune(parallel_net, x, labels, epochs=2, seed=9, engine=eng)
        assert res_par.n_updates == res_ser.n_updates
        np.testing.assert_allclose(res_par.losses, res_ser.losses, atol=TOL)
        diff = np.max(np.abs(serial_net.layers[0].w - parallel_net.layers[0].w))
        assert float(diff) <= TOL


class TestLifecycle:
    def test_close_then_use_raises(self):
        eng = ProcessGradientEngine(n_workers=2, blas_threads=None)
        eng.close()
        assert eng.closed
        with pytest.raises(ExecutorClosedError):
            eng.submit(_square, 2)
        eng.close()  # idempotent

    def test_context_manager_closes(self):
        with ProcessGradientEngine(n_workers=2, blas_threads=None) as eng:
            assert not eng.closed
        assert eng.closed

    def test_run_tasks_preserves_order(self):
        with ProcessGradientEngine(n_workers=3, blas_threads=None) as eng:
            results = eng.run_tasks([partial(_square, i) for i in range(7)])
        assert results == [i * i for i in range(7)]

    def test_worker_exception_propagates(self):
        with ProcessGradientEngine(n_workers=2, blas_threads=None) as eng:
            with pytest.raises(ValueError, match="shard failed"):
                eng.submit(_boom).result()
            # A worker-side exception is not an engine failure: the reply
            # pipes stayed aligned and the engine keeps working.
            assert eng.submit(_square, 4).result() == 16

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            ProcessGradientEngine(n_workers=0)

    def test_unknown_mp_context_rejected(self):
        with pytest.raises(ConfigurationError, match="mp_context"):
            ProcessGradientEngine(n_workers=1, mp_context="teleport")

    def test_bad_batch_shape_rejected(self):
        model = _sae()
        with ProcessGradientEngine(n_workers=2, blas_threads=None) as eng:
            with pytest.raises(ConfigurationError):
                eng.sae_gradients(model, np.zeros((4, model.n_visible + 1)))

    def test_empty_batch_rejected_with_its_shape(self):
        empty = np.zeros((0, 8))
        with ProcessGradientEngine(n_workers=2, blas_threads=None) as eng:
            with pytest.raises(ConfigurationError, match=r"\(0, 8\)"):
                eng.sae_gradients(_sae(n_visible=8), empty)
            with pytest.raises(ConfigurationError, match=r"\(0, 8\)"):
                eng.cd_gradients(RBM(8, 5, seed=0), empty)
            with pytest.raises(ConfigurationError, match=r"\(0, 8\)"):
                eng.supervised_gradients(
                    DeepNetwork([8, 4], head="softmax", seed=0), empty, np.zeros((0, 4))
                )

    def test_repr_reports_state(self):
        eng = ProcessGradientEngine(n_workers=2, blas_threads=None, name="probe")
        assert "open" in repr(eng) and "probe" in repr(eng)
        eng.close()
        assert "closed" in repr(eng)


class TestFailureContainment:
    def test_worker_death_raises_engine_error_not_hang(self):
        with ProcessGradientEngine(n_workers=2, blas_threads=None) as eng:
            with pytest.raises(EngineError, match="died"):
                eng.submit(os._exit, 3).result()

    def test_engine_is_broken_after_worker_death(self):
        model = _sae()
        x = np.zeros((4, model.n_visible))
        with ProcessGradientEngine(n_workers=2, blas_threads=None) as eng:
            with pytest.raises(EngineError):
                eng.submit(os._exit, 1).result()
            with pytest.raises(EngineError, match="unusable"):
                eng.sae_gradients(model, x)
        # close() after the crash still unlinked every segment — the
        # conftest shared-memory leak guard fails this test otherwise.
        assert eng.closed


    def test_worker_start_failure_propagates_and_cleans_up(self, monkeypatch):
        # The second worker's start raises: the caller must see that error
        # (not a teardown AttributeError), the first worker must be joined,
        # and the conftest guards check no segment or thread is left over.
        process_cls = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ).Process
        original = process_cls.start
        started = []

        def start(proc):
            if started:
                raise OSError("cannot start worker 1")
            original(proc)
            started.append(proc)

        monkeypatch.setattr(process_cls, "start", start)
        with pytest.raises(OSError, match="cannot start worker 1"):
            ProcessGradientEngine(n_workers=3, blas_threads=None)
        assert len(started) == 1
        assert started[0].exitcode is not None  # joined, not orphaned


class TestSpawnSafety:
    def test_spawn_context_parity(self, tmp_path):
        # Spawn re-imports __main__ from its file path, so this must run
        # as a real script (stdin/-c programs cannot use spawn at all).
        if "spawn" not in mp.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        script = tmp_path / "spawn_parity.py"
        script.write_text(textwrap.dedent(
            """
            import numpy as np
            from repro.nn.autoencoder import SparseAutoencoder
            from repro.runtime.procexec import ProcessGradientEngine

            if __name__ == "__main__":
                model = SparseAutoencoder(10, 6, seed=0)
                x = np.random.default_rng(1).random((13, 10))
                _, g_ref = model.gradients(x)
                with ProcessGradientEngine(
                    n_workers=2, blas_threads=None, mp_context="spawn"
                ) as eng:
                    _, g_par = eng.sae_gradients(model, x)
                print(float(np.max(np.abs(g_ref.w1 - g_par.w1))))
            """
        ))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert float(out.stdout.strip()) <= TOL


class TestMakeEngine:
    def test_explicit_modes(self):
        assert make_engine("serial") is None
        eng = make_engine("thread", n_workers=2, blas_threads=None)
        try:
            assert type(eng) is ParallelGradientEngine
        finally:
            eng.close()
        eng = make_engine("process", n_workers=2, blas_threads=None)
        try:
            assert type(eng) is ProcessGradientEngine
        finally:
            eng.close()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            make_engine("gpu")

    def test_auto_is_serial_on_one_core(self, monkeypatch):
        from repro.runtime import procexec

        monkeypatch.setattr(procexec, "available_cores", lambda: 1)
        assert make_engine("auto") is None

    def test_auto_is_serial_below_problem_cutoff(self, monkeypatch):
        from repro.runtime import procexec

        monkeypatch.setattr(procexec, "available_cores", lambda: 4)
        assert make_engine("auto", problem_size=64) is None

    def test_auto_prefers_process_under_the_gil(self, monkeypatch):
        from repro.runtime import procexec

        monkeypatch.setattr(procexec, "available_cores", lambda: 4)
        eng = make_engine("auto", n_workers=2, blas_threads=None,
                          problem_size=1 << 20)
        try:
            assert type(eng) is ProcessGradientEngine
        finally:
            eng.close()

    def test_auto_prefers_threads_without_the_gil(self, monkeypatch):
        from repro.runtime import freethreading, procexec

        monkeypatch.setattr(procexec, "available_cores", lambda: 4)
        monkeypatch.setattr(freethreading, "gil_enabled", lambda: False)
        eng = make_engine("auto", n_workers=2, blas_threads=None)
        try:
            assert type(eng) is ParallelGradientEngine
        finally:
            eng.close()

    def test_auto_falls_back_to_threads_without_shared_memory(self, monkeypatch):
        from repro.runtime import procexec

        monkeypatch.setattr(procexec, "available_cores", lambda: 4)
        monkeypatch.setattr(procexec, "process_engine_available", lambda: False)
        eng = make_engine("auto", n_workers=2, blas_threads=None)
        try:
            assert type(eng) is ParallelGradientEngine
        finally:
            eng.close()


class TestWorkerInternals:
    # The worker body runs in child processes, invisible to coverage; the
    # dispatcher is a pure function of its arguments, so exercise it
    # in-process against plain arrays.

    def test_parameters_come_in_a_fixed_order(self):
        # The arrays the coordinator registers, publishes and reduces, in
        # the order every side of the pipe agrees on.
        sae = _sae(n_visible=4, n_hidden=3)
        rbm = RBM(4, 3, seed=0)
        net = DeepNetwork([4, 3, 2], head="softmax", seed=0)
        expected = [
            (sae, [sae.w1, sae.b1, sae.w2, sae.b2]),
            (rbm, [rbm.w, rbm.b, rbm.c]),
            (net, [net.layers[0].w, net.layers[0].b,
                   net.layers[1].w, net.layers[1].b]),
        ]
        for model, arrays in expected:
            params = model.parameters()
            assert len(params) == len(arrays)
            assert all(p is a for p, a in zip(params, arrays))

    def test_handle_register_rebinds_params_to_segments(self):
        model = _sae(n_visible=4, n_hidden=3)
        segments = [np.zeros_like(p) for p in model.parameters()]
        models = {}
        msg = {
            "op": "register", "model": 0, "model_pickle": model,
            "params": list(range(len(segments))),
        }
        assert _handle(msg, segments, models, Workspace()) is None
        assert models[0].w1 is segments[0]
        assert models[0].b2 is segments[3]

    def test_handle_call_and_unknown_op(self):
        ws = Workspace()
        assert _handle({"op": "call", "fn": _square, "args": (3,)}, [], {}, ws) == 9
        with pytest.raises(ConfigurationError, match="unknown engine op"):
            _handle({"op": "warp"}, [], {}, ws)

    def test_handle_sae_grad_against_plain_arrays(self):
        model = _sae(sparsity=0.0, n_visible=5, n_hidden=3)
        x = np.random.default_rng(0).random((6, 5))
        loss_ref, g_ref = model.gradients(x)
        out = [np.empty_like(p) for p in model.parameters()]
        segments = [x] + out
        models = {0: model}
        state = np.random.default_rng(1).bit_generator.state
        msg = {"op": "shard", "model": 0, "batch": [0], "lo": 0, "hi": 6,
               "pre": None, "out": [1, 2, 3, 4], "rng": state, "options": {}}
        loss, state_after = _handle(msg, segments, models, Workspace())
        assert abs(loss - loss_ref) <= TOL
        assert float(np.max(np.abs(out[0] - g_ref.w1))) <= TOL
        assert state_after == state  # an SAE shard draws nothing
