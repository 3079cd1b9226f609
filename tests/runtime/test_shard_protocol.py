"""Acceptance test of the engines' shard protocol with a model they never saw.

A forward-forward goodness layer (Hinton, 2022) is defined here and only
here: one ReLU layer trained on a layer-local objective over a positive
and a negative batch, with no backward chain through other layers.  It
speaks the shard protocol documented on
:meth:`repro.runtime.executor.ParallelGradientEngine.gradients`, and
trains on the thread engine (both dispatch paths), on the process engine
and through ``TrainLoop`` with no change to the runtime.
"""

import numpy as np
import pytest

from repro.runtime.executor import ParallelGradientEngine
from repro.runtime.procexec import ProcessGradientEngine, process_engine_available
from repro.train.loop import TrainLoop, TrainStep

TOL = 1e-10


class GoodnessLayer:
    """``h = relu(x Wᵀ + b)`` with goodness ``g = Σⱼ hⱼ²`` per row.

    The loss pushes positive rows above the threshold θ and negative rows
    below it: ``L = mean_i softplus(θ − g(posᵢ)) + softplus(g(negᵢ) − θ)``.
    Module-level, so the process engine can pickle it.
    """

    shard_kind = "ff"

    def __init__(self, n_in: int, n_out: int, threshold: float = 2.0, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.w = rng.normal(0.0, 1.0 / np.sqrt(n_in), (n_out, n_in))
        self.b = np.zeros(n_out)
        self.threshold = threshold

    def gradients(self, pos: np.ndarray, neg: np.ndarray):
        """Serial reference: ``(loss, [dW, db])`` on aligned pos/neg rows."""
        m = pos.shape[0]
        loss = 0.0
        grads = [np.zeros_like(self.w), np.zeros_like(self.b)]
        for x, sign in ((pos, 1.0), (neg, -1.0)):
            h = np.maximum(x @ self.w.T + self.b, 0.0)
            margin = sign * (self.threshold - np.sum(h * h, axis=1))
            loss += float(np.sum(np.logaddexp(0.0, margin))) / m
            # dL/dg = -sign·σ(margin)/m; dg/dz = 2h (zero where relu is off)
            dz = h * (-2.0 * sign / m / (1.0 + np.exp(-margin)))[:, None]
            grads[0] += dz.T @ x
            grads[1] += dz.sum(axis=0)
        return loss, grads

    def apply_update(self, grads, learning_rate: float) -> None:
        self.w -= learning_rate * grads[0]
        self.b -= learning_rate * grads[1]

    # -- shard protocol ---------------------------------------------------
    def parameters(self):
        return [self.w, self.b]

    def bind_parameters(self, arrays) -> None:
        self.w, self.b = arrays

    def batch_widths(self):
        return (self.w.shape[1], self.w.shape[1])

    def shard_gradients(self, workspace, out, pos, neg, pre=None, rng=None) -> float:
        loss, grads = self.gradients(pos, neg)
        for dst, src in zip(out, grads):
            np.copyto(dst, src)
        return loss

    @staticmethod
    def shard_result(loss, grads):
        return loss, grads


class GoodnessStep(TrainStep):
    kind = "forward-forward layer"

    def __init__(self, layer: GoodnessLayer, pos, neg, learning_rate: float):
        self.layer = layer
        self.pos = pos
        self.neg = neg
        self.learning_rate = learning_rate

    def n_examples(self) -> int:
        return int(self.pos.shape[0])

    def load(self, idx):
        return (self.pos[idx], self.neg[idx])

    def compute(self, batch):
        return self.layer.gradients(*batch)

    def apply(self, grads) -> None:
        self.layer.apply_update(grads, self.learning_rate)

    def engine_compute(self, engine, batch):
        return engine.gradients(self.layer, *batch)

    def engine_apply(self, engine, grads) -> None:
        self.layer.apply_update(grads, self.learning_rate)


def _data(m=21, n_in=12, seed=3):
    rng = np.random.default_rng(seed)
    pos = rng.normal(1.0, 1.0, (m, n_in))
    neg = rng.normal(0.0, 1.0, (m, n_in))
    return pos, neg


def _assert_matches_serial(engine):
    layer = GoodnessLayer(12, 9, seed=1)
    pos, neg = _data()
    loss_ref, grads_ref = layer.gradients(pos, neg)
    loss, grads = engine.gradients(layer, pos, neg)
    assert abs(loss - loss_ref) <= TOL
    for ref, par in zip(grads_ref, grads):
        assert float(np.max(np.abs(ref - par))) <= TOL


class TestEveryEngine:
    def test_thread_engine_inline(self):
        with ParallelGradientEngine(n_workers=2, blas_threads=None) as eng:
            _assert_matches_serial(eng)
            assert all(slot.ident is None for slot in eng._slots)

    def test_thread_engine_threaded(self, threaded_dispatch):
        with ParallelGradientEngine(n_workers=3, blas_threads=None) as eng:
            _assert_matches_serial(eng)
            assert all(slot.ident is not None for slot in eng._slots)

    @pytest.mark.skipif(
        not process_engine_available(),
        reason="multiprocessing.shared_memory unavailable on this platform",
    )
    def test_process_engine(self):
        with ProcessGradientEngine(n_workers=2, blas_threads=None) as eng:
            _assert_matches_serial(eng)


class TestTrainLoop:
    def test_trajectory_matches_serial(self):
        pos, neg = _data(m=40)

        def train(engine):
            layer = GoodnessLayer(12, 9, seed=1)
            losses = TrainLoop(engine=engine).run_epochs(
                GoodnessStep(layer, pos, neg, 0.05), epochs=3, batch_size=8,
                rng=np.random.default_rng(7),
            )
            return layer, losses

        serial, serial_losses = train(None)
        with ParallelGradientEngine(n_workers=2, blas_threads=None) as eng:
            parallel, parallel_losses = train(eng)
            assert eng.n_steps == 15
        np.testing.assert_allclose(parallel_losses, serial_losses, atol=TOL, rtol=0)
        for a, b in zip(serial.parameters(), parallel.parameters()):
            assert float(np.max(np.abs(a - b))) <= TOL
        assert not np.array_equal(parallel.w, GoodnessLayer(12, 9, seed=1).w)
