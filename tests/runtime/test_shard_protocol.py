"""Acceptance test of the engines' shard protocol with a model they never saw.

A forward-forward goodness layer (Hinton, 2022) is defined here and only
here: one ReLU layer trained on a layer-local objective over a positive
and a negative batch, with no backward chain through other layers.  It
speaks the shard protocol documented on
:meth:`repro.runtime.executor.ParallelGradientEngine.gradients`, and
trains on the thread engine (both dispatch paths), on the process engine,
through ``TrainLoop`` as a :class:`~repro.train.ModelStep`, and as a
:class:`~repro.train.PipelinedPretrainer` stage — with no change to the
runtime or the training package.
"""

import numpy as np
import pytest

from repro.runtime.executor import ParallelGradientEngine
from repro.runtime.procexec import ProcessGradientEngine, process_engine_available
from repro.train import ModelStep, PipelinedPretrainer, StagePlan, TrainLoop

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

    def hidden(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x @ self.w.T + self.b, 0.0)

    def apply_update(self, grads, learning_rate: float, workspace=None) -> None:
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
            rng = np.random.default_rng(7)
            losses = TrainLoop().run_epochs(
                ModelStep(layer, (pos, neg), 0.05, engine=engine, rng=rng),
                epochs=3, batch_size=8, rng=rng,
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


class TestPipelineStage:
    """``StagePlan.make_step`` returns a ``ModelStep``: the layer trains as
    a pipeline stage, each stage's negatives fixed rows of its width."""

    EPOCHS, BATCH, LR = 3, 8, 0.05

    def _plan(self, index, layer, neg, seed):
        rng = np.random.default_rng(seed)
        return StagePlan(
            index=index, epochs=self.EPOCHS, batch_size=self.BATCH,
            out_width=layer.w.shape[0],
            make_step=lambda buffer: ModelStep(layer, (buffer, neg), self.LR, rng=rng),
            encode=lambda batch: layer.hidden(batch[0]),
            rng=rng,
        )

    def _pipeline(self, pos, neg):
        layers = [GoodnessLayer(12, 9, seed=1), GoodnessLayer(9, 6, seed=2)]
        neg_hidden = np.random.default_rng(5).normal(0.0, 1.0, (pos.shape[0], 9))
        plans = [
            self._plan(0, layers[0], neg, seed=7),
            self._plan(1, layers[1], neg_hidden, seed=8),
        ]
        metrics = PipelinedPretrainer(plans, sync="synchronized").run(pos)
        return layers, metrics

    def test_synchronized_runs_bit_identical(self):
        pos, neg = _data(m=40)
        layers_a, metrics_a = self._pipeline(pos, neg)
        layers_b, metrics_b = self._pipeline(pos, neg)
        assert metrics_a == metrics_b
        for a, b in zip(layers_a, layers_b):
            for pa, pb in zip(a.parameters(), b.parameters()):
                assert np.array_equal(pa, pb)
        assert not np.array_equal(layers_a[1].w, GoodnessLayer(9, 6, seed=2).w)

    def test_one_stage_equals_train_loop(self):
        pos, neg = _data(m=40)
        staged = GoodnessLayer(12, 9, seed=1)
        (metrics,) = PipelinedPretrainer([self._plan(0, staged, neg, seed=7)]).run(pos)
        plain = GoodnessLayer(12, 9, seed=1)
        rng = np.random.default_rng(7)
        losses = TrainLoop().run_epochs(
            ModelStep(plain, (pos, neg), self.LR, rng=rng),
            epochs=self.EPOCHS, batch_size=self.BATCH, rng=rng,
        )
        assert metrics == losses
        for a, b in zip(staged.parameters(), plain.parameters()):
            assert np.array_equal(a, b)
