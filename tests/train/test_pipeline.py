"""Pipelined synchronized layer-wise pre-training (Santara et al.).

The contract under test, per ``docs/pipeline.md``:

* two pipelined runs at the same seed are bit-identical;
* stage 0 is bit-identical to greedy block 0 (same generator layout);
* upper stages legitimately differ from greedy — they train on the
  *evolving* representation, not the converged one;
* configuration errors are typed and early (uniform epochs, borrowed
  engines, chunked staging, a snapshot of another sync schedule);
* a queue capacity of 1 only stalls the producer — it never deadlocks;
* an early-stopping request winds the whole pipeline down cleanly.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from repro.runtime.checkpoint import CheckpointError, CheckpointStore, atomic_save_npz
from repro.train import EarlyStopping, History
from repro.train.pipeline import (
    ActivationQueue,
    PipelineError,
    PipelinedPretrainer,
    StagePlan,
)

N_VISIBLE = 20


@pytest.fixture
def x():
    rng = np.random.default_rng(0)
    return rng.random((48, N_VISIBLE))


def _specs(epochs=2):
    return [
        LayerSpec(10, epochs=epochs, batch_size=16),
        LayerSpec(6, epochs=epochs, batch_size=16),
    ]


def _params(stack):
    return [
        {a: np.array(getattr(b, a)) for a in ("w1", "b1", "w2", "b2")}
        for b in stack.blocks
    ]


def _sae(x, seed=7, **kwargs):
    return StackedAutoencoder(N_VISIBLE, _specs(), seed=seed).pretrain(x, **kwargs)


class TestDeterminism:
    def test_two_pipelined_runs_are_bit_identical(self, x):
        a = _params(_sae(x, strategy="pipelined"))
        b = _params(_sae(x, strategy="pipelined"))
        for pa, pb in zip(a, b):
            for key in pa:
                assert np.array_equal(pa[key], pb[key])

    def test_stage0_matches_greedy_block0(self, x):
        greedy = _params(_sae(x))
        piped = _params(_sae(x, strategy="pipelined"))
        for key in greedy[0]:
            assert np.array_equal(greedy[0][key], piped[0][key])

    def test_upper_stage_trains_on_the_evolving_representation(self, x):
        """Block 1 must differ from greedy: it consumed block 0's output
        while block 0 was still learning."""
        greedy = _params(_sae(x))
        piped = _params(_sae(x, strategy="pipelined"))
        assert not np.array_equal(greedy[1]["w1"], piped[1]["w1"])

    def test_layer_errors_one_list_per_stage(self, x):
        stack = _sae(x, strategy="pipelined")
        assert len(stack.layer_errors) == 2
        assert all(len(errs) == 2 for errs in stack.layer_errors)

    def test_thread_engine_matches_itself(self, x):
        a = _params(_sae(x, strategy="pipelined", engine_mode="thread", n_workers=2))
        b = _params(_sae(x, strategy="pipelined", engine_mode="thread", n_workers=2))
        for pa, pb in zip(a, b):
            for key in pa:
                assert np.array_equal(pa[key], pb[key])

    def test_dbn_pipelined_is_deterministic(self, x):
        runs = []
        for _ in range(2):
            dbn = DeepBeliefNetwork(N_VISIBLE, _specs(), seed=3).pretrain(
                x, strategy="pipelined"
            )
            runs.append([np.array(b.w) for b in dbn.blocks])
        for wa, wb in zip(*runs):
            assert np.array_equal(wa, wb)


class TestBackpressure:
    def test_single_slot_queue_completes(self, x):
        """Capacity 1 forces a full stall per item; the blocking drain
        keeps popping, so the run completes instead of deadlocking."""
        stack = _sae(x, strategy="pipelined", queue_slots=1)
        assert stack.is_trained

    def test_single_slot_matches_default_capacity(self, x):
        """Queue capacity is pure flow control: it must not change what
        any stage computes."""
        tight = _params(_sae(x, strategy="pipelined", queue_slots=1))
        roomy = _params(_sae(x, strategy="pipelined"))
        for pa, pb in zip(tight, roomy):
            for key in pa:
                assert np.array_equal(pa[key], pb[key])


class TestValidation:
    def test_heterogeneous_epochs_rejected(self, x):
        specs = [
            LayerSpec(10, epochs=3, batch_size=16),
            LayerSpec(6, epochs=2, batch_size=16),
        ]
        stack = StackedAutoencoder(N_VISIBLE, specs, seed=7)
        with pytest.raises(ConfigurationError, match="epochs"):
            stack.pretrain(x, strategy="pipelined")

    def test_borrowed_engine_rejected(self, x):
        from repro.runtime.executor import ParallelGradientEngine

        stack = StackedAutoencoder(N_VISIBLE, _specs(), seed=7)
        with ParallelGradientEngine(2, blas_threads=None, seed=0) as eng:
            with pytest.raises(ConfigurationError, match="engine_mode"):
                stack.pretrain(x, strategy="pipelined", engine=eng)

    def test_chunks_rejected(self, x):
        from repro.train import ChunkSchedule

        stack = StackedAutoencoder(N_VISIBLE, _specs(), seed=7)
        with pytest.raises(ConfigurationError, match="chunks"):
            stack.pretrain(
                x, strategy="pipelined", chunks=ChunkSchedule(chunk_examples=16)
            )

    def test_unknown_strategy_rejected(self, x):
        stack = StackedAutoencoder(N_VISIBLE, _specs(), seed=7)
        with pytest.raises(ConfigurationError, match="strategy"):
            stack.pretrain(x, strategy="fastest")

    def test_pipelined_kwargs_rejected_under_greedy(self, x):
        stack = StackedAutoencoder(N_VISIBLE, _specs(), seed=7)
        with pytest.raises(ConfigurationError, match="pipelined"):
            stack.pretrain(x, queue_slots=2)

    def test_checkpoint_with_free_running_rejected(self, x, tmp_path):
        """The pipeline runs only the synchronized schedule: a snapshot
        whose header records another one is refused on resume."""
        store = CheckpointStore(tmp_path / "store", keep=1)
        _sae(x, strategy="pipelined", checkpoint=store)
        header, arrays = store.load_latest()
        assert header["strategy"]["sync"] == "synchronized"
        header["strategy"]["sync"] = "free"
        forged = atomic_save_npz(tmp_path / "free.npz", header, arrays)
        stack = StackedAutoencoder(N_VISIBLE, _specs(), seed=7)
        with pytest.raises(CheckpointError, match="sync='free'"):
            stack.pretrain(x, strategy="pipelined", resume_from=forged)

    def test_pretrainer_runs_only_once(self, x):
        from repro.train import TrainStep

        class NoopStep(TrainStep):
            def __init__(self, buf):
                self.buf = buf

            def n_examples(self):
                return int(self.buf.shape[0])

            def load(self, idx):
                return self.buf[idx]

            def compute(self, batch):
                return 0.0, None

            def apply(self, state):
                pass

        plan = StagePlan(
            index=0, epochs=1, batch_size=16, out_width=4,
            make_step=NoopStep, encode=lambda r: r,
            rng=np.random.default_rng(0),
        )
        pt = PipelinedPretrainer([plan])
        pt.run(x)
        with pytest.raises(ConfigurationError, match="once"):
            pt.run(x)


class TestEvents:
    def test_shared_bus_sees_every_stage(self, x):
        history = History()
        _sae(x, strategy="pipelined", callbacks=history)
        layers = {e.layer for e in history.layers}
        assert layers == {0, 1}
        # Two stages x two epochs on the shared bus.
        assert len(history.epochs) == 4

    def test_early_stopping_winds_down_without_hanging(self, x):
        """A plateau stop on the shared bus ends the whole pipeline at
        the next epoch boundary — never a hang, no exception."""
        stop = EarlyStopping(patience=1, min_delta=1e9)  # stop ASAP
        stack = StackedAutoencoder(
            N_VISIBLE, _specs(epochs=4), seed=7
        ).pretrain(x, strategy="pipelined", callbacks=stop)
        # At least one stage got cut short.
        assert any(len(errs) < 4 for errs in stack.layer_errors)


class TestActivationQueueUnit:
    def test_pop_after_producer_failure_is_typed(self):
        q = ActivationQueue(0, n_slots=2)
        q.fail(ValueError("stage exploded"))
        with pytest.raises(PipelineError, match="upstream"):
            q.pop()

    def test_push_to_closed_queue_is_typed(self):
        q = ActivationQueue(0, n_slots=1)
        q.close()
        with pytest.raises(PipelineError, match="downstream"):
            q.push_done()

    def test_cursors_track_handoffs(self):
        q = ActivationQueue(0, n_slots=4)
        q.push_rows(0, np.arange(2), np.zeros((2, 3)))
        q.push_epoch_end(0)
        assert (q.pushed, q.popped) == (2, 0)
        q.pop()
        q.pop()
        assert (q.pushed, q.popped) == (2, 2)
