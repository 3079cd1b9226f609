"""Unit tests for the unified TrainLoop runtime and its event log."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.autoencoder import SparseAutoencoder
from repro.runtime.executor import ParallelGradientEngine
from repro.train import (
    CallbackList,
    ChunkSchedule,
    EarlyStopping,
    EpochEvent,
    EventLog,
    History,
    LayerEvent,
    ModelStep,
    TrainLoop,
    TrainStep,
    UpdateEvent,
)


class _MeanStep(TrainStep):
    """Toy model: tracks a running mean; loss = batch mean distance."""

    kind = "toy"

    def __init__(self, x, sim_per_row=0.0):
        self.x = np.asarray(x, dtype=np.float64)
        self.center = 0.0
        self.sim_per_row = sim_per_row
        self.applied = []

    def n_examples(self):
        return int(self.x.shape[0])

    def load(self, idx):
        return self.x[idx]

    def compute(self, batch):
        grad = float(np.mean(batch) - self.center)
        return abs(grad), grad

    def apply(self, grad):
        self.center += 0.5 * grad
        self.applied.append(grad)

    def charge(self, n_rows):
        return self.sim_per_row * n_rows


def _data(n=24, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 1)) + 3.0


class TestRunEpochs:
    def test_event_stream_shape(self):
        history = History()
        loop = TrainLoop(callbacks=[history])
        step = _MeanStep(_data())
        metrics = loop.run_epochs(
            step, epochs=3, batch_size=8, rng=np.random.default_rng(1)
        )
        assert len(metrics) == 3
        assert len(history.epochs) == 3
        assert len(history.updates) == 3 * 3  # 24/8 batches per epoch
        # Steps are 1-based and monotone; epochs 0-based.
        assert [e.step for e in history.updates] == list(range(1, 10))
        assert [e.epoch for e in history.epochs] == [0, 1, 2]
        assert loop.step_count == 9

    def test_update_events_carry_wall_timings(self):
        history = History()
        loop = TrainLoop(callbacks=[history])
        loop.run_epochs(
            _MeanStep(_data()), epochs=1, batch_size=8,
            rng=np.random.default_rng(1),
        )
        assert all(e.timings is not None for e in history.updates)
        assert all(e.timings.total_s >= 0.0 for e in history.updates)

    @staticmethod
    def _sae_updates(engine):
        rng = np.random.default_rng(1)
        step = ModelStep(SparseAutoencoder(12, 6, seed=0),
                         np.random.default_rng(0).random((64, 12)), 0.1,
                         engine=engine, rng=rng)
        history = History()
        TrainLoop(callbacks=[history]).run_epochs(step, epochs=1, batch_size=32, rng=rng)
        return history.updates

    def test_two_shard_engine_times_its_reduce(self):
        with ParallelGradientEngine(2, blas_threads=None, seed=0) as engine:
            updates = self._sae_updates(engine)
        assert len(updates) == 2
        assert all(e.timings.reduce_s > 0.0 for e in updates)
        assert all(e.timings.compute_s > 0.0 for e in updates)

    def test_serial_run_has_no_reduce(self):
        updates = self._sae_updates(None)
        assert len(updates) == 2
        assert all(e.timings.reduce_s == 0.0 for e in updates)

    def test_simulated_clock_accumulates_charges(self):
        history = History()
        loop = TrainLoop(callbacks=[history])
        step = _MeanStep(_data(), sim_per_row=0.25)
        loop.run_epochs(
            step, epochs=2, batch_size=8, rng=np.random.default_rng(1)
        )
        assert loop.simulated_seconds == pytest.approx(0.25 * 24 * 2)
        assert history.updates[-1].simulated_seconds == pytest.approx(
            loop.simulated_seconds
        )

    def test_metrics_list_is_appended_in_place(self):
        carried = [1.0]  # resuming caller passes prior epochs' metrics
        loop = TrainLoop()
        out = loop.run_epochs(
            _MeanStep(_data()), epochs=2, batch_size=8,
            rng=np.random.default_rng(1), metrics=carried, start_epoch=1,
        )
        assert out is carried
        assert len(carried) == 2

    def test_epoch_end_hook_sees_epoch_count(self):
        calls = []
        loop = TrainLoop()
        loop.run_epochs(
            _MeanStep(_data()), epochs=3, batch_size=8,
            rng=np.random.default_rng(1),
            epoch_end=lambda done, metrics: calls.append((done, len(metrics))),
        )
        assert calls == [(1, 1), (2, 2), (3, 3)]

    def test_rejects_bad_arguments(self):
        loop = TrainLoop()
        with pytest.raises(ConfigurationError):
            loop.run_epochs(
                _MeanStep(_data()), epochs=0, batch_size=8,
                rng=np.random.default_rng(1),
            )

    def test_callback_list_of_caller_is_not_mutated(self):
        mine = CallbackList([History()])
        loop = TrainLoop(callbacks=mine)
        loop.monitor.callbacks.append(History())  # loop-internal recorder
        assert len(mine.callbacks) == 1


class TestEarlyStopping:
    def test_stops_on_plateau(self):
        stopper = EarlyStopping(patience=1, min_delta=10.0)
        history = History()
        loop = TrainLoop(callbacks=[stopper, history])
        loop.run_epochs(
            _MeanStep(_data()), epochs=50, batch_size=8,
            rng=np.random.default_rng(1),
        )
        assert stopper.stop_requested
        assert len(history.epochs) < 50
        assert stopper.stopped_epoch == history.epochs[-1].epoch

    def test_layer_event_resets_the_plateau_budget(self):
        stopper = EarlyStopping(patience=1, min_delta=10.0)
        loop = TrainLoop(callbacks=[stopper])
        loop.run_epochs(
            _MeanStep(_data()), epochs=50, batch_size=8,
            rng=np.random.default_rng(1),
        )
        assert stopper.stop_requested
        loop.end_layer(0, 1.0)
        assert not stopper.stop_requested
        assert stopper.best is None

    def test_preexisting_stop_prevents_any_update(self):
        stopper = EarlyStopping(patience=1)
        stopper.stop_requested = True
        loop = TrainLoop(callbacks=[stopper])
        step = _MeanStep(_data())
        loop.run_epochs(
            step, epochs=3, batch_size=8, rng=np.random.default_rng(1)
        )
        assert loop.step_count == 0
        assert step.applied == []


class TestChunkedMode:
    def test_chunked_equals_plain_bit_identical(self):
        x = _data(n=48, seed=3)
        plain_step = _MeanStep(x)
        loop = TrainLoop()
        loop.run_epochs(
            plain_step, epochs=2, batch_size=8, rng=np.random.default_rng(7)
        )

        chunk_step = _MeanStep(x)
        loop2 = TrainLoop()
        loop2.run_epochs(
            chunk_step, epochs=2, batch_size=8, rng=np.random.default_rng(7),
            chunks=ChunkSchedule(chunk_examples=16, n_buffers=2),
        )
        assert chunk_step.center == plain_step.center  # bit-identical
        assert chunk_step.applied == plain_step.applied

    def test_chunk_must_align_with_batch(self):
        loop = TrainLoop()
        with pytest.raises(ConfigurationError):
            loop.run_epochs(
                _MeanStep(_data()), epochs=1, batch_size=8,
                rng=np.random.default_rng(1),
                chunks=ChunkSchedule(chunk_examples=12),
            )

    def test_chunk_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            ChunkSchedule(chunk_examples=0)
        with pytest.raises(ConfigurationError):
            ChunkSchedule(chunk_examples=8, n_buffers=0)


class TestEventLog:
    def _run(self):
        history = History()
        loop = TrainLoop(callbacks=[history])
        loop.run_epochs(
            _MeanStep(_data(), sim_per_row=0.1), epochs=2, batch_size=8,
            rng=np.random.default_rng(1),
        )
        loop.end_layer(0, 42.0)
        return loop, history

    def test_round_trip_preserves_compared_payload(self):
        loop, _ = self._run()
        restored = EventLog.from_array(loop.log.to_array())
        assert restored.events == loop.log.events  # timings excluded
        assert restored.last_step() == loop.log.last_step()
        assert restored.last_simulated_seconds() == pytest.approx(
            loop.log.last_simulated_seconds()
        )

    def test_from_array_none_is_legacy_empty(self):
        log = EventLog.from_array(None)
        assert len(log) == 0
        assert log.last_step() == 0

    def test_replay_reconstructs_history(self):
        loop, live = self._run()
        replayed = History()
        fresh = TrainLoop(callbacks=[replayed])
        fresh.resume_from_log(EventLog.from_array(loop.log.to_array()))
        assert replayed.updates == live.updates
        assert replayed.epochs == live.epochs
        assert replayed.layers == live.layers
        assert fresh.step_count == loop.step_count
        assert fresh.simulated_seconds == pytest.approx(loop.simulated_seconds)

    def test_chronological_interleaving_is_preserved(self):
        loop, _ = self._run()
        kinds = [type(e).__name__ for e in loop.log.events]
        restored = [
            type(e).__name__
            for e in EventLog.from_array(loop.log.to_array()).events
        ]
        assert restored == kinds
        assert kinds[-1] == "LayerEvent"
        assert kinds.count("EpochEvent") == 2

    def test_typed_views(self):
        loop, _ = self._run()
        assert all(isinstance(e, UpdateEvent) for e in loop.log.updates)
        assert all(isinstance(e, EpochEvent) for e in loop.log.epochs)
        assert all(isinstance(e, LayerEvent) for e in loop.log.layers)
