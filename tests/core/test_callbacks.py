"""Tests for the repro.train callbacks and their wiring into the repro.core trainers."""

import numpy as np
import pytest

from repro.core.ae_trainer import SparseAutoencoderTrainer
from repro.core.config import TrainingConfig
from repro.core.finetune_trainer import FinetuneTrainer
from repro.core.rbm_trainer import RBMTrainer
from repro.data.synth_digits import digit_dataset
from repro.errors import ConfigurationError
from repro.phi.spec import XEON_PHI_5110P
from repro.train import (
    CallbackList,
    EarlyStopping,
    EpochEvent,
    History,
    ProgressLogger,
    TrainingCallback,
    UpdateEvent,
    as_callback_list,
)


def config(**overrides):
    base = dict(
        n_visible=25, n_hidden=9, n_examples=64, batch_size=16, epochs=10,
        machine=XEON_PHI_5110P, learning_rate=0.5,
    )
    base.update(overrides)
    return TrainingConfig(**base)


class TestHistory:
    def test_records_updates_and_epochs(self, digits_25):
        history = History()
        SparseAutoencoderTrainer(config(epochs=3)).fit(digits_25, callbacks=history)
        assert len(history.updates) == 12  # 4 batches x 3 epochs
        assert len(history.epochs) == 3
        assert history.losses == [e.loss for e in history.updates]
        assert all(e.simulated_seconds > 0 for e in history.updates)

    def test_steps_monotone(self, digits_25):
        history = History()
        SparseAutoencoderTrainer(config(epochs=2)).fit(digits_25, callbacks=history)
        steps = [e.step for e in history.updates]
        assert steps == sorted(steps)
        assert steps[0] == 1


class TestEarlyStopping:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EarlyStopping(patience=0)
        with pytest.raises(ConfigurationError):
            EarlyStopping(min_delta=-1)
        with pytest.raises(ConfigurationError):
            EarlyStopping(mode="median")

    def test_stops_on_plateau(self):
        stopper = EarlyStopping(patience=2, min_delta=0.0)
        for epoch, metric in enumerate([1.0, 0.9, 0.9, 0.9]):
            stopper.on_epoch(EpochEvent(epoch, metric, 0.0))
        assert stopper.stop_requested
        assert stopper.stopped_epoch == 3

    def test_improvement_resets_patience(self):
        stopper = EarlyStopping(patience=2)
        for epoch, metric in enumerate([1.0, 1.0, 0.5, 0.5]):
            stopper.on_epoch(EpochEvent(epoch, metric, 0.0))
        assert not stopper.stop_requested

    def test_max_mode_for_accuracy(self):
        stopper = EarlyStopping(patience=1, mode="max")
        stopper.on_epoch(EpochEvent(0, 0.8, 0.0))
        stopper.on_epoch(EpochEvent(1, 0.7, 0.0))
        assert stopper.stop_requested

    def test_min_delta_requires_real_improvement(self):
        stopper = EarlyStopping(patience=1, min_delta=0.1)
        stopper.on_epoch(EpochEvent(0, 1.0, 0.0))
        stopper.on_epoch(EpochEvent(1, 0.95, 0.0))  # too small a gain
        assert stopper.stop_requested

    def test_early_stop_shortens_training(self, digits_25):
        """A converging run with a plateau must stop before its budget."""
        stopper = EarlyStopping(patience=1, min_delta=1.0)  # brutal bar
        result = SparseAutoencoderTrainer(config(epochs=50)).fit(
            digits_25, callbacks=stopper
        )
        assert result.n_updates < 50 * 4

    def test_rbm_trainer_supports_callbacks(self, binary_batch):
        history = History()
        cfg = config(n_visible=12, n_hidden=6, n_examples=40, batch_size=10, epochs=4)
        RBMTrainer(cfg).fit(binary_batch, callbacks=history)
        assert len(history.epochs) == 4

    def test_finetune_trainer_supports_callbacks(self):
        x, y = digit_dataset(128, size=5, seed=0)
        history = History()
        cfg = config(epochs=3, n_examples=128, batch_size=32)
        FinetuneTrainer(cfg, layer_sizes=[25, 12, 10]).fit(x, y, callbacks=history)
        assert len(history.epochs) == 3
        # Classifier metric is accuracy.
        assert all(0.0 <= e.metric <= 1.0 for e in history.epochs)


class TestCallbackList:
    def test_fans_out(self):
        a, b = History(), History()
        composite = CallbackList([a, b])
        composite.on_update(UpdateEvent(1, 0, 0.5, 0.1))
        assert len(a.updates) == len(b.updates) == 1

    def test_any_member_stops(self):
        class Stopper(TrainingCallback):
            stop_requested = True

        assert CallbackList([History(), Stopper()]).stop_requested

    def test_as_callback_list_coercions(self):
        assert isinstance(as_callback_list(None), CallbackList)
        single = History()
        assert as_callback_list(single).callbacks == [single]
        pair = as_callback_list([History(), History()])
        assert len(pair.callbacks) == 2
        assert as_callback_list(pair) is pair


class TestProgressLogger:
    def test_logs_every_nth(self, caplog, digits_25):
        import logging

        logger = ProgressLogger(every=4)
        with caplog.at_level(logging.INFO, logger="repro.train"):
            SparseAutoencoderTrainer(config(epochs=2)).fit(digits_25, callbacks=logger)
        update_logs = [r for r in caplog.records if "update" in r.message]
        assert len(update_logs) == 2  # steps 4 and 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProgressLogger(every=0)
