"""Integration tests: cross-cutting user workflows.

Each test is a realistic end-to-end journey through several subsystems:
data export/import, model persistence mid-pipeline, callbacks steering a
training budget, and the energy/autotune extensions feeding off trainer
results.
"""

import numpy as np
import pytest

from repro.core.ae_trainer import SparseAutoencoderTrainer
from repro.core.config import TrainingConfig
from repro.data.datasets import train_test_split
from repro.data.mnist_io import export_synthetic_digits, load_image_label_pair
from repro.nn.finetune import finetune
from repro.nn.mlp import DeepNetwork
from repro.phi.energy import energy_for_run
from repro.phi.spec import XEON_PHI_5110P
from repro.runtime.autotune import autotune_training_config
from repro.train import EarlyStopping, History
from repro.utils.serialization import load_model, save_model


class TestIdxExportTrainWorkflow:
    def test_export_reload_train(self, tmp_path):
        """Synthetic corpus → IDX files on disk → reload → train → learn."""
        img_path, lbl_path = export_synthetic_digits(tmp_path, 300, size=8, seed=0)
        x, y = load_image_label_pair(img_path, lbl_path)
        x_tr, y_tr, x_te, y_te = train_test_split(x, y, test_fraction=0.2, seed=0)
        net = DeepNetwork([64, 32, 10], seed=0)
        finetune(net, x_tr, y_tr, epochs=25, learning_rate=0.8, seed=0)
        assert net.accuracy(x_te, y_te) > 0.4  # chance = 0.1


class TestPersistenceWorkflow:
    def test_train_save_resume(self, tmp_path, digits_25):
        """Train half the budget, persist, reload, finish — the final
        model must keep improving from where it left off."""
        cfg = TrainingConfig(
            n_visible=25, n_hidden=12, n_examples=64, batch_size=16, epochs=20,
            machine=XEON_PHI_5110P, learning_rate=0.5, seed=0,
        )
        first = SparseAutoencoderTrainer(cfg)
        mid = first.fit(digits_25)
        save_model(first.model, tmp_path / "ckpt.npz")

        resumed_model = load_model(tmp_path / "ckpt.npz")
        err_at_checkpoint = resumed_model.reconstruction_error(digits_25)
        second = SparseAutoencoderTrainer(cfg)
        final = second.fit(digits_25, model=resumed_model)
        assert second.model is resumed_model
        assert second.model.reconstruction_error(digits_25) < err_at_checkpoint
        assert final.losses[0] < mid.losses[0]  # resumed, not restarted


class TestBudgetedTrainingWorkflow:
    def test_early_stopping_saves_simulated_budget(self, digits_25):
        """The practical question for the paper's 200-iterations-per-layer
        schedule: how much simulated machine time does a plateau detector
        save?  (It must stop earlier and end at a comparable error.)"""
        cfg = TrainingConfig(
            n_visible=25, n_hidden=12, n_examples=64, batch_size=16, epochs=120,
            machine=XEON_PHI_5110P, learning_rate=0.5, seed=0,
        )
        full = SparseAutoencoderTrainer(cfg).fit(digits_25)

        stopper = EarlyStopping(patience=3, min_delta=5e-3)
        history = History()
        stopped = SparseAutoencoderTrainer(cfg).fit(
            digits_25, callbacks=[stopper, history]
        )
        assert stopped.n_updates < full.n_updates
        assert stopped.simulated_seconds < full.simulated_seconds
        # The detector trades a bounded quality loss for a ~4x budget cut.
        assert stopped.reconstruction_errors[-1] < 1.5 * full.reconstruction_errors[-1]
        assert stopper.stopped_epoch is not None
        assert len(history.epochs) == stopper.stopped_epoch + 1


class TestTuneThenMeasureWorkflow:
    def test_autotune_feeds_energy_accounting(self):
        """Tune the thread count, rerun at the optimum, report energy —
        the throughput-per-watt loop a systems paper reviewer would ask
        for."""
        cfg = TrainingConfig(
            n_visible=1024, n_hidden=2048, n_examples=20_000, batch_size=500,
            machine=XEON_PHI_5110P,
        )
        tuning = autotune_training_config(cfg, SparseAutoencoderTrainer)
        tuned_cfg = cfg.with_backend(
            cfg.effective_backend.with_threads(tuning.best_threads)
        )
        tuned = SparseAutoencoderTrainer(tuned_cfg).simulate()
        default = SparseAutoencoderTrainer(cfg).simulate()
        assert tuned.simulated_seconds <= default.simulated_seconds + 1e-12
        tuned_energy = energy_for_run(tuned)
        default_energy = energy_for_run(default)
        assert tuned_energy.energy_joules <= default_energy.energy_joules * 1.05
