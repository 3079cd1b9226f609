"""Simulated + functional Sparse Autoencoder trainer (paper Algorithm 1).

Two entry points:

* :meth:`SparseAutoencoderTrainer.simulate` — timing only, at the
  configured (paper-scale) dimensions.  This is what regenerates the
  figures: no arrays are materialised, the machine model is charged the
  exact kernel stream per update.
* :meth:`SparseAutoencoderTrainer.fit` — functional training of a real
  :class:`repro.nn.SparseAutoencoder` on a real dataset *while* charging
  simulated time, so correctness and timing come from the same run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core._simbase import SimulatedTrainerBase, _F64
from repro.core.config import TrainingConfig
from repro.core.oplist import autoencoder_step_levels
from repro.core.results import TrainingRunResult
from repro.errors import ShapeError
from repro.nn.autoencoder import SparseAutoencoder
from repro.nn.cost import SparseAutoencoderCost
from repro.utils.rng import as_generator


class SparseAutoencoderTrainer(SimulatedTrainerBase):
    """Chunked mini-batch trainer for the sparse autoencoder."""

    model_kind = "autoencoder"

    def __init__(self, config: TrainingConfig, cost: Optional[SparseAutoencoderCost] = None):
        super().__init__(config)
        self.cost = cost if cost is not None else SparseAutoencoderCost(
            sparsity_weight=0.1 if config.sparsity else 0.0
        )

    # ------------------------------------------------------------------
    # timing side
    # ------------------------------------------------------------------
    def step_levels(self, batch_size: int):
        cfg = self.config
        return autoencoder_step_levels(
            batch_size, cfg.n_visible, cfg.n_hidden, sparsity=cfg.sparsity
        )

    def parameter_bytes(self) -> int:
        v, h = self.config.n_visible, self.config.n_hidden
        # W1, W2 and their gradients; biases are noise next to them.
        return 4 * v * h * _F64 + 2 * (v + h) * _F64

    def workspace_bytes(self, batch_size: int) -> int:
        v, h = self.config.n_visible, self.config.n_hidden
        # hidden, reconstruction, delta3, delta2 (+ the back-projection).
        return batch_size * (2 * h + 2 * v + h) * _F64

    # ------------------------------------------------------------------
    # functional side
    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        model: Optional[SparseAutoencoder] = None,
        callbacks=None,
    ) -> TrainingRunResult:
        """Train a real autoencoder on ``x`` while charging simulated time.

        ``x`` must match ``config.n_visible``; its row count overrides
        ``config.n_examples`` for the functional loop (the simulated
        transfer model still uses the configured dimensions so that
        small functional datasets can stand in for paper-scale runs).
        ``callbacks`` (see :mod:`repro.core.callbacks`) receive per-update
        and per-epoch events and may stop the run early.
        Returns a result carrying both the loss curve and the
        simulated-clock total for the *functional* number of updates.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.n_visible:
            raise ShapeError(
                f"x must be (n, {self.config.n_visible}), got {x.shape}"
            )
        cfg = self.config
        if model is None:
            model = SparseAutoencoder(
                cfg.n_visible, cfg.n_hidden, cost=self.cost, seed=cfg.seed
            )
        self._ensure_device_allocations()
        result = self._fit(
            model, x, as_generator(cfg.seed), callbacks,
            metric=lambda _losses: model.reconstruction_error(x),
        )
        self.model = model
        return result
