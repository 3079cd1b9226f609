"""Simulated + functional RBM trainer (paper Algorithm 1 with CD-1).

Mirrors :class:`repro.core.ae_trainer.SparseAutoencoderTrainer`: the
timing side charges the Fig. 6 kernel levels per update; the functional
side runs real contrastive divergence on a real
:class:`repro.nn.rbm.RBM`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core._simbase import SimulatedTrainerBase, _F64
from repro.core.config import TrainingConfig
from repro.core.oplist import rbm_step_levels
from repro.core.results import TrainingRunResult
from repro.errors import ShapeError
from repro.nn.rbm import RBM
from repro.utils.rng import as_generator


class RBMTrainer(SimulatedTrainerBase):
    """Chunked mini-batch CD-1 trainer."""

    model_kind = "rbm"

    def __init__(self, config: TrainingConfig, cd_k: int = 1):
        super().__init__(config)
        if cd_k < 1:
            raise ShapeError(f"cd_k must be >= 1, got {cd_k}")
        self.cd_k = int(cd_k)

    # ------------------------------------------------------------------
    # timing side
    # ------------------------------------------------------------------
    def step_levels(self, batch_size: int):
        cfg = self.config
        levels = rbm_step_levels(batch_size, cfg.n_visible, cfg.n_hidden)
        if self.cd_k > 1:
            # Each extra Gibbs step repeats the V2→H2 middle section.
            middle = rbm_step_levels(batch_size, cfg.n_visible, cfg.n_hidden)[2:6]
            for _ in range(self.cd_k - 1):
                levels = levels[:-2] + middle + levels[-2:]
        return levels

    def parameter_bytes(self) -> int:
        v, h = self.config.n_visible, self.config.n_hidden
        # W + ΔW resident, plus b, c and their gradients.
        return 2 * v * h * _F64 + 2 * (v + h) * _F64

    def workspace_bytes(self, batch_size: int) -> int:
        v, h = self.config.n_visible, self.config.n_hidden
        # h0 probs+samples, v1, h1 (+ random draws buffer).
        return batch_size * (3 * h + 2 * v) * _F64

    # ------------------------------------------------------------------
    # functional side
    # ------------------------------------------------------------------
    def fit(
        self, x: np.ndarray, model: Optional[RBM] = None, callbacks=None
    ) -> TrainingRunResult:
        """Train a real RBM with CD-k on ``x`` while charging simulated time.

        ``x`` should contain values in [0, 1] (Bernoulli visibles).
        ``callbacks`` may monitor and stop the run (see
        :mod:`repro.train.callbacks`).  Returns per-update reconstruction
        errors in ``losses`` and per-epoch mean errors in
        ``reconstruction_errors``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.n_visible:
            raise ShapeError(f"x must be (n, {self.config.n_visible}), got {x.shape}")
        cfg = self.config
        if model is None:
            model = RBM(cfg.n_visible, cfg.n_hidden, seed=cfg.seed)
        self._ensure_device_allocations()
        # A serial step: its CD chains draw from the shuffle generator.
        result = self._fit(model, x, as_generator(cfg.seed), callbacks, k=self.cd_k)
        self.model = model
        return result
