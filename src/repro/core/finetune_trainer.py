"""Simulated + functional supervised fine-tuning trainer.

Completes the pipeline the paper's Fig. 1 starts: after the greedy
unsupervised pre-training (timed by :class:`~repro.core.pretrain.DeepPretrainer`),
the whole deep network trains supervised — this trainer times that phase
on the same simulated machines and can run it functionally on a real
:class:`~repro.nn.mlp.DeepNetwork`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core._simbase import SimulatedTrainerBase, _F64
from repro.core.config import TrainingConfig
from repro.core.oplist import mlp_step_levels
from repro.core.results import TrainingRunResult
from repro.errors import ConfigurationError, ShapeError
from repro.nn.mlp import DeepNetwork, one_hot
from repro.utils.rng import as_generator


class FinetuneTrainer(SimulatedTrainerBase):
    """Chunked mini-batch supervised trainer for a deep network.

    Parameters
    ----------
    config:
        ``n_visible`` must equal the network input width; ``n_hidden``
        is ignored in favour of ``layer_sizes``.
    layer_sizes:
        Full ``[n_in, h1, …, n_out]`` ladder of the network being tuned.
    """

    model_kind = "deep_network"

    def __init__(self, config: TrainingConfig, layer_sizes: Sequence[int]):
        super().__init__(config)
        self.layer_sizes = [int(s) for s in layer_sizes]
        if len(self.layer_sizes) < 2:
            raise ConfigurationError("layer_sizes needs at least [n_in, n_out]")
        if self.layer_sizes[0] != config.n_visible:
            raise ConfigurationError(
                f"layer_sizes[0] ({self.layer_sizes[0]}) must equal "
                f"config.n_visible ({config.n_visible})"
            )

    # ------------------------------------------------------------------
    # timing side
    # ------------------------------------------------------------------
    def step_levels(self, batch_size: int):
        return mlp_step_levels(batch_size, self.layer_sizes)

    def parameter_bytes(self) -> int:
        weights = sum(
            a * b for a, b in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        )
        biases = sum(self.layer_sizes[1:])
        return 2 * (weights + biases) * _F64  # params + grads

    def workspace_bytes(self, batch_size: int) -> int:
        # Activations + deltas at every layer.
        return 2 * batch_size * sum(self.layer_sizes) * _F64

    # ------------------------------------------------------------------
    # functional side
    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        network: Optional[DeepNetwork] = None,
        callbacks=None,
    ) -> TrainingRunResult:
        """Supervised training with the simulated clock charged per update.

        ``callbacks`` may monitor/stop the run; the per-epoch metric is
        training accuracy for softmax heads, mean epoch loss otherwise.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.n_visible:
            raise ShapeError(f"x must be (n, {self.config.n_visible}), got {x.shape}")
        cfg = self.config
        if network is None:
            network = DeepNetwork(self.layer_sizes, seed=cfg.seed)
        if network.layer_sizes != self.layer_sizes:
            raise ConfigurationError(
                f"network shape {network.layer_sizes} != trainer shape "
                f"{self.layer_sizes}"
            )
        self._ensure_device_allocations()
        targets = (
            one_hot(np.asarray(labels), network.n_out)
            if network.head == "softmax"
            else np.asarray(labels, dtype=np.float64)
        )
        # ``reconstruction_errors`` carries per-epoch accuracy for softmax
        # heads and stays empty otherwise (historical contract).
        softmax = network.head == "softmax"
        result = self._fit(
            network, (x, targets), as_generator(cfg.seed), callbacks,
            metric=(lambda _losses: network.accuracy(x, labels)) if softmax else None,
            keep_metrics=softmax,
        )
        self.network = network
        return result
