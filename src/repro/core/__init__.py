"""The paper's primary contribution: parallel unsupervised pre-training.

This package couples the functional networks of :mod:`repro.nn` with the
simulated machines of :mod:`repro.phi` under the software backends of
:mod:`repro.runtime`:

* :mod:`repro.core.oplist` — each SAE/RBM gradient step as a kernel
  stream / dependency graph (what actually runs on the machine);
* :mod:`repro.core.ae_trainer`, :mod:`repro.core.rbm_trainer` — the
  chunked mini-batch trainers of the paper's Algorithm 1;
* :mod:`repro.core.pipeline` — double-buffered offload orchestration
  (Fig. 5) plus the future-work host+coprocessor split;
* :mod:`repro.core.pretrain` — the greedy deep pre-training driver
  (Fig. 1; Table I's four-layer workload);
* :mod:`repro.core.config` / :mod:`repro.core.results` — run
  configuration and result records.
"""

from repro.core.config import TrainingConfig, OptimizationLevel
from repro.core.results import TrainingRunResult, SpeedupReport
from repro.core.oplist import (
    autoencoder_step_levels,
    rbm_step_levels,
    autoencoder_step_kernels,
    rbm_step_kernels,
    mlp_step_levels,
)
from repro.core.ae_trainer import SparseAutoencoderTrainer
from repro.core.rbm_trainer import RBMTrainer
from repro.core.finetune_trainer import FinetuneTrainer
from repro.core.pipeline import ChunkedTrainingPipeline, HeterogeneousSplit
from repro.core.pretrain import DeepPretrainer, LayerResult, PretrainResult

__all__ = [
    "TrainingConfig",
    "OptimizationLevel",
    "TrainingRunResult",
    "SpeedupReport",
    "autoencoder_step_levels",
    "rbm_step_levels",
    "autoencoder_step_kernels",
    "rbm_step_kernels",
    "SparseAutoencoderTrainer",
    "RBMTrainer",
    "FinetuneTrainer",
    "mlp_step_levels",
    "ChunkedTrainingPipeline",
    "HeterogeneousSplit",
    "DeepPretrainer",
    "LayerResult",
    "PretrainResult",
]
