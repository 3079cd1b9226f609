"""The unified training runtime (paper Fig. 5's loop, once).

``repro.train`` owns the single epoch/batch training loop shared by
every stack in the repository:

* :mod:`repro.train.loop` — :class:`TrainLoop` (iteration, shuffling,
  chunk staging, checkpoint hooks, the replayable :class:`EventLog`),
  the :class:`TrainStep` protocol, and :class:`ModelStep`, the one step
  every model trains through (serial runs are its W=1 engine);
* :mod:`repro.train.events` — the structured event bus
  (:class:`UpdateEvent` / :class:`EpochEvent` / :class:`LayerEvent`
  with per-phase :class:`PhaseTimings`);
* :mod:`repro.train.callbacks` — :class:`History`,
  :class:`EarlyStopping`, :class:`ProgressLogger`, the composite
  :class:`CallbackList`;
* :mod:`repro.train.batches` — the one copy of mini-batch shuffling;
* :mod:`repro.train.pipeline` — :class:`PipelinedPretrainer`: one
  :class:`TrainLoop` per layer running concurrently, connected by
  bounded :class:`ActivationQueue` hand-offs (Santara et al.'s
  synchronized layer-wise pre-training).

Layering: this package sits between the model substrate
(:mod:`repro.nn`, which defines the concrete steps) and the execution
runtime (:mod:`repro.runtime`).  It must never import :mod:`repro.nn`,
:mod:`repro.core`, :mod:`repro.phi`, or :mod:`repro.serve` — enforced
by ``tools/check_layering.py`` in CI.
"""

from repro.train.batches import (
    batch_bounds,
    epoch_order,
    iter_batch_indices,
    iter_minibatches,
)
from repro.train.callbacks import (
    CallbackList,
    EarlyStopping,
    History,
    ProgressLogger,
    TrainingCallback,
    as_callback_list,
)
from repro.train.events import EpochEvent, LayerEvent, PhaseTimings, UpdateEvent
from repro.train.loop import (
    EVENT_LOG_KEY,
    ChunkSchedule,
    EventLog,
    ModelStep,
    TrainLoop,
    TrainStep,
)
from repro.train.pipeline import (
    ActivationQueue,
    PipelineError,
    PipelinedPretrainer,
    StagePlan,
)
from repro.train.shardstep import ShardedTrainStep

__all__ = [
    "batch_bounds",
    "epoch_order",
    "iter_batch_indices",
    "iter_minibatches",
    "CallbackList",
    "EarlyStopping",
    "History",
    "ProgressLogger",
    "TrainingCallback",
    "as_callback_list",
    "EpochEvent",
    "LayerEvent",
    "PhaseTimings",
    "UpdateEvent",
    "EVENT_LOG_KEY",
    "ChunkSchedule",
    "EventLog",
    "ModelStep",
    "TrainLoop",
    "TrainStep",
    "ActivationQueue",
    "PipelineError",
    "PipelinedPretrainer",
    "StagePlan",
    "ShardedTrainStep",
]
