"""Structured training events: the vocabulary of the unified loop.

The functional stacks of :mod:`repro.nn` (greedy, pipelined and
sharded pre-training, fine-tuning), the parallel-engine paths, and the
simulated+functional trainers of :mod:`repro.core` run through
:class:`repro.train.loop.TrainLoop`, which emits these events to the
registered callbacks after every parameter update, every epoch, and
every completed layer of a stack.  The callbacks are the one way to
watch a training run.

Determinism contract
--------------------
The *compared* payload of every event (step / epoch / layer indices, the
loss or metric, the cumulative simulated clock) is a pure function of the
training run at a fixed seed: it is identical between a serial run and a
:class:`~repro.runtime.executor.ParallelGradientEngine` run at any worker
count up to floating-point reduction order, and bit-identical across
repeats at the same worker count.  Wall-clock phase timings
(:class:`PhaseTimings`) are measured, hence non-deterministic — they are
carried on update events but excluded from equality comparisons and from
checkpointed event logs, so resumed runs replay events that compare equal
to the uninterrupted run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class PhaseTimings:
    """Measured wall-clock seconds of one update, split by pipeline phase.

    The phases mirror the paper's Fig. 5 decomposition of a mini-batch
    update: *load* (staging the batch out of the training set, or a
    prefetched chunk), *compute* (the engine's gradient call, its
    sharded worker compute included, less its reduces), *reduce*
    (combining shard gradients, timed by the engine inside its gradient
    call; zero when one shard writes the result itself, as in every
    serial run), and *apply* (the synchronized parameter update).
    """

    load_s: float = 0.0
    compute_s: float = 0.0
    reduce_s: float = 0.0
    apply_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.load_s + self.compute_s + self.reduce_s + self.apply_s


@dataclass(frozen=True)
class UpdateEvent:
    """One parameter update's outcome."""

    step: int  # global update index, 1-based, monotone across layers
    epoch: int  # 0-based epoch within the current layer/run
    loss: float
    simulated_seconds: float  # cumulative simulated clock (0.0 outside repro.core)
    #: measured wall-clock phase split; excluded from equality (see module doc)
    timings: Optional[PhaseTimings] = field(default=None, compare=False)


@dataclass(frozen=True)
class EpochEvent:
    """One epoch's outcome."""

    epoch: int  # 0-based
    metric: float  # reconstruction error / mean loss / accuracy
    simulated_seconds: float


@dataclass(frozen=True)
class LayerEvent:
    """One greedy-stack building block finished pre-training."""

    layer: int  # 0-based index into the stack
    metric: float  # the block's final epoch metric
    simulated_seconds: float
