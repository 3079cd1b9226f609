"""The epoch/batch training loop (paper Fig. 5, executable).

Greedy, pipelined and sharded pre-training and supervised fine-tuning
(:mod:`repro.nn`), and the simulated+functional trainers of
:mod:`repro.core` (which charge simulated machine time from the same
loop events), all run through :class:`TrainLoop`.  The loop owns:

* epoch iteration and mini-batch shuffling (:mod:`repro.train.batches`
  — exactly one ``permutation`` draw per epoch);
* chunk-staged delivery through a
  :class:`~repro.runtime.executor.ChunkPrefetcher` (the paper's
  "training thread uses chunk i−1 while the loading thread stages
  chunk i");
* the structured event bus (:mod:`repro.train.events`) with per-phase
  wall timing (load / compute / reduce / apply) feeding the callback
  surface (:mod:`repro.train.callbacks`);
* checkpoint hooks and the replayable :class:`EventLog` that makes a
  resumed run's recorded history equal an uninterrupted run's.

Models plug in through a :class:`TrainStep`: load rows, compute, apply,
plus the epoch metric and the simulated-time charge.  Every model in the
repository trains through the one concrete step, :class:`ModelStep`,
which runs any shard-protocol model on a gradient engine — a serial run
is a W=1 engine whose only RNG stream is the run's shuffle generator.
Steps are deliberately loop-free: the epoch loop and its shuffle live
here, not in the models.  Five paths keep their own ``permutation``
shuffle and do not run through this loop: the generic optimiser
:meth:`repro.optim.sgd.SGD.minimize`,
:meth:`repro.nn.denoising.DenoisingAutoencoder.fit_denoising`,
:meth:`repro.nn.sparse_coding.SparseCoder.fit`, and the data helpers
:meth:`repro.data.datasets.Dataset.minibatches` and
:func:`repro.data.datasets.minibatch_indices`.

Determinism: the loop draws RNG values in exactly the order the historic
per-module loops did (one permutation per epoch, then whatever the
step's kernels draw, batch by batch), so refactored paths are
bit-identical to their pre-:mod:`repro.train` behaviour at a fixed seed,
and chunked staging with ``chunk_examples`` a multiple of ``batch_size``
is bit-identical to unchunked iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.executor import ChunkPrefetcher, serial_engine
from repro.train.batches import batch_bounds, epoch_order
from repro.train.callbacks import CallbackList, as_callback_list
from repro.train.events import EpochEvent, LayerEvent, PhaseTimings, UpdateEvent


class TrainStep:
    """One model's update, as the unified loop sees it.

    Subclasses provide the data access and the compute/apply pair of one
    update; the loop supplies iteration, shuffling, events, and
    checkpoint hooks.  A ``batch`` is whatever :meth:`load` returns — an
    array, or a tuple of aligned arrays for supervised steps.
    """

    # -- data access -----------------------------------------------------
    def n_examples(self) -> int:
        raise NotImplementedError

    def load(self, idx: np.ndarray):
        """Gather the rows of ``idx`` (the loop's *load* phase)."""
        raise NotImplementedError

    def rows(self, batch) -> int:
        if isinstance(batch, tuple):
            return int(batch[0].shape[0])
        return int(batch.shape[0])

    def narrow(self, batch, lo: int, hi: int):
        """A contiguous sub-batch view (chunked staging mode)."""
        if isinstance(batch, tuple):
            return tuple(part[lo:hi] for part in batch)
        return batch[lo:hi]

    # -- the update ------------------------------------------------------
    #: Wall seconds the last :meth:`compute` spent reducing shard
    #: gradients; the loop reports them apart from the rest of compute.
    reduce_s = 0.0

    def compute(self, batch):
        """Gradient computation; returns ``(loss, state)``."""
        raise NotImplementedError

    def apply(self, state) -> None:
        """Synchronized parameter update from :meth:`compute`'s state."""
        raise NotImplementedError

    # -- clock + metric --------------------------------------------------
    def charge(self, n_rows: int) -> float:
        """Simulated seconds for one update (0.0 outside :mod:`repro.core`)."""
        return 0.0

    def epoch_metric(self, epoch_losses: Sequence[float]) -> float:
        """The epoch's summary metric; default: mean per-update loss.

        Summed sequentially (not ``np.mean``'s pairwise order) to stay
        bit-identical to the historical ``epoch_err += ...`` loops.
        """
        if not epoch_losses:
            return float("nan")
        total = 0.0
        for value in epoch_losses:
            total += value
        return total / len(epoch_losses)


#: Engine entry point per shard kind.  Training goes through the per-model
#: wrappers (perfbench's tracer counts them as engine calls); any other
#: model takes the generic coordinator.
_ENTRY_POINTS = {"rbm": "cd_gradients", "mlp": "supervised_gradients"}


class ModelStep(TrainStep):
    """The training step of every model: one engine call, one apply.

    Parameters
    ----------
    model:
        Speaks the engines' shard protocol (see
        :meth:`~repro.runtime.executor.ParallelGradientEngine.gradients`)
        and has ``apply_update(grads, learning_rate, workspace=)``.
    data:
        The training rows: one array, or a tuple of row-aligned arrays
        (inputs and targets).
    learning_rate:
        Passed to every ``apply_update``.
    engine:
        The gradient engine every update runs on (borrowed, never
        closed).  Omitted, the run is serial: a W=1 engine from
        :func:`~repro.runtime.executor.serial_engine` whose only stream
        is ``rng``.
    rng:
        The run's shuffle generator — the one given to
        :meth:`TrainLoop.run_epochs` — from which serial CD chains draw.
    metric:
        ``metric(epoch_losses) -> float``, the epoch's summary; default:
        the mean per-update loss.
    charge:
        ``charge(n_rows) -> float``, the simulated seconds of one update;
        default: none.
    options:
        Reach every gradient call (e.g. ``k`` for CD-k).
    """

    def __init__(
        self,
        model,
        data,
        learning_rate: float,
        *,
        engine=None,
        rng: Optional[np.random.Generator] = None,
        metric: Optional[Callable[[Sequence[float]], float]] = None,
        charge: Optional[Callable[[int], float]] = None,
        **options,
    ):
        self.model = model
        self.data = data
        self.learning_rate = learning_rate
        self.engine = engine or serial_engine(rng)
        self._entry = _ENTRY_POINTS.get(model.shard_kind, "gradients")
        self._workspace = self.engine.coordinator_workspace
        self._metric = metric
        self._charge = charge
        self._options = options

    def n_examples(self) -> int:
        return self.rows(self.data)

    def load(self, idx: np.ndarray):
        if isinstance(self.data, tuple):
            return tuple(part[idx] for part in self.data)
        return self.data[idx]

    def compute(self, batch):
        parts = batch if isinstance(batch, tuple) else (batch,)
        result = getattr(self.engine, self._entry)(self.model, *parts, **self._options)
        self.reduce_s = self.engine.last_reduce_s
        if isinstance(result, tuple):
            return result
        return result.reconstruction_error, result  # CD-k statistics

    def apply(self, grads) -> None:
        self.model.apply_update(grads, self.learning_rate, workspace=self._workspace)

    def charge(self, n_rows: int) -> float:
        return 0.0 if self._charge is None else self._charge(n_rows)

    def epoch_metric(self, epoch_losses: Sequence[float]) -> float:
        if self._metric is None:
            return super().epoch_metric(epoch_losses)
        return float(self._metric(epoch_losses))


@dataclass(frozen=True)
class ChunkSchedule:
    """Chunk-staged data delivery for one run (paper Fig. 5).

    ``chunk_examples`` must be a multiple of the batch size so chunk
    boundaries align with batch boundaries — that alignment is what makes
    chunked iteration bit-identical to unchunked iteration at the same
    seed.  ``n_buffers`` bounds the staging pool exactly like the
    simulated :class:`~repro.runtime.offload.OffloadPipeline` slot rule;
    ``retries`` absorbs transient loader faults with exponential backoff.
    """

    chunk_examples: int
    n_buffers: int = 2
    retries: int = 0
    retry_backoff_s: float = 0.02

    def __post_init__(self):
        if self.chunk_examples < 1:
            raise ConfigurationError(
                f"chunk_examples must be >= 1, got {self.chunk_examples}"
            )
        if self.n_buffers < 1:
            raise ConfigurationError(
                f"n_buffers must be >= 1, got {self.n_buffers}"
            )


# Event-log array encoding: one float64 row [kind, i1, i2, value, sim] per
# event, preserving chronological interleaving across layers.
_EV_UPDATE, _EV_EPOCH, _EV_LAYER = 0.0, 1.0, 2.0
EVENT_LOG_KEY = "evlog"


class EventLog:
    """Replayable record of every event a run emitted.

    Persisted inside training checkpoints (as a compact float64 array
    under ``EVENT_LOG_KEY``) and replayed through the callbacks on
    resume, so :class:`~repro.train.callbacks.History` and
    :class:`~repro.train.callbacks.EarlyStopping` state survive a crash.
    Wall-clock phase timings are *not* persisted — replayed update events
    carry ``timings=None``, which :class:`UpdateEvent` excludes from
    equality.
    """

    def __init__(self):
        self.events: List[object] = []

    def __len__(self) -> int:
        return len(self.events)

    def add(self, event) -> None:
        self.events.append(event)

    @property
    def updates(self) -> List[UpdateEvent]:
        return [e for e in self.events if isinstance(e, UpdateEvent)]

    @property
    def epochs(self) -> List[EpochEvent]:
        return [e for e in self.events if isinstance(e, EpochEvent)]

    @property
    def layers(self) -> List[LayerEvent]:
        return [e for e in self.events if isinstance(e, LayerEvent)]

    def last_step(self) -> int:
        for event in reversed(self.events):
            if isinstance(event, UpdateEvent):
                return event.step
        return 0

    def last_simulated_seconds(self) -> float:
        if not self.events:
            return 0.0
        return float(self.events[-1].simulated_seconds)

    def replay_into(self, monitor: CallbackList) -> None:
        """Re-fire every recorded event, in order, into ``monitor``."""
        for event in self.events:
            if isinstance(event, UpdateEvent):
                monitor.on_update(event)
            elif isinstance(event, EpochEvent):
                monitor.on_epoch(event)
            else:
                monitor.on_layer(event)

    # -- checkpoint (de)serialisation ------------------------------------
    def to_array(self) -> np.ndarray:
        rows = np.empty((len(self.events), 5), dtype=np.float64)
        for i, event in enumerate(self.events):
            if isinstance(event, UpdateEvent):
                rows[i] = (_EV_UPDATE, event.step, event.epoch, event.loss,
                           event.simulated_seconds)
            elif isinstance(event, EpochEvent):
                rows[i] = (_EV_EPOCH, event.epoch, 0.0, event.metric,
                           event.simulated_seconds)
            else:
                rows[i] = (_EV_LAYER, event.layer, 0.0, event.metric,
                           event.simulated_seconds)
        return rows

    @classmethod
    def from_array(cls, rows: Optional[np.ndarray]) -> "EventLog":
        """Decode :meth:`to_array` output; ``None`` (legacy checkpoints
        that predate event logging) yields an empty log."""
        log = cls()
        if rows is None:
            return log
        for kind, i1, i2, value, sim in np.asarray(rows, dtype=np.float64):
            if kind == _EV_UPDATE:
                log.add(UpdateEvent(int(i1), int(i2), float(value), float(sim)))
            elif kind == _EV_EPOCH:
                log.add(EpochEvent(int(i1), float(value), float(sim)))
            else:
                log.add(LayerEvent(int(i1), float(value), float(sim)))
        return log


class TrainLoop:
    """The runtime that owns epoch/batch iteration for one training run.

    One instance spans a whole run — all blocks of a greedy stack, or
    one fine-tuning session — so the global step counter, the simulated
    clock, and the event log are continuous across layers.

    Where an update runs is the step's business: a :class:`ModelStep`
    carries its engine (a W=1 one for serial runs), so the loop has a
    single dispatch path — ``compute`` then ``apply``.

    Parameters
    ----------
    callbacks:
        ``None`` / a single :class:`~repro.train.callbacks.TrainingCallback`
        / a sequence — receives every event; any member may request a
        stop, which ends the current :meth:`run_epochs` call after the
        in-flight epoch's bookkeeping.

    Phase timings are read from ``time.perf_counter``, the clock the
    engines time their reduces with.
    """

    def __init__(self, *, callbacks=None):
        # The loop owns its member list (internal recorders are appended
        # to it), so a caller's CallbackList is never mutated.
        self.monitor = CallbackList(as_callback_list(callbacks).callbacks)
        self.log = EventLog()
        self.step_count = 0
        self.simulated_seconds = 0.0

    # ------------------------------------------------------------------
    # resume plumbing
    # ------------------------------------------------------------------
    def resume_from_log(self, log: EventLog) -> None:
        """Adopt a checkpointed event log: restore the step counter and
        simulated clock, and replay the history through the callbacks."""
        self.log = log
        self.step_count = log.last_step()
        self.simulated_seconds = log.last_simulated_seconds()
        log.replay_into(self.monitor)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run_epochs(
        self,
        step: TrainStep,
        *,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator,
        start_epoch: int = 0,
        metrics: Optional[List[float]] = None,
        epoch_end: Optional[Callable[[int, List[float]], None]] = None,
        chunks: Optional[ChunkSchedule] = None,
    ) -> List[float]:
        """Train ``step`` for ``epochs - start_epoch`` epochs.

        Per epoch: one permutation draw, shuffled contiguous mini-batches
        (optionally staged chunk-by-chunk through a background
        :class:`~repro.runtime.executor.ChunkPrefetcher`), an
        :class:`~repro.train.events.UpdateEvent` per parameter update,
        then the step's epoch metric, an
        :class:`~repro.train.events.EpochEvent`, and the ``epoch_end``
        hook (checkpoint writers).  Returns ``metrics`` with one entry
        appended per epoch run (pass a pre-populated list when resuming).
        """
        if epochs < 1 or batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if chunks is not None and chunks.chunk_examples % batch_size != 0:
            raise ConfigurationError(
                f"chunk_examples ({chunks.chunk_examples}) must be a multiple "
                f"of batch_size ({batch_size}) so chunked iteration stays "
                f"bit-identical to unchunked iteration"
            )
        metrics = metrics if metrics is not None else []
        n = step.n_examples()
        for epoch in range(start_epoch, epochs):
            if self.monitor.stop_requested:
                # e.g. a replayed EarlyStopping already asked to stop.
                break
            losses: List[float] = []
            if chunks is None:
                self._plain_epoch(step, epoch, n, batch_size, rng, losses)
            else:
                self._chunked_epoch(step, epoch, n, batch_size, rng, chunks, losses)
            metric = float(step.epoch_metric(losses))
            metrics.append(metric)
            event = EpochEvent(epoch, metric, self.simulated_seconds)
            self.log.add(event)
            self.monitor.on_epoch(event)
            if epoch_end is not None:
                epoch_end(epoch + 1, metrics)
            if self.monitor.stop_requested:
                break
        return metrics

    def end_layer(self, layer: int, metric: float) -> LayerEvent:
        """Mark a greedy-stack building block complete (fires ``on_layer``)."""
        event = LayerEvent(int(layer), float(metric), self.simulated_seconds)
        self.log.add(event)
        self.monitor.on_layer(event)
        return event

    # ------------------------------------------------------------------
    def _plain_epoch(self, step, epoch, n, batch_size, rng, losses) -> None:
        order = epoch_order(n, rng)
        for lo, hi in batch_bounds(n, batch_size):
            t0 = time.perf_counter()
            batch = step.load(order[lo:hi])
            load_s = time.perf_counter() - t0
            losses.append(self._one_update(step, epoch, batch, load_s))
            if self.monitor.stop_requested:
                return

    def _chunked_epoch(self, step, epoch, n, batch_size, rng, chunks, losses) -> None:
        order = epoch_order(n, rng)
        bounds = batch_bounds(n, chunks.chunk_examples)
        with ChunkPrefetcher(
            lambda c: step.load(order[bounds[c][0]:bounds[c][1]]),
            n_chunks=len(bounds),
            n_buffers=chunks.n_buffers,
            retries=chunks.retries,
            retry_backoff_s=chunks.retry_backoff_s,
        ) as prefetcher:
            for chunk in prefetcher:
                # Staging already happened on the loader thread; the
                # consumer-side load phase is the in-chunk narrow.
                for lo, hi in batch_bounds(step.rows(chunk), batch_size):
                    t0 = time.perf_counter()
                    batch = step.narrow(chunk, lo, hi)
                    load_s = time.perf_counter() - t0
                    losses.append(self._one_update(step, epoch, batch, load_s))
                    if self.monitor.stop_requested:
                        return

    def _one_update(self, step, epoch, batch, load_s: float) -> float:
        t0 = time.perf_counter()
        loss, state = step.compute(batch)
        t1 = time.perf_counter()
        step.apply(state)
        t2 = time.perf_counter()
        self.step_count += 1
        self.simulated_seconds += step.charge(step.rows(batch))
        # The engine reduces inside compute and times it; the rest of the
        # compute span is compute_s.
        reduce_s = step.reduce_s
        timings = PhaseTimings(
            load_s=load_s, compute_s=t1 - t0 - reduce_s, reduce_s=reduce_s,
            apply_s=t2 - t1,
        )
        event = UpdateEvent(
            self.step_count, epoch, float(loss), self.simulated_seconds,
            timings=timings,
        )
        self.log.add(event)
        self.monitor.on_update(event)
        return float(loss)
