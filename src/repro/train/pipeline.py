"""Pipelined synchronized layer-wise pre-training: all layers at once.

Greedy stack pre-training (paper Fig. 1) is strictly sequential per
layer: block k+1 cannot start until block k has fully converged, so on a
multi-core machine most cores idle while one layer trains.  *Faster
learning of deep stacked autoencoders on multi-core systems using
synchronized layer-wise pre-training* (Santara et al., arXiv:1603.02836)
trains **all** layers concurrently, each consuming the evolving
representation of the layer below.  This module is that scheme built on
the unified runtime, with **zero changes to**
:class:`~repro.train.loop.TrainLoop`:

* one :class:`TrainLoop` per layer runs on its own long-lived stage
  thread (long-lived because :class:`~repro.runtime.workspace.Workspace`
  arenas and engine coordinator workspaces pin to their first thread);
* stages are connected by bounded :class:`ActivationQueue`\\ s built on
  the :class:`~repro.runtime.slotqueue.BoundedSlotQueue` slot discipline
  the :class:`~repro.runtime.executor.ChunkPrefetcher` uses —
  backpressure via ``n_slots`` permits, producer death surfaces as a
  typed :class:`PipelineError`, never a hang;
* a wrapping :class:`~repro.train.loop.TrainStep` taps every parameter
  update of stage k: it re-encodes the freshly-trained mini-batch with
  the *post-update* weights and pushes ``(indices, activations)``
  downstream, where stage k+1 scatters them into its materialized input
  buffer — the evolving representation.

The synchronized schedule
-------------------------
Stage k+1 drains the queue through stage k's epoch-``e`` end-marker
before training its own epoch ``e`` (Santara et al.), so every stage's
epoch ``e`` trains on the layer below's post-epoch-``e`` representation.
The data each stage consumes is then a pure function of per-stage serial
histories — independent of OS thread scheduling — which is what makes
runs (and kill-anywhere resume) bit-identical at a fixed seed.

Checkpointing uses stop-the-world **windows**: every
``checkpoint_every`` epochs all stages park on a barrier pair; at the
cut every queue is provably empty (the marker discipline above), so the
snapshot is just per-stage state — block parameters, RNG streams, input
buffers, per-stage event logs — taken atomically by the coordinator.

Fault sites ``pipeline.stage`` (top of each stage epoch) and
``pipeline.queue`` (every queue hand-off) plug into
:mod:`repro.testing.faults`; a fault anywhere tears the whole pipeline
down through the abort path — queues closed, barriers broken, the first
error re-raised — with every stage joined, never hung.

Layering: this module may import :mod:`repro.runtime` and
:mod:`repro.testing` but never :mod:`repro.nn` — models arrive as
opaque :class:`StagePlan` callables, enforced by
``tools/check_layering.py``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.runtime.slotqueue import BoundedSlotQueue, SlotQueueError
from repro.testing.faults import fault_point, register_fault_site
from repro.train.callbacks import TrainingCallback, as_callback_list
from repro.train.loop import EventLog, TrainLoop, TrainStep

SITE_PIPELINE_STAGE = register_fault_site(
    "pipeline.stage", "on a stage thread, at the top of each training epoch"
)
SITE_PIPELINE_QUEUE = register_fault_site(
    "pipeline.queue", "inside an ActivationQueue hand-off (push or pop)"
)


class PipelineError(ReproError):
    """A pipeline stage or activation queue failed (or was torn down)."""


# Queue item kinds.  FIFO order guarantees every ``rows`` item of epoch e
# precedes the ``epoch_end`` marker of epoch e.
_ROWS, _EPOCH_END, _DONE = "rows", "epoch_end", "done"


class ActivationQueue:
    """Bounded hand-off of freshly-encoded activation batches, stage k → k+1.

    Reuses the :class:`~repro.runtime.slotqueue.BoundedSlotQueue`
    slot/semaphore discipline: ``n_slots`` bounds staged-plus-in-flight
    items (markers included), a producer that fails publishes an error
    sentinel, and a consumer blocked on a dead producer gets a typed
    :class:`PipelineError` instead of a hang.  ``pushed`` / ``popped``
    are the queue cursors reported in checkpitem diagnostics — at every
    checkpoint window they are equal (the queue is provably empty), which
    is what lets snapshots skip in-flight items entirely.
    """

    def __init__(self, producer_index: int, n_slots: int, name: Optional[str] = None):
        self.producer_index = int(producer_index)
        self.name = name or f"acts[{self.producer_index}->{self.producer_index + 1}]"
        self._q = BoundedSlotQueue(n_slots, name=self.name)
        self.pushed = 0
        self.popped = 0

    @property
    def n_slots(self) -> int:
        return self._q.n_slots

    # -- producer side (stage k's thread) --------------------------------
    def _push(self, kind: str, epoch: Optional[int], idx, rows) -> None:
        fault_point(
            SITE_PIPELINE_QUEUE,
            stage=self.producer_index, op="push", kind=kind, epoch=epoch,
        )
        if not self._q.acquire():
            raise PipelineError(
                f"{self.name}: downstream stage is gone; {kind} push abandoned"
            )
        self._q.put((kind, epoch, idx, rows))
        self.pushed += 1

    def push_rows(self, epoch: int, idx: np.ndarray, rows: np.ndarray) -> None:
        """Publish one freshly-encoded mini-batch of activations."""
        self._push(_ROWS, int(epoch), np.ascontiguousarray(idx),
                   np.ascontiguousarray(rows, dtype=np.float64))

    def push_epoch_end(self, epoch: int) -> None:
        """Publish the epoch-``epoch`` end marker (sync barrier token)."""
        self._push(_EPOCH_END, int(epoch), None, None)

    def push_done(self) -> None:
        """Publish the end-of-layer marker: no more items will ever come."""
        self._push(_DONE, None, None, None)

    def fail(self, exc: BaseException) -> None:
        """Producer-side failure: wake the consumer with the error sentinel."""
        self._q.put_error(exc)

    # -- consumer side (stage k+1's thread) ------------------------------
    def pop(self, producer_alive: Optional[Callable[[], bool]] = None):
        """Blocking pop; raises :class:`PipelineError` on a dead/failed
        producer or a closed (torn-down) queue — never hangs."""
        fault_point(SITE_PIPELINE_QUEUE, stage=self.producer_index, op="pop")
        try:
            item = self._q.get(producer_alive=producer_alive)
        except SlotQueueError as exc:
            raise PipelineError(
                f"{self.name}: upstream stage failed or vanished: {exc}"
            ) from (self._q.error or exc)
        self._q.release()
        self.popped += 1
        return item

    def close(self) -> None:
        self._q.close()

    def __repr__(self) -> str:
        return (
            f"ActivationQueue({self.name!r}, n_slots={self.n_slots}, "
            f"pushed={self.pushed}, popped={self.popped})"
        )


@dataclass
class StagePlan:
    """Everything the pretrainer needs to run one layer as a stage.

    The model layer (:mod:`repro.nn`) builds these; the pipeline never
    imports model code.  ``make_step`` is called **on the stage thread**
    (workspace arenas pin to the thread that first touches them) with the
    stage's input buffer and must return the block's
    :class:`~repro.train.loop.TrainStep` — a
    :class:`~repro.train.loop.ModelStep` carrying the stage's engine;
    ``encode`` maps a loaded batch to activations under the block's
    *current* parameters; ``rng`` is the stage's shuffle generator.
    """

    index: int
    epochs: int
    batch_size: int
    out_width: int
    make_step: Callable[[np.ndarray], TrainStep]
    encode: Callable[[np.ndarray], np.ndarray]
    rng: np.random.Generator

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if self.out_width < 1:
            raise ConfigurationError(f"out_width must be >= 1, got {self.out_width}")


class _SharedBus(TrainingCallback):
    """One thread-safe callback surface shared by every stage's loop.

    Serializes delivery (user callbacks are not required to be
    thread-safe) and converts a member's stop request into a
    pipeline-level stop: ``stop_requested`` is always ``False`` towards
    the loops — a mid-epoch stop on one stage would break the marker
    protocol — and the pretrainer instead winds the whole pipeline down
    at the next stage epoch boundary.
    """

    def __init__(self, callbacks, request_stop: Callable[[], None]):
        self._inner = as_callback_list(callbacks)
        self._lock = threading.Lock()
        self._request_stop = request_stop

    @property
    def stop_requested(self) -> bool:  # type: ignore[override]
        return False

    def _deliver(self, method: str, event) -> None:
        with self._lock:
            getattr(self._inner, method)(event)
            if self._inner.stop_requested:
                self._request_stop()

    def on_update(self, event) -> None:
        self._deliver("on_update", event)

    def on_epoch(self, event) -> None:
        self._deliver("on_epoch", event)

    def on_layer(self, event) -> None:
        self._deliver("on_layer", event)


class _StageStep(TrainStep):
    """Delegating step that taps each update to feed the next stage.

    * ``load`` remembers the batch indices;
    * ``apply`` delegates, then re-encodes the batch with the
      post-update parameters and pushes it downstream.

    The inner step trains directly on the stage's materialized input
    buffer, so scattering popped activation rows into that buffer is all
    a drain has to do.
    """

    def __init__(
        self,
        inner: TrainStep,
        encode: Callable[[np.ndarray], np.ndarray],
        buffer: Optional[np.ndarray],
        in_queue: Optional[ActivationQueue],
        out_queue: Optional[ActivationQueue],
        producer_alive: Optional[Callable[[], bool]],
    ):
        self.inner = inner
        self._encode = encode
        self._buffer = buffer
        self._in = in_queue
        self._out = out_queue
        self._producer_alive = producer_alive
        self.current_epoch = 0
        self._idx: Optional[np.ndarray] = None
        self._batch = None
        self._done_seen = False

    # -- data access -----------------------------------------------------
    def n_examples(self) -> int:
        return self.inner.n_examples()

    def load(self, idx: np.ndarray):
        batch = self.inner.load(idx)
        self._idx, self._batch = idx, batch
        return batch

    def rows(self, batch) -> int:
        return self.inner.rows(batch)

    def narrow(self, batch, lo: int, hi: int):
        return self.inner.narrow(batch, lo, hi)

    # -- kernels ---------------------------------------------------------
    def compute(self, batch):
        return self.inner.compute(batch)

    @property
    def reduce_s(self) -> float:
        return self.inner.reduce_s

    def apply(self, state) -> None:
        self.inner.apply(state)
        self._push_activations()

    def charge(self, n_rows: int) -> float:
        return self.inner.charge(n_rows)

    def epoch_metric(self, epoch_losses) -> float:
        return self.inner.epoch_metric(epoch_losses)

    # -- the pipeline taps -----------------------------------------------
    def _push_activations(self) -> None:
        if self._out is None:
            return
        self._out.push_rows(
            self.current_epoch, self._idx, self._encode(self._batch)
        )

    def _apply_item(self, item) -> Optional[str]:
        kind, epoch, idx, rows = item
        if kind == _ROWS:
            self._buffer[idx] = rows
            return None
        if kind == _DONE:
            self._done_seen = True
        return kind

    def drain_through_epoch(self, epoch: int) -> bool:
        """Blocking drain through the upstream epoch-``epoch`` marker
        (applying every activation batch on the way).  Returns ``True``
        when the upstream layer ended early instead (stop request)."""
        # Markers arrive in FIFO epoch order and each consumer epoch drains
        # exactly one, so the marker reached here is epoch's by counting.
        while True:
            marker = self._apply_item(self._in.pop(self._producer_alive))
            if marker == _DONE:
                return True
            if marker == _EPOCH_END:
                return False

    def drain_through_done(self) -> None:
        """End-of-run drain: consume everything up to the done marker so
        the upstream stage is never left blocked on a full queue."""
        while not self._done_seen:
            self._apply_item(self._in.pop(self._producer_alive))


class PipelinedPretrainer:
    """Run one :class:`~repro.train.loop.TrainLoop` per layer, concurrently.

    Parameters
    ----------
    plans:
        One :class:`StagePlan` per layer, in stack order.  All plans must
        train the same number of epochs — the epoch-marker protocol (and
        the checkpoint-window barrier) needs a uniform epoch grid; use
        the greedy strategy for heterogeneous schedules.
    queue_slots:
        Capacity of each activation queue.  Default: one epoch of the
        producer's batches plus slack, which lets adjacent stages overlap
        a full epoch.  Any value ≥ 1 is deadlock-free (a draining
        consumer frees slots while it waits); smaller values just stall
        the producer more.
    callbacks:
        Shared event surface — every stage's loop fires into it (behind
        one lock).  A member's stop request stops the *whole pipeline* at
        the next stage epoch boundary.
    checkpoint_every:
        Snapshot window period in epochs (used only when ``run`` gets an
        ``on_snapshot`` hook).
    """

    def __init__(
        self,
        plans: Sequence[StagePlan],
        *,
        queue_slots: Optional[int] = None,
        callbacks=None,
        checkpoint_every: int = 1,
    ):
        plans = list(plans)
        if not plans:
            raise ConfigurationError("a pipeline needs at least one stage")
        for i, plan in enumerate(plans):
            if plan.index != i:
                raise ConfigurationError(
                    f"plans must be in stack order: plans[{i}].index == {plan.index}"
                )
        epoch_counts = {p.epochs for p in plans}
        if len(epoch_counts) != 1:
            raise ConfigurationError(
                f"pipelined pre-training needs a uniform epoch count across "
                f"layers (the epoch-marker sync protocol trains all layers in "
                f"lock-step), got {sorted(epoch_counts)}; use the greedy "
                f"strategy for heterogeneous per-layer epochs"
            )
        if queue_slots is not None and queue_slots < 1:
            raise ConfigurationError(
                f"queue_slots must be >= 1, got {queue_slots}"
            )
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.plans = plans
        self.epochs = plans[0].epochs
        self.queue_slots = queue_slots
        self.checkpoint_every = int(checkpoint_every)
        self._bus = _SharedBus(callbacks, self._request_stop)
        self.loops = [TrainLoop(callbacks=[self._bus]) for _ in plans]
        # run() state
        self.buffers: List[np.ndarray] = []
        self.metrics: List[List[float]] = []
        self.queues: List[ActivationQueue] = []
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._abort = threading.Event()
        self._errors: List = []
        self._err_lock = threading.Lock()
        self._enter: Optional[threading.Barrier] = None
        self._exit: Optional[threading.Barrier] = None
        self._parks: frozenset = frozenset()
        self._started = False

    # ------------------------------------------------------------------
    # teardown plumbing (stop / abort) — every blocking operation in the
    # pipeline observes one of these, so no failure shape can hang it.
    # ------------------------------------------------------------------
    def _break_barriers(self) -> None:
        for barrier in (self._enter, self._exit):
            if barrier is not None:
                barrier.abort()

    def _request_stop(self) -> None:
        """Cooperative stop (early stopping): every stage winds down at
        its next epoch boundary; no further checkpoints are taken."""
        self._stop.set()
        self._break_barriers()

    def _fail(self, stage_index: int, exc: BaseException) -> None:
        """Record a failure and tear the pipeline down without hangs."""
        with self._err_lock:
            self._errors.append((stage_index, exc))
        self._abort.set()
        self._break_barriers()
        for k, q in enumerate(self.queues):
            q.close()
            if k == stage_index:
                # Give the direct consumer the root cause, not just "closed".
                q.fail(exc)

    def _first_error(self) -> Optional[BaseException]:
        with self._err_lock:
            return self._errors[0][1] if self._errors else None

    # ------------------------------------------------------------------
    # stage body
    # ------------------------------------------------------------------
    def _park(self, stage_index: int) -> None:
        """Double barrier: all stages quiesce, the coordinator snapshots
        between the two waits, then everyone resumes."""
        try:
            self._enter.wait()
            self._exit.wait()
        except threading.BrokenBarrierError:
            if self._stop.is_set() and not self._abort.is_set():
                return  # benign: pipeline stopping, checkpointing is over
            raise PipelineError(
                f"stage {stage_index}: pipeline aborted during a "
                f"checkpoint window"
            ) from self._first_error()

    def _stage_body(self, k: int, start_epoch: int) -> None:
        plan = self.plans[k]
        loop = self.loops[k]
        in_q = self.queues[k - 1] if k > 0 else None
        out_q = self.queues[k] if k < len(self.plans) - 1 else None
        alive = self._threads[k - 1].is_alive if k > 0 else None
        try:
            step = _StageStep(
                inner=plan.make_step(self.buffers[k]),
                encode=plan.encode,
                buffer=self.buffers[k],
                in_queue=in_q,
                out_queue=out_q,
                producer_alive=alive,
            )
            stage_metrics = self.metrics[k]
            for epoch in range(start_epoch, self.epochs):
                fault_point(SITE_PIPELINE_STAGE, stage=k, epoch=epoch)
                if self._abort.is_set():
                    raise PipelineError(
                        f"stage {k}: pipeline aborted"
                    ) from self._first_error()
                if self._stop.is_set():
                    break
                if in_q is not None:
                    # Train epoch e on the layer below's post-epoch-e
                    # representation.
                    if step.drain_through_epoch(epoch):
                        break  # upstream ended early (stop request)
                step.current_epoch = epoch
                loop.run_epochs(
                    step,
                    epochs=epoch + 1,
                    start_epoch=epoch,
                    batch_size=plan.batch_size,
                    rng=plan.rng,
                    metrics=stage_metrics,
                )
                if out_q is not None:
                    out_q.push_epoch_end(epoch)
                if (epoch + 1) in self._parks and not self._stop.is_set():
                    self._park(k)
            # Orderly end-of-layer: tell downstream we are done, then empty
            # our own input so upstream never stalls on a full queue.
            if out_q is not None:
                out_q.push_done()
            if in_q is not None:
                step.drain_through_done()
        except BaseException as exc:  # noqa: BLE001 - must never die silently
            self._fail(k, exc)

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(
        self,
        x: np.ndarray,
        *,
        start_epoch: int = 0,
        buffers: Optional[Sequence[Optional[np.ndarray]]] = None,
        metrics: Optional[List[List[float]]] = None,
        event_logs: Optional[Sequence[EventLog]] = None,
        on_snapshot: Optional[Callable[[int], None]] = None,
    ) -> List[List[float]]:
        """Train every stage for epochs ``start_epoch .. epochs``.

        ``buffers`` / ``metrics`` / ``event_logs`` carry restored
        per-stage state when resuming; each stage extends its ``metrics``
        list in place, a caller's lists included.
        ``on_snapshot(epochs_done)`` is invoked by the coordinator inside
        each checkpoint window (all stages parked, all queues empty) and
        once more after a complete run.  Once every stage has finished,
        each stage's :class:`~repro.train.events.LayerEvent` fires, in
        stack order.  Returns the per-stage metric lists.
        """
        if self._started:
            raise ConfigurationError("a PipelinedPretrainer runs only once")
        self._started = True
        if not 0 <= start_epoch <= self.epochs:
            raise ConfigurationError(
                f"start_epoch must be in [0, {self.epochs}], got {start_epoch}"
            )
        x = np.ascontiguousarray(x, dtype=np.float64)
        n = int(x.shape[0])
        n_stages = len(self.plans)

        self.buffers = [x]
        for k in range(1, n_stages):
            width = self.plans[k - 1].out_width
            restored = buffers[k] if buffers is not None else None
            if restored is not None:
                if restored.shape != (n, width):
                    raise ConfigurationError(
                        f"restored buffer for stage {k} has shape "
                        f"{restored.shape}, expected {(n, width)}"
                    )
                self.buffers.append(
                    np.ascontiguousarray(restored, dtype=np.float64)
                )
            else:
                self.buffers.append(np.zeros((n, width), dtype=np.float64))
        self.metrics = (
            list(metrics) if metrics is not None else [[] for _ in range(n_stages)]
        )
        if len(self.metrics) != n_stages:
            raise ConfigurationError(
                f"metrics must carry one list per stage ({n_stages}), "
                f"got {len(self.metrics)}"
            )
        if event_logs is not None:
            for loop, log in zip(self.loops, event_logs):
                loop.resume_from_log(log)

        self.queues = []
        for k in range(n_stages - 1):
            slots = self.queue_slots
            if slots is None:
                batches = math.ceil(n / self.plans[k].batch_size)
                slots = batches + 2  # one epoch of rows + its marker + slack
            self.queues.append(ActivationQueue(k, slots))

        snapshots = on_snapshot is not None
        self._parks = frozenset(
            e for e in range(start_epoch + 1, self.epochs)
            if snapshots and e % self.checkpoint_every == 0
        )
        if snapshots:
            self._enter = threading.Barrier(n_stages + 1)
            self._exit = threading.Barrier(n_stages + 1)

        self._threads = [
            threading.Thread(
                target=self._stage_body,
                args=(k, start_epoch),
                name=f"pipeline-stage{k}",
                daemon=True,
            )
            for k in range(n_stages)
        ]
        for thread in self._threads:  # producers start before consumers
            thread.start()

        try:
            for epochs_done in sorted(self._parks):
                try:
                    self._enter.wait()
                except threading.BrokenBarrierError:
                    break  # a stage failed or a stop was requested
                try:
                    on_snapshot(epochs_done)
                finally:
                    try:
                        self._exit.wait()
                    except threading.BrokenBarrierError:
                        pass
        except BaseException as exc:  # snapshot writer failed
            self._fail(-1, exc)
        for thread in self._threads:
            thread.join()
        error = self._first_error()
        if error is not None:
            raise error
        # Stages finish in any order; their layer events fire here, in
        # stack order, before the final snapshot records them.
        for k, (loop, stage_metrics) in enumerate(zip(self.loops, self.metrics)):
            loop.end_layer(k, stage_metrics[-1] if stage_metrics else float("nan"))
        if snapshots and not self._stop.is_set():
            on_snapshot(self.epochs)
        return self.metrics
