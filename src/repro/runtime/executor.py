"""Real shared-memory parallel training executor (paper §IV.A–B, Figs. 5–6).

Everything else under :mod:`repro.runtime` *models* the paper's
concurrency; this module *executes* it.  Two pieces:

* :class:`ParallelGradientEngine` — a pool of slot-bound worker threads
  that splits each mini-batch into W shards.  Its one coordinator,
  :meth:`~ParallelGradientEngine.gradients`, knows no model: each model
  brings its per-shard maths through a small *shard protocol*
  (``shard_gradients`` and friends, on
  :class:`~repro.nn.autoencoder.SparseAutoencoder`,
  :class:`~repro.nn.rbm.RBM` and :class:`~repro.nn.mlp.DeepNetwork`,
  which run their fused kernels).  Shard gradients are reduced with
  ``daxpy`` into accumulators **in worker-index order** (deterministic
  floating point), then one ``apply_update`` runs on the coordinator —
  the paper's synchronized layer-wise update, and the
  worker-private-gradient scheme of CHAOS (Viebke et al.,
  arXiv:1702.07908).  :class:`~repro.runtime.procexec.ProcessGradientEngine`
  runs the same coordinator over worker processes.

  Where the shards run is decided per call by the batch's size (the
  paper's "Improved OpenMP+MKL" step coarsens parallel regions until
  fork/join stops dominating).  From :data:`AUTO_SERIAL_CUTOFF` batch
  cells up, shard *i* runs on slot thread *i* in a worker-private
  :class:`~repro.runtime.workspace.Workspace`; NumPy/BLAS release the
  GIL inside the GEMMs, so the shards overlap on separate cores.  Below
  it, or with a single shard, the same shard tasks run in slot order on
  the calling thread, in one coordinator-owned arena: at that size the
  queue hand-offs and the GIL convoy between the workers cost more than
  the overlap saves.  Both paths compute bit-identical results.  A lone
  shard writes the call's result arrays itself, with no reduce pass; so
  :func:`serial_engine`, the W=1 engine every serial training run goes
  through, costs what the direct kernel call does.

* :class:`ChunkPrefetcher` — the executable twin of the *simulated*
  :class:`~repro.runtime.offload.OffloadPipeline` (paper Fig. 5): a
  dedicated loader thread stages data chunks into a bounded multi-buffer
  queue while the training thread consumes them, and the measured
  timeline is reported in the exact same
  :class:`~repro.runtime.offload.OffloadTimeline` vocabulary so the two
  can be cross-checked on identical chunk parameters.

Determinism contract: shard *i* always draws from RNG stream *i*
(derived via :func:`repro.utils.rng.spawn_streams`) and parks its result
in slot *i*'s output arrays, whichever thread runs it, so a run at fixed
W is bit-reproducible regardless of OS scheduling or dispatch path; for
deterministic models the reduced gradient matches the serial full-batch
gradient to ≤1e-10 (pinned by the test suite and the
``BENCH_parallel.json`` equivalence fields).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.linalg import axpy_into
from repro.runtime.offload import ChunkEvent, OffloadTimeline
from repro.runtime.slotqueue import (
    BoundedSlotQueue,
    SlotQueueClosed,
    SlotQueueProducerDead,
    SlotQueueProducerFailed,
)
from repro.runtime.threads import (
    available_cores,
    blas_thread_limit,
    recommended_blas_threads,
)
from repro.runtime.workspace import Workspace
from repro.testing.faults import fault_point, fault_transform, register_fault_site
from repro.utils.rng import SeedLike, spawn_streams

# Kill points of the executable pipeline (see docs/robustness.md).  The
# hooks are module-global None checks when no FaultPlan is injected.
SITE_ENGINE_WORKER = register_fault_site(
    "engine.worker", "inside a ParallelGradientEngine shard task, before computing"
)
SITE_ENGINE_REDUCE = register_fault_site(
    "engine.reduce", "on the coordinator, after the join and before the daxpy reduction"
)
SITE_PREFETCH_LOAD = register_fault_site(
    "prefetch.load", "on the loader thread, before load_chunk(i) (per attempt)"
)
SITE_PREFETCH_CHUNK = register_fault_site(
    "prefetch.chunk", "on the loader thread, between a successful load and publish"
)

#: Batch cells (rows × input width) from which a gradient call dispatches
#: its shards to the slot threads; smaller calls run them on the calling
#: thread, and ``make_engine("auto")`` builds no engine for them.  Measured
#: at W=2 on a 2-core host with the GIL on (docs/parallelism.md), the
#: crossover moves with layer width: narrow 256→128 layers cross near
#: 50–65k cells, wide 576→400 ones below 23k; this value sits between.
AUTO_SERIAL_CUTOFF = 1 << 15


class ExecutorClosedError(ConfigurationError):
    """Work was submitted to an engine after :meth:`close`."""


class _WorkerSlot(threading.Thread):
    """One pool thread with a fixed slot index and a private workspace.

    Slot binding (shard *i* → thread *i*) is what a generic thread pool
    cannot give us: the workspace thread guard requires every arena to be
    touched by exactly one thread, and determinism requires shard *i* to
    draw from RNG stream *i* every step.  Each slot runs a classic
    task-queue loop; results travel back through ``concurrent.futures``
    futures.  The thread starts on the slot's first hand-off, so an
    engine whose calls all run inline never starts one.
    """

    def __init__(self, index: int, engine_name: str):
        super().__init__(name=f"{engine_name}-worker-{index}", daemon=True)
        self.index = index
        self.workspace = Workspace(name=f"{engine_name}.worker{index}")
        self._tasks: "queue.SimpleQueue" = queue.SimpleQueue()

    def run(self) -> None:
        while True:
            item = self._tasks.get()
            if item is None:
                return
            fn, args, kwargs, future = item
            if not future.set_running_or_notify_cancel():  # pragma: no cover
                continue
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # propagate to the coordinator
                future.set_exception(exc)

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        if self.ident is None:
            self.start()
        future: Future = Future()
        self._tasks.put((fn, args, kwargs, future))
        return future

    def shutdown(self) -> None:
        self._tasks.put(None)


class _InlineSlot:
    """Slot *i* as seen by a shard task run on the calling thread.

    Same index (fault-site label and output arrays) as the slot thread,
    but the coordinator's inline arena in place of the slot's workspace,
    which stays pinned to the slot thread.  The inline shards share that
    arena safely: they run in turn, and each parks its result in its
    slot's output arrays before the next one starts.
    """

    __slots__ = ("index", "workspace")

    def __init__(self, index: int, workspace: Workspace):
        self.index = index
        self.workspace = workspace


class _ShardPlan:
    """One model's shard protocol, resolved once per engine.

    Everything a :meth:`ParallelGradientEngine.gradients` call on the
    model reuses: its fault-site labels and batch widths, the
    coordinator's reduce targets, and every slot's output arrays — the
    shard gradients and, for a model with a prepass, its statistic.
    ``alloc(tag, shape)`` returns ``(handle, array)``; the handles
    (``*_ids``) are how a transport names the arrays to its workers.
    """

    def __init__(self, model, n_slots: int, alloc: Callable):
        self.model = model  # strong ref: keeps id(model) stable
        self.kind = model.shard_kind
        self.pre_kind = f"{self.kind}.prepass"
        self.widths = tuple(int(w) for w in model.batch_widths())
        shapes = [np.shape(p) for p in model.parameters()]
        self.acc = [np.empty(shape) for shape in shapes]
        slots = [
            [alloc(f"g{j}.w{i}", shape) for j, shape in enumerate(shapes)]
            for i in range(n_slots)
        ]
        self.out_ids = [[h for h, _ in slot] for slot in slots]
        self.outs = [[a for _, a in slot] for slot in slots]
        prepass = getattr(model, "prepass_shape", None)
        pre_shape = None if prepass is None else prepass()
        self.pre_id = self.pre = self.pre_out_ids = self.pre_outs = None
        if pre_shape is not None:
            self.pre_id, self.pre = alloc("pre", pre_shape)
            pres = [alloc(f"pre.w{i}", pre_shape) for i in range(n_slots)]
            self.pre_out_ids = [h for h, _ in pres]
            self.pre_outs = [a for _, a in pres]


class ParallelGradientEngine:
    """Data-parallel gradient execution across W slot-bound worker threads.

    Parameters
    ----------
    n_workers:
        Worker thread count; defaults to the affinity-visible core count.
    blas_threads:
        BLAS threads *per process* while the engine is open.  The default
        ``"auto"`` caps the BLAS pools at ``cores // n_workers`` (via
        :func:`repro.runtime.threads.recommended_blas_threads`) so the
        outer worker level and the inner GEMM level never oversubscribe
        the machine; pass ``None`` to leave BLAS untouched, or an int to
        pin explicitly.
    seed:
        Root seed for the per-worker RNG streams (CD-1 sampling).  Worker
        *i* owns stream *i*; runs are reproducible at fixed ``n_workers``.
    name:
        Label used for thread and workspace names in error messages.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        blas_threads="auto",
        seed: SeedLike = 0,
        name: str = "engine",
    ):
        if n_workers is None:
            n_workers = available_cores()
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self.name = str(name)
        self.n_workers = int(n_workers)
        if blas_threads == "auto":
            blas_threads = (
                recommended_blas_threads(self.n_workers) if self.n_workers > 1 else None
            )
        self.blas_threads = blas_threads
        self._streams = spawn_streams(seed, self.n_workers)
        self._coord_ws = Workspace(name=f"{self.name}.coordinator")
        self._plans: Dict[int, _ShardPlan] = {}
        self._closed = False
        self.n_steps = 0
        self._start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start(self) -> None:
        """Pin the BLAS pools and set up the slots (threads start lazily)."""
        self._blas_guard = None
        if self.blas_threads is not None:
            self._blas_guard = blas_thread_limit(self.blas_threads)
            self._blas_guard.__enter__()
        self._slots = [_WorkerSlot(i, self.name) for i in range(self.n_workers)]
        inline_ws = Workspace(name=f"{self.name}.inline")
        self._inline = [_InlineSlot(i, inline_ws) for i in range(self.n_workers)]

    def close(self) -> None:
        """Stop the worker threads and restore the BLAS thread limits."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            slot.shutdown()
        for slot in self._slots:
            if slot.ident is not None:
                slot.join()
        if self._blas_guard is not None:
            self._blas_guard.__exit__(None, None, None)
            self._blas_guard = None

    def __enter__(self) -> "ParallelGradientEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def coordinator_workspace(self) -> Workspace:
        """The coordinator-thread arena used for synchronized updates.

        :class:`repro.train.loop.ModelStep` follows every gradient call
        with ``apply_update(..., workspace=coordinator_workspace)``, so
        the update allocates nothing after its first step.
        """
        return self._coord_ws

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutorClosedError(f"{self.name} has been closed")

    # ------------------------------------------------------------------
    # RNG stream snapshots (crash-consistent checkpoint/resume)
    # ------------------------------------------------------------------
    def capture_rng_streams(self) -> List[dict]:
        """Exact positions of the W worker streams (JSON-serialisable).

        Saved into training checkpoints so a resumed run draws the same
        Gibbs samples the uninterrupted run would have — bit-identical
        resume requires the streams, not just the parameters.
        """
        from repro.runtime.checkpoint import capture_streams

        return capture_streams(self._streams)

    def restore_rng_streams(self, states: Sequence[dict]) -> None:
        """Rewind the worker streams to a :meth:`capture_rng_streams` snapshot.

        The checkpointed worker count must equal ``n_workers`` — resume at
        a different W would change shard↔stream binding and break the
        bit-exactness guarantee, so it raises instead.
        """
        from repro.runtime.checkpoint import restore_streams_into

        restore_streams_into(self._streams, states)

    # ------------------------------------------------------------------
    # the coordinator (shared by every engine; transports override the
    # hooks in the next section)
    # ------------------------------------------------------------------
    def gradients(self, model, *batch: np.ndarray, out=None, **options):
        """Full-batch loss and gradient of ``model`` on ``batch``, data-parallel.

        ``model`` speaks the *shard protocol* (see
        :class:`~repro.nn.autoencoder.SparseAutoencoder`,
        :class:`~repro.nn.rbm.RBM`, :class:`~repro.nn.mlp.DeepNetwork`):

        * ``shard_kind`` — the ``engine.worker``/``engine.reduce`` label;
        * ``parameters()`` — the trainable arrays in a fixed order; the
          gradient pieces have the same shapes;
        * ``bind_parameters(arrays)`` — adopt arrays without copying (the
          process engine binds its workers' copies to shared memory);
        * ``batch_widths()`` — one width per batch array;
        * ``shard_gradients(workspace, out, *shard, pre=None, rng=None,
          **options)`` — write the shard's gradient pieces into ``out``
          and return its loss;
        * ``shard_result(loss, grads)`` — pack the reduced pieces;
        * optionally ``prepass_shape()`` and ``shard_prepass(workspace,
          out, *shard)`` — a per-shard statistic whose ``mᵢ/m``-weighted
          reduce every shard then receives as ``pre`` (with one shard the
          prepass is skipped and ``pre`` is ``None``).

        The coordinator validates the batch, splits its rows into balanced
        contiguous shards, maps shard *i* to slot *i* with RNG stream *i*,
        and reduces the pieces in slot order with weights ``mᵢ/m`` — into
        ``out`` (a sequence of arrays in ``parameters()`` order) when
        given, else into per-model engine accumulators that the next call
        on the model overwrites.  A single shard writes those result
        arrays itself and there is nothing to reduce (the process engine
        still parks it in shared memory first).  ``options`` reach every
        ``shard_gradients`` call.
        """
        self._check_open()
        plan = self._plans.get(id(model))
        if plan is None:
            plan = self._plans[id(model)] = self._plan(model)
        batch = self._as_batches(batch, plan.widths)
        m = batch[0].shape[0]
        staged = self._stage(plan, batch)
        grads = plan.acc if out is None else out
        if min(self.n_workers, m) == 1 and self._lone_shard_in_place:
            # One shard, on the calling thread, straight into the result
            # arrays: nothing to split, weigh or reduce.
            loss = float(self._shard_task(
                self._inline[0], plan, staged, None, grads, self._streams[0], options
            ))
            fault_point(SITE_ENGINE_REDUCE, kind=plan.kind)
        else:
            shards = self._shards(m)
            weights = [(stop - start) / m for start, stop in shards]
            k = len(shards)
            pre = None
            if plan.pre is not None and k > 1:
                self._run_prepass(plan, staged, shards)
                pre = self._reduce(plan.pre_outs[:k], weights, plan.pre)
            losses = self._run_shards(plan, staged, shards, pre, options)
            fault_point(SITE_ENGINE_REDUCE, kind=plan.kind)
            loss = float(sum(w * l for w, l in zip(weights, losses)))
            for j, target in enumerate(grads):
                self._reduce([slot[j] for slot in plan.outs[:k]], weights, target)
        self.n_steps += 1
        return model.shard_result(loss, grads)

    def _shards(self, m: int) -> List[Tuple[int, int]]:
        """Balanced contiguous [start, stop) split of ``m`` rows.

        Contiguous slices keep every shard a C-contiguous view (no copy),
        and the first ``m % k`` shards take the extra row — the static
        OpenMP-style schedule of the paper's outer loops.
        """
        k = min(self.n_workers, m)
        base, extra = divmod(m, k)
        bounds: List[Tuple[int, int]] = []
        start = 0
        for i in range(k):
            stop = start + base + (1 if i < extra else 0)
            bounds.append((start, stop))
            start = stop
        return bounds

    @staticmethod
    def _reduce(
        pieces: Sequence[np.ndarray], weights: Sequence[float], out: np.ndarray
    ) -> np.ndarray:
        """``out = Σ wᵢ·pieceᵢ`` in slot order — deterministic daxpy chain."""
        np.multiply(pieces[0], weights[0], out=out)
        for piece, weight in zip(pieces[1:], weights[1:]):
            axpy_into(piece, out, weight)
        return out

    @staticmethod
    def _as_batches(batch: Sequence, widths: Tuple[int, ...]) -> List[np.ndarray]:
        if len(batch) != len(widths):
            raise ConfigurationError(
                f"expected {len(widths)} batch array(s), got {len(batch)}"
            )
        parts = []
        for j, (part, width) in enumerate(zip(batch, widths)):
            part = np.asarray(part, dtype=np.float64)
            if part.ndim != 2 or part.shape[1] != width or part.shape[0] == 0:
                raise ConfigurationError(
                    f"batch[{j}] must be (m, {width}) with m >= 1, got {part.shape}"
                )
            if parts and part.shape[0] != parts[0].shape[0]:
                raise ConfigurationError(
                    f"batch[{j}] has {part.shape[0]} rows but batch[0] has "
                    f"{parts[0].shape[0]}"
                )
            if not part.flags["C_CONTIGUOUS"]:
                part = np.ascontiguousarray(part)
            parts.append(part)
        return parts

    # ------------------------------------------------------------------
    # transport: slot threads, or the calling thread for small calls
    # ------------------------------------------------------------------
    #: A lone shard writes the call's result arrays on the calling thread
    #: (the process engine's workers can write only shared memory).
    _lone_shard_in_place = True

    def _plan(self, model) -> _ShardPlan:
        # A lone shard needs no slot arrays, so a W=1 engine allocates none.
        n_slots = self.n_workers if self.n_workers > 1 else 0
        return _ShardPlan(model, n_slots, lambda tag, shape: (None, np.empty(shape)))

    def _stage(self, plan: _ShardPlan, batch: List[np.ndarray]):
        """Make ``batch`` visible to the workers; threads share it as is."""
        return batch

    def _run_prepass(self, plan: _ShardPlan, batch, shards) -> None:
        self._map_shards(
            self._prepass_task, batch[0],
            [(plan, [part[lo:hi] for part in batch]) for lo, hi in shards],
        )

    def _run_shards(self, plan: _ShardPlan, batch, shards, pre, options) -> List:
        return self._map_shards(
            self._shard_task, batch[0],
            [
                (plan, [part[lo:hi] for part in batch], pre, out, stream, options)
                for (lo, hi), out, stream in zip(shards, plan.outs, self._streams)
            ],
        )

    def _map_shards(
        self, task: Callable, batch: np.ndarray, per_shard_args: Sequence[tuple]
    ) -> List:
        """``[task(slot_i, *per_shard_args[i]) for each shard i]``, in slot order.

        A ``batch`` of fewer than :data:`AUTO_SERIAL_CUTOFF` cells runs the
        tasks in turn on the calling thread (as :meth:`gradients` runs a
        lone shard); otherwise shard *i* runs on slot thread *i*.  Every
        shard is joined before a failure is re-raised, so no slot thread
        is still writing its output arrays when the caller sees the
        exception.
        """
        if batch.size < AUTO_SERIAL_CUTOFF:
            return [
                task(slot, *args) for slot, args in zip(self._inline, per_shard_args)
            ]
        futures = [
            slot.submit(task, slot, *args)
            for slot, args in zip(self._slots, per_shard_args)
        ]
        wait(futures)
        return [f.result() for f in futures]

    @staticmethod
    def _prepass_task(slot: _WorkerSlot | _InlineSlot, plan: _ShardPlan, shard) -> None:
        fault_point(SITE_ENGINE_WORKER, worker=slot.index, kind=plan.pre_kind)
        plan.model.shard_prepass(slot.workspace, plan.pre_outs[slot.index], *shard)

    @staticmethod
    def _shard_task(
        slot: _WorkerSlot | _InlineSlot,
        plan: _ShardPlan,
        shard: List[np.ndarray],
        pre: Optional[np.ndarray],
        out: Sequence[np.ndarray],
        rng: np.random.Generator,
        options: dict,
    ) -> float:
        fault_point(SITE_ENGINE_WORKER, worker=slot.index, kind=plan.kind)
        return plan.model.shard_gradients(
            slot.workspace, out, *shard, pre=pre, rng=rng, **options
        )

    # ------------------------------------------------------------------
    # per-model entry points: ModelStep calls these for RBMs and networks
    # ------------------------------------------------------------------
    def cd_gradients(self, rbm, v0: np.ndarray, k: int = 1, sample_visible: bool = False):
        """Data-parallel CD-k statistics with deterministic worker streams.

        Shard *i* samples its Gibbs chain from engine stream *i*, so the
        result is bit-reproducible at fixed ``n_workers`` and exactly
        equals running the same shards serially with the same streams
        (the oracle the test suite checks).  Statistics land in engine
        accumulators — apply or copy before the next engine call.
        """
        return self.gradients(rbm, v0, k=k, sample_visible=sample_visible)

    def supervised_gradients(self, network, x: np.ndarray, targets: np.ndarray):
        """Data-parallel back-propagation through a :class:`~repro.nn.mlp.DeepNetwork`.

        Matches the serial full-batch gradient to ≤1e-10 (losses and the
        per-layer weight-decay terms all carry shard weights summing to
        one).  Gradients land in engine accumulators.
        """
        return self.gradients(network, x, targets)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ParallelGradientEngine({self.name!r}, n_workers={self.n_workers}, "
            f"blas_threads={self.blas_threads}, {self.n_steps} steps, {state})"
        )


def serial_engine(rng: Optional[np.random.Generator] = None) -> ParallelGradientEngine:
    """The W=1 engine a serial training run goes through.

    Its one shard runs on the calling thread and writes the result arrays
    in place, and its only RNG stream *is* ``rng`` — the run's shuffle
    generator, the same object — so CD chains draw exactly what the
    direct kernels drew from it (with ``None``, from the model's own
    generator).  It starts no thread and pins no BLAS pool: it needs no
    ``close``.
    """
    engine = ParallelGradientEngine(1, blas_threads=None, name="serial")
    engine._streams = [rng]
    return engine


# ---------------------------------------------------------------------------
# background chunk prefetcher (paper Fig. 5, executable)
# ---------------------------------------------------------------------------

class PrefetchError(ConfigurationError):
    """The loader thread raised; re-raised on the consumer side."""


class ChunkPrefetcher:
    """Background loader thread with a bounded multi-buffer chunk queue.

    "While the loading thread is loading data into the i-th data chunk,
    our training thread can use the (i−1)-th data chunk to train."  The
    loader calls ``load_chunk(i)`` for ``i in range(n_chunks)``; a slot
    semaphore of ``n_buffers`` permits enforces the paper's finite staging
    buffer — a permit is held from the moment chunk *i*'s load begins
    until the consumer has *finished computing* on chunk *i*, which is
    precisely the slot rule of the analytic
    :meth:`~repro.runtime.offload.OffloadPipeline.run_analytic`
    recurrence, so the measured :meth:`timeline` is directly comparable.

    Use as a context manager and iterate::

        with ChunkPrefetcher(load, n_chunks=10, n_buffers=2) as pf:
            for chunk in pf:
                train_on(chunk)
        tl = pf.timeline()     # measured OffloadTimeline

    Loader exceptions surface in the consuming thread as
    :class:`PrefetchError` — even when the loader dies *between* a slot
    acquire and the publish (the failure path shuts the pipeline down
    cleanly instead of leaving the consumer blocked on an empty queue).
    Breaking out of the loop early (or an exception in the training code)
    stops the loader at the next chunk boundary and :meth:`close` joins it.

    ``retries`` > 0 re-attempts a failed ``load_chunk(i)`` call with
    exponential backoff (``retry_backoff_s``, doubling per attempt) before
    declaring the chunk lost — the paper's PCIe staging link is exactly
    the kind of level where transient faults are worth absorbing.
    """

    def __init__(
        self,
        load_chunk: Callable[[int], object],
        n_chunks: int,
        n_buffers: int = 2,
        name: str = "prefetch",
        clock: Callable[[], float] = time.perf_counter,
        retries: int = 0,
        retry_backoff_s: float = 0.02,
    ):
        if n_chunks < 1:
            raise ConfigurationError(f"n_chunks must be >= 1, got {n_chunks}")
        if n_buffers < 1:
            raise ConfigurationError(f"n_buffers must be >= 1, got {n_buffers}")
        if retries < 0 or retry_backoff_s < 0:
            raise ConfigurationError("retries and retry_backoff_s must be >= 0")
        self._load = load_chunk
        self.n_chunks = int(n_chunks)
        self.n_buffers = int(n_buffers)
        self.name = str(name)
        self.retries = int(retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.load_attempts = 0
        self._clock = clock
        # The slot/semaphore discipline lives in the shared
        # BoundedSlotQueue (extracted from this class — see
        # repro.runtime.slotqueue); the prefetcher keeps the chunk
        # bookkeeping, retries, and timeline measurement.
        self._sq = BoundedSlotQueue(self.n_buffers, name=f"{self.name}-slots")
        self._thread: Optional[threading.Thread] = None
        self._t0: Optional[float] = None
        self._consumed = 0
        n = self.n_chunks
        self._transfer_start: List[Optional[float]] = [None] * n
        self._transfer_end: List[Optional[float]] = [None] * n
        self._compute_start: List[Optional[float]] = [None] * n
        self._compute_end: List[Optional[float]] = [None] * n

    # ------------------------------------------------------------------
    def start(self) -> "ChunkPrefetcher":
        """Launch the loader thread (idempotent; ``__iter__`` calls it)."""
        if self._thread is None:
            self._t0 = self._clock()
            self._thread = threading.Thread(
                target=self._loader, name=f"{self.name}-loader", daemon=True
            )
            self._thread.start()
        return self

    def _now(self) -> float:
        return self._clock() - self._t0

    def _load_with_retries(self, i: int):
        """One chunk load with bounded exponential-backoff retries."""
        delay = self.retry_backoff_s
        for attempt in range(self.retries + 1):
            try:
                fault_point(SITE_PREFETCH_LOAD, chunk=i, attempt=attempt)
                self.load_attempts += 1
                return self._load(i)
            except Exception:
                # Only plain Exceptions are considered transient; the last
                # attempt's failure propagates to the consumer unchanged.
                if attempt == self.retries or self._sq.closed:
                    raise
                time.sleep(delay)
                delay *= 2.0

    def _loader(self) -> None:
        # The whole loop body is guarded: *any* failure on the loader
        # thread — the load itself, an injected fault between slot-acquire
        # and publish, even the timestamp clock — must end with the error
        # sentinel on the queue, never with a silently dead thread while
        # the consumer blocks on queue.get() forever.
        try:
            for i in range(self.n_chunks):
                # The polled slot acquire lets close() interrupt a stalled
                # loader (consumer gone, all buffers full).
                if not self._sq.acquire():
                    return
                if self._sq.closed:
                    return
                self._transfer_start[i] = self._now()
                data = self._load_with_retries(i)
                data = fault_transform(SITE_PREFETCH_CHUNK, data, chunk=i)
                self._transfer_end[i] = self._now()
                self._sq.put((i, data))
        except BaseException as exc:
            self._sq.put_error(exc)

    def __enter__(self) -> "ChunkPrefetcher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the loader (releasing it from any stall) and join it."""
        self._sq.close()
        if self._thread is not None:
            self._thread.join()

    # ------------------------------------------------------------------
    def _next_item(self):
        """Blocking queue get that cannot outlive the loader thread.

        The underlying :class:`~repro.runtime.slotqueue.BoundedSlotQueue`
        polls with a timeout and detects a loader found dead with the
        queue empty (it should be impossible to die without publishing
        the error sentinel, but a hard kill can do it); both failure
        shapes are translated to :class:`PrefetchError` here instead of
        blocking forever.
        """
        alive = None if self._thread is None else self._thread.is_alive
        try:
            return self._sq.get(producer_alive=alive)
        except SlotQueueProducerFailed:
            raise PrefetchError(
                f"{self.name} loader failed on chunk "
                f"{self._consumed}: {self._sq.error!r}"
            ) from self._sq.error
        except (SlotQueueProducerDead, SlotQueueClosed):
            raise PrefetchError(
                f"{self.name} loader thread died without publishing "
                f"chunk {self._consumed}"
            ) from self._sq.error

    def __iter__(self):
        self.start()
        for _ in range(self.n_chunks):
            index, data = self._next_item()
            self._compute_start[index] = self._now()
            try:
                yield data
            finally:
                self._compute_end[index] = self._now()
                self._consumed += 1
                self._sq.release()

    # ------------------------------------------------------------------
    @property
    def chunks_consumed(self) -> int:
        return self._consumed

    def timeline(self) -> OffloadTimeline:
        """Measured pipeline timeline in the simulator's vocabulary.

        Requires the full iteration to have completed, so the overlap
        statistics (:attr:`~repro.runtime.offload.OffloadTimeline.trainer_idle_s`,
        exposed-transfer fractions) are comparable to
        :meth:`OffloadPipeline.run_analytic
        <repro.runtime.offload.OffloadPipeline.run_analytic>` on the same
        chunk parameters.
        """
        if self._consumed < self.n_chunks:
            raise ConfigurationError(
                f"timeline() needs all {self.n_chunks} chunks consumed, "
                f"got {self._consumed}"
            )
        events = [
            ChunkEvent(
                i,
                self._transfer_start[i],
                self._transfer_end[i],
                self._compute_start[i],
                self._compute_end[i],
            )
            for i in range(self.n_chunks)
        ]
        return OffloadTimeline(
            chunks=events,
            total_s=self._compute_end[self.n_chunks - 1],
            transfer_total_s=sum(
                e.transfer_end - e.transfer_start for e in events
            ),
            compute_total_s=sum(
                e.compute_end - e.compute_start for e in events
            ),
        )

    def __repr__(self) -> str:
        return (
            f"ChunkPrefetcher({self.name!r}, {self._consumed}/{self.n_chunks} "
            f"chunks, n_buffers={self.n_buffers})"
        )
