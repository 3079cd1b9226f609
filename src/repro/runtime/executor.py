"""Real shared-memory parallel training executor (paper §IV.A–B, Figs. 5–6).

Everything else under :mod:`repro.runtime` *models* the paper's
concurrency; this module *executes* it.  Three pieces:

* :class:`ParallelGradientEngine` — a pool of slot-bound worker threads
  that splits each mini-batch into W shards.  Each shard computes
  through the existing fused kernels
  (:meth:`~repro.nn.autoencoder.SparseAutoencoder.gradients_into`,
  workspace-backed :meth:`~repro.nn.rbm.RBM.contrastive_divergence`,
  :meth:`~repro.nn.mlp.DeepNetwork.gradients_into`).  Shard gradients
  are reduced with ``daxpy`` into shared accumulators **in worker-index
  order** (deterministic floating point), then one ``apply_update`` runs
  on the coordinator — the paper's synchronized layer-wise update, and
  the worker-private-gradient scheme of CHAOS (Viebke et al.,
  arXiv:1702.07908).

  Where the shards run is decided per call by the batch's size (the
  paper's "Improved OpenMP+MKL" step coarsens parallel regions until
  fork/join stops dominating).  From :data:`AUTO_SERIAL_CUTOFF` batch
  cells up, shard *i* runs on slot thread *i* in a worker-private
  :class:`~repro.runtime.workspace.Workspace`; NumPy/BLAS release the
  GIL inside the GEMMs, so the shards overlap on separate cores.  Below
  it, or with a single shard, the same shard tasks run in slot order on
  the calling thread, in one coordinator-owned arena: at that size the
  queue hand-offs and the GIL convoy between the workers cost more than
  the overlap saves.  Both paths compute bit-identical results.

* :class:`ChunkPrefetcher` — the executable twin of the *simulated*
  :class:`~repro.runtime.offload.OffloadPipeline` (paper Fig. 5): a
  dedicated loader thread stages data chunks into a bounded multi-buffer
  queue while the training thread consumes them, and the measured
  timeline is reported in the exact same
  :class:`~repro.runtime.offload.OffloadTimeline` vocabulary so the two
  can be cross-checked on identical chunk parameters.

* :meth:`TaskGraph.execute <repro.runtime.taskgraph.TaskGraph.execute>`
  accepts either a standard executor or this engine as its pool, running
  Fig. 6 wavefronts concurrently (see :mod:`repro.runtime.taskgraph`).

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
        #: per-slot persistent reduction buffers, keyed by (tag, shape)
        self.outputs: Dict[Tuple, np.ndarray] = {}
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

    def out(self, tag: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Slot-private plain array for handing results to the coordinator.

        Unlike workspace buffers these are *meant* to cross the thread
        boundary: the worker writes them, then the coordinator reads them
        after joining the step's futures (a happens-before edge).  An
        inline shard *i* writes slot *i*'s arrays from the calling thread.
        """
        key = (tag, tuple(int(s) for s in shape))
        arr = self.outputs.get(key)
        if arr is None:
            arr = np.empty(key[1])
            self.outputs[key] = arr
        return arr


class _InlineSlot:
    """Slot *i* as seen by a shard task run on the calling thread.

    Same index (fault-site label) and same ``out()`` arrays as the slot
    thread, but the coordinator's inline arena in place of the slot's
    workspace, which stays pinned to the slot thread.  The inline shards
    share that arena safely: they run in turn, and each parks its result
    in its slot's ``out()`` arrays before the next one starts.
    """

    __slots__ = ("index", "workspace", "out")

    def __init__(self, slot: _WorkerSlot, workspace: Workspace):
        self.index = slot.index
        self.workspace = workspace
        self.out = slot.out


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
        self._blas_guard = None
        if blas_threads is not None:
            self._blas_guard = blas_thread_limit(blas_threads)
            self._blas_guard.__enter__()
        self._slots = [_WorkerSlot(i, self.name) for i in range(self.n_workers)]
        inline_ws = Workspace(name=f"{self.name}.inline")
        self._inline = [_InlineSlot(slot, inline_ws) for slot in self._slots]
        self._streams = spawn_streams(seed, self.n_workers)
        self._coord_ws = Workspace(name=f"{self.name}.coordinator")
        self._acc: Dict[Tuple, np.ndarray] = {}
        self._rr = 0
        self._closed = False
        self.n_steps = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
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

        ``*_step`` apply through this workspace; callers that split a
        step into ``*_gradients`` + ``apply_update`` (the unified
        :class:`repro.train.loop.TrainLoop` does, to time the apply
        phase separately) must use the same arena to stay allocation-free
        and bit-identical to the fused ``*_step`` calls.
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
    # generic submission (used by TaskGraph.execute)
    # ------------------------------------------------------------------
    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        """Run ``fn`` on the next worker slot (round-robin); returns a future."""
        self._check_open()
        slot = self._slots[self._rr % self.n_workers]
        self._rr += 1
        return slot.submit(fn, *args, **kwargs)

    def run_tasks(self, fns: Sequence[Callable]) -> List:
        """Execute callables concurrently across the slots; ordered results."""
        futures = [self.submit(fn) for fn in fns]
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    # shard plumbing
    # ------------------------------------------------------------------
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

    def _accumulator(self, tag: str, shape: Tuple[int, ...]) -> np.ndarray:
        key = (tag, tuple(int(s) for s in shape))
        arr = self._acc.get(key)
        if arr is None:
            arr = np.empty(key[1])
            self._acc[key] = arr
        return arr

    @staticmethod
    def _reduce(
        pieces: Sequence[np.ndarray], weights: Sequence[float], out: np.ndarray
    ) -> np.ndarray:
        """``out = Σ wᵢ·pieceᵢ`` in slot order — deterministic daxpy chain."""
        np.multiply(pieces[0], weights[0], out=out)
        for piece, weight in zip(pieces[1:], weights[1:]):
            axpy_into(piece, out, weight)
        return out

    def _map_shards(
        self, task: Callable, batch: np.ndarray, per_shard_args: Sequence[tuple]
    ) -> List:
        """``[task(slot_i, *per_shard_args[i]) for each shard i]``, in slot order.

        One shard, or a ``batch`` of fewer than :data:`AUTO_SERIAL_CUTOFF`
        cells, runs the tasks in turn on the calling thread; otherwise
        shard *i* runs on slot thread *i*.  Every shard is joined before a
        failure is re-raised, so no slot thread is still writing its
        ``out()`` arrays when the caller sees the exception.
        """
        if len(per_shard_args) == 1 or batch.size < AUTO_SERIAL_CUTOFF:
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
    def _as_batch(x: np.ndarray, width: int, label: str) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != width or x.shape[0] == 0:
            raise ConfigurationError(
                f"{label} must be (m, {width}) with m >= 1, got {x.shape}"
            )
        if not x.flags["C_CONTIGUOUS"]:
            x = np.ascontiguousarray(x)
        return x

    # ------------------------------------------------------------------
    # sparse autoencoder
    # ------------------------------------------------------------------
    def sae_gradients(
        self,
        model: SparseAutoencoder,
        x: np.ndarray,
        out: Optional[AutoencoderGradients] = None,
    ) -> Tuple[float, AutoencoderGradients]:
        """Full-batch loss and gradient of ``model`` on ``x``, data-parallel.

        Equals the serial :meth:`~repro.nn.autoencoder.SparseAutoencoder.gradients`
        to ≤1e-10: shard gradients are exact shard restrictions of the
        batch objective (the weight-decay term carries weight ``mᵢ/m``
        which sums to one), and when the KL sparsity penalty is active a
        first parallel pass combines the shard hidden means into the
        *global* ρ̂ before the gradient pass (two-phase protocol).

        ``out`` receives the reduced gradients (e.g. flat-gradient views);
        omitted, they land in engine-owned accumulators that the next
        engine call may overwrite.
        """
        from repro.nn.autoencoder import AutoencoderGradients

        self._check_open()
        x = self._as_batch(x, model.n_visible, "x")
        m = x.shape[0]
        shards = self._shards(m)
        weights = [(stop - start) / m for start, stop in shards]
        if out is None:
            h, v = model.n_hidden, model.n_visible
            out = AutoencoderGradients(
                self._accumulator("sae.w1", (h, v)),
                self._accumulator("sae.b1", (h,)),
                self._accumulator("sae.w2", (v, h)),
                self._accumulator("sae.b2", (v,)),
            )

        rho_global: Optional[np.ndarray] = None
        if model.cost.sparsity_weight > 0.0 and len(shards) > 1:
            # Phase A: per-shard hidden means, combined into the batch ρ̂.
            rhos = self._map_shards(
                self._sae_rho_task, x,
                [(model, x[start:stop]) for start, stop in shards],
            )
            rho_global = self._reduce(
                rhos, weights, self._accumulator("sae.rho", (model.n_hidden,))
            )

        results = self._map_shards(
            self._sae_grad_task, x,
            [(model, x[start:stop], rho_global) for start, stop in shards],
        )
        fault_point(SITE_ENGINE_REDUCE, kind="sae")
        loss = float(sum(w * r[0] for w, r in zip(weights, results)))
        self._reduce([r[1].w1 for r in results], weights, out.w1)
        self._reduce([r[1].b1 for r in results], weights, out.b1)
        self._reduce([r[1].w2 for r in results], weights, out.w2)
        self._reduce([r[1].b2 for r in results], weights, out.b2)
        self.n_steps += 1
        return loss, out

    @staticmethod
    def _sae_rho_task(
        slot: _WorkerSlot | _InlineSlot, model: SparseAutoencoder, shard: np.ndarray
    ):
        fault_point(SITE_ENGINE_WORKER, worker=slot.index, kind="sae.rho")
        return model.mean_hidden_into(
            shard, slot.workspace, out=slot.out("sae.rho", (model.n_hidden,))
        )

    @staticmethod
    def _sae_grad_task(
        slot: _WorkerSlot | _InlineSlot,
        model: SparseAutoencoder,
        shard: np.ndarray,
        rho_global: Optional[np.ndarray],
    ):
        from repro.nn.autoencoder import AutoencoderGradients

        fault_point(SITE_ENGINE_WORKER, worker=slot.index, kind="sae")
        h, v = model.n_hidden, model.n_visible
        grads = AutoencoderGradients(
            slot.out("sae.gw1", (h, v)),
            slot.out("sae.gb1", (h,)),
            slot.out("sae.gw2", (v, h)),
            slot.out("sae.gb2", (v,)),
        )
        loss, grads = model.gradients_into(
            shard, slot.workspace, out=grads, rho_hat=rho_global
        )
        return loss, grads

    def sae_step(
        self, model: SparseAutoencoder, x: np.ndarray, learning_rate: float
    ) -> float:
        """One synchronized parallel SGD step; returns the batch loss."""
        loss, grads = self.sae_gradients(model, x)
        model.apply_update(grads, learning_rate, workspace=self._coord_ws)
        return loss

    def flat_objective(self, model: SparseAutoencoder) -> Callable:
        """``objective(theta, batch) -> (loss, grad)`` for :class:`repro.optim.sgd.SGD`.

        Adopts ``theta`` through the model's flat views (no save/restore
        copies) and reduces the parallel shard gradients straight into the
        flat gradient storage, so the whole SGD loop runs data-parallel
        without SGD knowing.
        """
        model.enable_flat_views()

        def objective(theta: np.ndarray, batch: np.ndarray):
            np.copyto(model._flat_theta, np.asarray(theta, dtype=np.float64).ravel())
            loss, _ = self.sae_gradients(model, batch, out=model._flat_grad_views)
            return loss, model._flat_grad

        return objective

    # ------------------------------------------------------------------
    # RBM contrastive divergence
    # ------------------------------------------------------------------
    def cd_gradients(
        self,
        rbm: RBM,
        v0: np.ndarray,
        k: int = 1,
        sample_visible: bool = False,
    ) -> CDStatistics:
        """Data-parallel CD-k statistics with deterministic worker streams.

        Worker *i* samples its Gibbs chain from engine stream *i*, so the
        result is bit-reproducible at fixed ``n_workers`` and exactly
        equals running the same shards serially with the same streams
        (the oracle the test suite checks).  Statistics land in shared
        engine accumulators — apply or copy before the next engine call.
        """
        self._check_open()
        v0 = self._as_batch(v0, rbm.n_visible, "v0")
        m = v0.shape[0]
        shards = self._shards(m)
        weights = [(stop - start) / m for start, stop in shards]
        results = self._map_shards(
            self._cd_task, v0,
            [
                (rbm, v0[start:stop], k, stream, sample_visible)
                for (start, stop), stream in zip(shards, self._streams)
            ],
        )
        fault_point(SITE_ENGINE_REDUCE, kind="rbm")
        nh, nv = rbm.n_hidden, rbm.n_visible
        grad_w = self._reduce([r.grad_w for r in results], weights,
                              self._accumulator("rbm.gw", (nh, nv)))
        grad_b = self._reduce([r.grad_b for r in results], weights,
                              self._accumulator("rbm.gb", (nv,)))
        grad_c = self._reduce([r.grad_c for r in results], weights,
                              self._accumulator("rbm.gc", (nh,)))
        err = float(sum(w * r.reconstruction_error for w, r in zip(weights, results)))
        self.n_steps += 1
        from repro.nn.rbm import CDStatistics

        return CDStatistics(grad_w, grad_b, grad_c, err)

    @staticmethod
    def _cd_task(
        slot: _WorkerSlot | _InlineSlot,
        rbm: RBM,
        shard: np.ndarray,
        k: int,
        stream: np.random.Generator,
        sample_visible: bool,
    ) -> CDStatistics:
        fault_point(SITE_ENGINE_WORKER, worker=slot.index, kind="rbm")
        stats = rbm.contrastive_divergence(
            shard, k=k, rng=stream, sample_visible=sample_visible,
            workspace=slot.workspace,
        )
        # The stats alias workspace buffers; park them in slot-private
        # output arrays so the coordinator may reduce after the join (and
        # the next inline shard may reuse the shared arena).
        gw = slot.out("rbm.gw", stats.grad_w.shape)
        gb = slot.out("rbm.gb", stats.grad_b.shape)
        gc = slot.out("rbm.gc", stats.grad_c.shape)
        np.copyto(gw, stats.grad_w)
        np.copyto(gb, stats.grad_b)
        np.copyto(gc, stats.grad_c)
        from repro.nn.rbm import CDStatistics

        return CDStatistics(gw, gb, gc, stats.reconstruction_error)

    def cd_step(
        self,
        rbm: RBM,
        v0: np.ndarray,
        learning_rate: float,
        k: int = 1,
        sample_visible: bool = False,
    ) -> CDStatistics:
        """One synchronized parallel CD-k update (Eq. 13)."""
        stats = self.cd_gradients(rbm, v0, k=k, sample_visible=sample_visible)
        rbm.apply_update(stats, learning_rate, workspace=self._coord_ws)
        return stats

    # ------------------------------------------------------------------
    # deep network (supervised fine-tuning)
    # ------------------------------------------------------------------
    def supervised_gradients(
        self, network, x: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, List[Tuple[np.ndarray, np.ndarray]]]:
        """Data-parallel back-propagation through a :class:`~repro.nn.mlp.DeepNetwork`.

        Matches the serial full-batch gradient to ≤1e-10 (losses and the
        per-layer weight-decay terms all carry shard weights summing to
        one).  Gradients land in engine accumulators.
        """
        self._check_open()
        x = self._as_batch(x, network.n_in, "x")
        targets = self._as_batch(targets, network.n_out, "targets")
        if targets.shape[0] != x.shape[0]:
            raise ConfigurationError(
                f"x has {x.shape[0]} rows but targets has {targets.shape[0]}"
            )
        m = x.shape[0]
        shards = self._shards(m)
        weights = [(stop - start) / m for start, stop in shards]
        results = self._map_shards(
            self._mlp_task, x,
            [(network, x[start:stop], targets[start:stop]) for start, stop in shards],
        )
        fault_point(SITE_ENGINE_REDUCE, kind="mlp")
        loss = float(sum(w * r[0] for w, r in zip(weights, results)))
        reduced: List[Tuple[np.ndarray, np.ndarray]] = []
        for li, layer in enumerate(network.layers):
            gw = self._reduce(
                [r[1][li][0] for r in results], weights,
                self._accumulator(f"mlp.gw{li}", layer.w.shape),
            )
            gb = self._reduce(
                [r[1][li][1] for r in results], weights,
                self._accumulator(f"mlp.gb{li}", layer.b.shape),
            )
            reduced.append((gw, gb))
        self.n_steps += 1
        return loss, reduced

    @staticmethod
    def _mlp_task(
        slot: _WorkerSlot | _InlineSlot, network, x: np.ndarray, targets: np.ndarray
    ):
        fault_point(SITE_ENGINE_WORKER, worker=slot.index, kind="mlp")
        loss, grads = network.gradients_into(x, targets, slot.workspace)
        parked = []
        for li, (gw, gb) in enumerate(grads):
            pw = slot.out(f"mlp.gw{li}", gw.shape)
            pb = slot.out(f"mlp.gb{li}", gb.shape)
            np.copyto(pw, gw)
            np.copyto(pb, gb)
            parked.append((pw, pb))
        return loss, parked

    def supervised_step(
        self, network, x: np.ndarray, targets: np.ndarray, learning_rate: float
    ) -> float:
        """One synchronized parallel back-propagation update; returns loss."""
        loss, grads = self.supervised_gradients(network, x, targets)
        network.apply_update(grads, learning_rate, workspace=self._coord_ws)
        return loss

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ParallelGradientEngine({self.name!r}, n_workers={self.n_workers}, "
            f"blas_threads={self.blas_threads}, {self.n_steps} steps, {state})"
        )


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
