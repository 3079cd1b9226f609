"""Process-backed shared-memory gradient engine (beats the GIL for real).

:class:`~repro.runtime.executor.ParallelGradientEngine` parallelises with
*threads*: it only wins when BLAS releases the GIL inside large GEMMs.
``BENCH_parallel.json`` shows the failure mode — at W=2 on small shards
the thread engine is *slower* than serial.  This module is the fix: the
same engine protocol, but each worker is a long-lived **process**, so the
shard compute (including all the pure-Python glue around the kernels)
runs on its own core regardless of the GIL.

Design (CHAOS worker-private gradients + the paper's §IV.A–B synchronized
update, carried across process boundaries):

* **Shared-memory arena** — parameters, staged mini-batches, the global
  ρ̂ vector, and every worker's gradient accumulators live in named
  ``multiprocessing.shared_memory`` segments with ``np.ndarray`` views on
  both sides.  The hot path pickles *nothing*: only small control dicts
  (op name, segment indices, shard bounds, an RNG state for CD) cross the
  pipe.  Models are pickled **once** at registration; the worker rebinds
  their parameter arrays to the shared segments, so later parameter
  updates are one coordinator-side ``memcpy`` into the segment.

* **Slot-bound workers** — shard *i* always runs on worker process *i*
  with a worker-private :class:`~repro.runtime.workspace.Workspace` and a
  BLAS budget from :func:`repro.runtime.threads.recommended_blas_threads`
  (env vars are pinned around ``Process.start()`` so spawn children
  configure their BLAS pools before NumPy loads).  The worker entry point
  is the module-level :func:`_worker_main`, so every start method
  (``fork``/``spawn``/``forkserver``) works.

* **Determinism contract** — identical to the thread engine: balanced
  contiguous shards, reduction as a daxpy chain in worker-index order on
  the coordinator, worker *i* draws from RNG stream *i*.  The streams are
  *owned by the coordinator*: a CD task ships stream *i*'s exact state to
  worker *i* and the advanced state travels back, so
  :meth:`capture_rng_streams`/:meth:`restore_rng_streams` (and therefore
  crash-consistent checkpoint/resume) behave byte-for-byte like the
  thread engine.  At fixed W, thread and process engines produce
  bit-identical gradients.

* **Fault sites** — the existing ``engine.worker``/``engine.reduce``
  sites fire on the coordinator (immediately before dispatching worker
  *i*'s shard, and after the join before the reduction), so every chaos
  drill written against the thread engine runs unchanged.

* **Failure containment** — a dead worker process surfaces as
  :class:`EngineError` on the next send/receive (liveness-checked
  polling; never a hang), and :meth:`close` always unlinks every segment.

:func:`make_engine` picks a backend (``"auto"``/``"thread"``/
``"process"``/``"serial"``) from the core count, problem size, and — on
free-threaded builds (PEP 703) — whether the GIL is actually enabled
(see :mod:`repro.runtime.freethreading`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import traceback
import uuid
from concurrent.futures import Future
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.runtime.executor import (
    AUTO_SERIAL_CUTOFF,
    SITE_ENGINE_REDUCE,
    SITE_ENGINE_WORKER,
    ExecutorClosedError,
    ParallelGradientEngine,
)
from repro.runtime.linalg import axpy_into
from repro.runtime.threads import (
    BLAS_ENV_VARS,
    available_cores,
    blas_thread_limit,
    recommended_blas_threads,
)
from repro.runtime.workspace import Workspace
from repro.testing.faults import fault_point
from repro.utils.rng import SeedLike, spawn_streams

#: Prefix of every segment this module creates (the conftest leak guard
#: scans ``/dev/shm`` for it after each test).
SHM_PREFIX = "repro-shm"


class EngineError(ReproError):
    """A worker process died or became unreachable mid-step."""


# ---------------------------------------------------------------------------
# parameter plumbing shared by both sides of the pipe
# ---------------------------------------------------------------------------

def _param_paths(kind: str, model) -> List[Tuple]:
    """Attribute paths of ``model``'s trainable arrays, in a fixed order."""
    if kind == "sae":
        return [("w1",), ("b1",), ("w2",), ("b2",)]
    if kind == "rbm":
        return [("w",), ("b",), ("c",)]
    if kind == "mlp":
        paths: List[Tuple] = []
        for li in range(len(model.layers)):
            paths.append(("layers", li, "w"))
            paths.append(("layers", li, "b"))
        return paths
    raise ConfigurationError(f"unknown model kind {kind!r}")


def _get_param(model, path: Tuple) -> np.ndarray:
    obj = model
    for part in path[:-1]:
        obj = obj[part] if isinstance(part, int) else getattr(obj, part)
    return getattr(obj, path[-1])


def _set_param(model, path: Tuple, value: np.ndarray) -> None:
    obj = model
    for part in path[:-1]:
        obj = obj[part] if isinstance(part, int) else getattr(obj, part)
    setattr(obj, path[-1], value)


# ---------------------------------------------------------------------------
# worker side (module-level, hence spawn-safe)
# ---------------------------------------------------------------------------

def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a coordinator-created segment.

    Workers are ``multiprocessing`` children of a coordinator that
    started the resource tracker before spawning them, so they share its
    tracker process: the attach-side ``register`` (unconditional before
    Python 3.13's ``track=``) is a set no-op there, and workers never
    ``unlink``, so no unregister workaround is needed — calling it would
    instead *remove* the coordinator's registration and break the
    tracker's crash cleanup.
    """
    return shared_memory.SharedMemory(name=name)


def _handle(msg: dict, segments: List[np.ndarray], models: Dict[int, object],
            ws: Workspace):
    """Execute one control message against the attached segment views.

    Pure function of worker-local state — also exercised in-process by the
    unit tests (``segments`` may then be plain arrays).
    """
    op = msg["op"]
    if op == "register":
        model = msg["model_pickle"]
        for path, idx in msg["params"]:
            _set_param(model, tuple(path), segments[idx])
        models[msg["model"]] = model
        return None
    if op == "call":
        fn = msg["fn"]
        return fn(*msg.get("args", ()), **msg.get("kwargs", {}))
    if op not in ("sae_rho", "sae_grad", "cd", "mlp"):
        raise ConfigurationError(f"unknown engine op {op!r}")
    model = models[msg["model"]]
    if op == "sae_rho":
        shard = segments[msg["x"]][msg["lo"]:msg["hi"]]
        model.mean_hidden_into(shard, ws, out=segments[msg["out"]])
        return None
    if op == "sae_grad":
        from repro.nn.autoencoder import AutoencoderGradients

        shard = segments[msg["x"]][msg["lo"]:msg["hi"]]
        rho = None if msg["rho"] is None else segments[msg["rho"]]
        grads = AutoencoderGradients(*(segments[i] for i in msg["out"]))
        loss, _ = model.gradients_into(shard, ws, out=grads, rho_hat=rho)
        return float(loss)
    if op == "cd":
        from repro.runtime.checkpoint import capture_rng, restore_rng

        gen = restore_rng(msg["rng"])
        shard = segments[msg["x"]][msg["lo"]:msg["hi"]]
        stats = model.contrastive_divergence(
            shard, k=msg["k"], rng=gen,
            sample_visible=msg["sample_visible"], workspace=ws,
        )
        gw, gb, gc = (segments[i] for i in msg["out"])
        np.copyto(gw, stats.grad_w)
        np.copyto(gb, stats.grad_b)
        np.copyto(gc, stats.grad_c)
        return float(stats.reconstruction_error), capture_rng(gen)
    # op == "mlp" (the guard above rejects everything else)
    x = segments[msg["x"]][msg["lo"]:msg["hi"]]
    targets = segments[msg["t"]][msg["lo"]:msg["hi"]]
    loss, grads = model.gradients_into(x, targets, ws)
    for (gw, gb), (iw, ib) in zip(grads, msg["out"]):
        np.copyto(segments[iw], gw)
        np.copyto(segments[ib], gb)
    return float(loss)


def _worker_main(index: int, conn, blas_threads: Optional[int], name: str) -> None:
    """Long-lived slot process: receive control messages until ``close``.

    Replies are ``("ok", payload)`` or ``("err", pickled_exc, traceback)``
    — exactly one reply per task message, so the pipes stay aligned even
    through worker-side exceptions.
    """
    if blas_threads is not None:
        try:
            blas_thread_limit(blas_threads).__enter__()
        except Exception:  # pragma: no cover - budget is best-effort
            pass
    ws = Workspace(name=f"{name}.worker{index}")
    segments: List[np.ndarray] = []
    shms: List[shared_memory.SharedMemory] = []
    models: Dict[int, object] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):  # coordinator died: exit quietly
                return
            if msg.get("op") == "close":
                return
            try:
                for seg_name, shape, dtype in msg.get("segments", ()):
                    shm = _attach_segment(seg_name)
                    shms.append(shm)
                    segments.append(
                        np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                                   buffer=shm.buf)
                    )
                reply = ("ok", _handle(msg, segments, models, ws))
            except BaseException as exc:
                try:
                    payload = pickle.dumps(exc)
                except Exception:
                    payload = None
                reply = ("err", payload, traceback.format_exc())
            try:
                conn.send(reply)
            except (EOFError, OSError, ValueError):  # pragma: no cover
                return
    finally:
        del segments, models
        for shm in shms:
            try:
                shm.close()
            except Exception:  # pragma: no cover
                pass


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------

class _SharedArena:
    """Coordinator-owned registry of named shared-memory segments.

    Segments are keyed by ``(tag, shape)`` like the thread engine's
    accumulators and allocated lazily in a global creation order; workers
    learn about new segments through per-message descriptor lists and
    address them by index, so steady-state messages carry only integers.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        #: ``(shm_name, shape, dtype_str)`` in creation order
        self.descriptors: List[Tuple[str, Tuple[int, ...], str]] = []
        self._by_key: Dict[Tuple, Tuple[int, np.ndarray]] = {}
        self._shms: List[shared_memory.SharedMemory] = []

    def get(self, tag: str, shape: Tuple[int, ...],
            dtype=np.float64) -> Tuple[int, np.ndarray]:
        """Index and coordinator view of the segment for ``(tag, shape)``."""
        shape = tuple(int(s) for s in shape)
        hit = self._by_key.get((tag, shape))
        if hit is not None:
            return hit
        dt = np.dtype(dtype)
        index = len(self.descriptors)
        shm = shared_memory.SharedMemory(
            create=True,
            size=max(int(np.prod(shape)) * dt.itemsize, 1),
            name=f"{self.prefix}-{index}",
        )
        view = np.ndarray(shape, dtype=dt, buffer=shm.buf)
        self._shms.append(shm)
        self.descriptors.append((shm.name, shape, dt.str))
        self._by_key[(tag, shape)] = (index, view)
        return index, view

    def close(self) -> None:
        """Release the coordinator mappings and unlink every segment name."""
        self._by_key.clear()
        shms, self._shms = self._shms, []
        self.descriptors = []
        for shm in shms:
            try:
                shm.close()
            except BufferError:  # a live ndarray still exports the buffer;
                pass             # the mapping dies with the process —
            except Exception:    # unlinking the *name* below is what the
                pass             # leak guard (and the OS) care about
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            except Exception:  # pragma: no cover
                pass


class _ModelEntry:
    """Registration record: one model replicated into worker processes."""

    __slots__ = ("seq", "kind", "model", "params")

    def __init__(self, seq: int, kind: str, model, params):
        self.seq = seq
        self.kind = kind
        self.model = model  # strong ref: keeps id(model) stable
        self.params = params  # [(path, segment_index, coordinator_view)]


@contextmanager
def _pinned_blas_env(limit: Optional[int]):
    """Pin the BLAS env knobs while spawning workers (restored after).

    Spawn-method children import NumPy fresh, so the variables must be in
    the environment *before* ``Process.start()``; fork children inherit
    the parent's already-initialised pools and rely on the worker-side
    :func:`blas_thread_limit` (a no-op without threadpoolctl — pin the
    env before the first ``import numpy``, as ``benchmarks/`` does, to
    cover that case).
    """
    if limit is None:
        yield
        return
    saved = {var: os.environ.get(var) for var in BLAS_ENV_VARS}
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(int(limit))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


class ProcessGradientEngine:
    """Data-parallel gradient execution across W slot-bound worker *processes*.

    Drop-in protocol twin of
    :class:`~repro.runtime.executor.ParallelGradientEngine`:
    ``sae_gradients``/``sae_step`` (two-phase global ρ̂), ``cd_gradients``/
    ``cd_step`` (per-worker RNG streams), ``supervised_gradients``/
    ``supervised_step``, ``flat_objective``, ``coordinator_workspace``,
    ``capture_rng_streams``/``restore_rng_streams``, ``submit``/
    ``run_tasks``, ``close``.  ``pretrain(engine=)``, ``finetune(engine=)``,
    the :mod:`repro.train` adapters, checkpoint/resume, and the chaos
    drills run unchanged on either engine.

    Parameters
    ----------
    n_workers:
        Worker process count; defaults to the affinity-visible core count.
    blas_threads:
        BLAS threads *per worker process*.  ``"auto"`` budgets
        ``cores // n_workers``; ``None`` leaves the workers' runtimes
        untouched; an int pins explicitly.
    seed:
        Root seed for the per-worker RNG streams (coordinator-owned).
    name:
        Label for process/workspace names and error messages.
    mp_context:
        Start method (``"fork"``/``"spawn"``/``"forkserver"``); default
        prefers ``fork`` where available (fastest startup — spawn pays an
        interpreter + import per worker) while staying fully spawn-safe.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        blas_threads="auto",
        seed: SeedLike = 0,
        name: str = "procengine",
        mp_context: Optional[str] = None,
    ):
        if n_workers is None:
            n_workers = available_cores()
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self.name = str(name)
        self.n_workers = int(n_workers)
        if blas_threads == "auto":
            blas_threads = (
                recommended_blas_threads(self.n_workers)
                if self.n_workers > 1 else None
            )
        self.blas_threads = blas_threads
        if mp_context is None:
            mp_context = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        try:
            ctx = mp.get_context(mp_context)
        except ValueError as exc:
            raise ConfigurationError(f"unknown mp_context {mp_context!r}") from exc
        self.mp_context = mp_context

        self._arena = _SharedArena(
            f"{SHM_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        self._procs: List = []
        self._conns: List = []
        self._known: List[int] = []  # per worker: descriptors already sent
        self._closed = False
        self._broken: Optional[str] = None
        try:  # pragma: no branch
            # Start the resource tracker *before* the workers exist so
            # they inherit (fork) or receive (spawn) its fd and share it.
            # A worker that lazily starts its own tracker would warn about
            # — and try to unlink — segments the coordinator still owns.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover - platform dependent
                pass
            with _pinned_blas_env(
                self.blas_threads if isinstance(self.blas_threads, int) else None
            ):
                for i in range(self.n_workers):
                    parent_conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(i, child_conn, self.blas_threads, self.name),
                        name=f"{self.name}-proc-{i}",
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    self._procs.append(proc)
                    self._conns.append(parent_conn)
                    self._known.append(0)
        except BaseException:
            self.close()
            raise
        self._streams = spawn_streams(seed, self.n_workers)
        self._coord_ws = Workspace(name=f"{self.name}.coordinator")
        self._acc: Dict[Tuple, np.ndarray] = {}
        self._models: Dict[int, _ModelEntry] = {}
        self._rr = 0
        self.n_steps = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers, close the pipes, and unlink every segment."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send({"op": "close"})
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:  # pragma: no cover
                pass
        self._models.clear()
        self._arena.close()

    def __enter__(self) -> "ProcessGradientEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-timing dependent
        try:
            if not getattr(self, "_closed", True):
                self.close()
        except Exception:
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def coordinator_workspace(self) -> Workspace:
        """Coordinator arena for synchronized ``apply_update`` calls."""
        return self._coord_ws

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutorClosedError(f"{self.name} has been closed")
        if self._broken is not None:
            raise EngineError(
                f"{self.name} is unusable after a worker failure: {self._broken}"
            )

    # ------------------------------------------------------------------
    # RNG stream snapshots (crash-consistent checkpoint/resume)
    # ------------------------------------------------------------------
    def capture_rng_streams(self) -> List[dict]:
        """Exact positions of the W worker streams (JSON-serialisable)."""
        from repro.runtime.checkpoint import capture_streams

        return capture_streams(self._streams)

    def restore_rng_streams(self, states: Sequence[dict]) -> None:
        """Rewind the streams to a :meth:`capture_rng_streams` snapshot."""
        from repro.runtime.checkpoint import restore_streams_into

        restore_streams_into(self._streams, states)

    # ------------------------------------------------------------------
    # control-message transport
    # ------------------------------------------------------------------
    def _fail(self, worker: int, detail: str, cause=None) -> "EngineError":
        self._broken = f"worker {worker} {detail}"
        err = EngineError(f"{self.name} worker {worker} {detail}")
        if cause is not None:
            err.__cause__ = cause
        return err

    def _send(self, i: int, payload: dict) -> None:
        fresh = self._arena.descriptors[self._known[i]:]
        if fresh:
            payload = dict(payload, segments=fresh)
        try:
            self._conns[i].send(payload)
        except (OSError, ValueError) as exc:
            raise self._fail(i, f"is unreachable ({exc})", exc)
        self._known[i] = len(self._arena.descriptors)

    def _recv(self, i: int):
        conn, proc = self._conns[i], self._procs[i]
        while True:
            try:
                if conn.poll(0.05):
                    return conn.recv()
            except (EOFError, OSError) as exc:
                raise self._fail(i, "died mid-task (pipe closed)", exc)
            if not proc.is_alive():
                try:  # drain a reply that raced with the liveness check
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                raise self._fail(i, f"died (exit code {proc.exitcode})")

    def _collect(self, sent: Sequence[int]) -> List:
        replies = [self._recv(i) for i in sent]
        payloads = []
        for i, reply in zip(sent, replies):
            if reply[0] == "err":
                exc = None
                if reply[1] is not None:
                    try:
                        exc = pickle.loads(reply[1])
                    except Exception:
                        exc = None
                if isinstance(exc, BaseException):
                    raise exc
                raise EngineError(
                    f"{self.name} worker {i} failed:\n{reply[2]}"
                )
            payloads.append(reply[1])
        return payloads

    def _drain(self, sent: Sequence[int]) -> None:
        """Discard outstanding replies so the pipes stay task-aligned."""
        for i in sent:
            try:
                self._recv(i)
            except EngineError:
                pass

    def _run_shard_tasks(self, msgs: Sequence[Tuple[int, dict]], kind: str) -> List:
        """Dispatch shard tasks (firing ``engine.worker`` per shard), collect.

        The fault site fires on the coordinator immediately before worker
        *i*'s dispatch — same per-worker visit counting as the thread
        engine, which fires inside the task before computing.  If a fault
        (or send failure) interrupts mid-dispatch, the already-sent tasks
        are drained before re-raising so the engine stays consistent.
        """
        sent: List[int] = []
        try:
            for i, payload in msgs:
                fault_point(SITE_ENGINE_WORKER, worker=i, kind=kind)
                self._send(i, payload)
                sent.append(i)
        except BaseException:
            self._drain(sent)
            raise
        return self._collect(sent)

    # ------------------------------------------------------------------
    # generic submission (used by TaskGraph.execute)
    # ------------------------------------------------------------------
    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        """Run picklable ``fn`` on the next worker (round-robin).

        Synchronous: the returned future is already resolved.  Correct for
        :meth:`TaskGraph.execute <repro.runtime.taskgraph.TaskGraph.execute>`
        (wavefronts complete in submission order), just without cross-task
        overlap — shard dispatch, not ``submit``, is this engine's hot path.
        """
        self._check_open()
        i = self._rr % self.n_workers
        self._rr += 1
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            self._send(i, {"op": "call", "fn": fn, "args": args, "kwargs": kwargs})
            future.set_result(self._collect([i])[0])
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def run_tasks(self, fns: Sequence[Callable]) -> List:
        """Execute picklable callables across the workers; ordered results."""
        self._check_open()
        sent: List[int] = []
        for fn in fns:
            i = self._rr % self.n_workers
            self._rr += 1
            self._send(i, {"op": "call", "fn": fn, "args": (), "kwargs": {}})
            sent.append(i)
        return self._collect(sent)

    # ------------------------------------------------------------------
    # shard plumbing (identical maths to the thread engine)
    # ------------------------------------------------------------------
    _shards = ParallelGradientEngine._shards
    _reduce = staticmethod(ParallelGradientEngine._reduce)
    _as_batch = staticmethod(ParallelGradientEngine._as_batch)

    def _accumulator(self, tag: str, shape: Tuple[int, ...]) -> np.ndarray:
        key = (tag, tuple(int(s) for s in shape))
        arr = self._acc.get(key)
        if arr is None:
            arr = np.empty(key[1])
            self._acc[key] = arr
        return arr

    def _ensure_model(self, model, kind: str) -> _ModelEntry:
        """Register ``model`` with every worker (one-time pickle), memoised."""
        entry = self._models.get(id(model))
        if entry is not None:
            return entry
        seq = len(self._models)
        params = []
        for path in _param_paths(kind, model):
            arr = _get_param(model, path)
            tag = f"m{seq}." + ".".join(str(p) for p in path)
            idx, view = self._arena.get(tag, arr.shape)
            params.append((path, idx, view))
        entry = _ModelEntry(seq, kind, model, params)
        payload = {
            "op": "register",
            "model": seq,
            "model_pickle": model,
            "params": [(path, idx) for path, idx, _ in params],
        }
        sent = []
        for i in range(self.n_workers):
            self._send(i, payload)
            sent.append(i)
        self._collect(sent)
        self._models[id(model)] = entry
        return entry

    def _sync_params(self, entry: _ModelEntry) -> None:
        """Publish the model's *current* parameters into shared memory.

        Runs before every gradient call: external mutation — an
        ``apply_update`` on the coordinator, a checkpoint restore that
        rebinds the arrays, ``enable_flat_views`` — must be visible to the
        workers without re-registration.
        """
        for path, _idx, view in entry.params:
            np.copyto(view, _get_param(entry.model, path))

    def _stage_batch(self, label: str, x: np.ndarray) -> int:
        idx, view = self._arena.get(f"batch.{label}", x.shape)
        np.copyto(view, x)
        return idx

    def _worker_out(self, entry: _ModelEntry, tag: str, worker: int,
                    shape: Tuple[int, ...]) -> Tuple[int, np.ndarray]:
        return self._arena.get(f"m{entry.seq}.{tag}.w{worker}", shape)

    # ------------------------------------------------------------------
    # sparse autoencoder
    # ------------------------------------------------------------------
    def sae_gradients(
        self,
        model,
        x: np.ndarray,
        out=None,
    ):
        """Full-batch loss and gradient of ``model`` on ``x``, data-parallel.

        Same contract and same arithmetic as the thread engine's
        :meth:`~repro.runtime.executor.ParallelGradientEngine.sae_gradients`
        — two-phase global ρ̂ when the KL penalty is active, shard weights
        ``mᵢ/m``, in-order daxpy reduction — so the result is bit-identical
        at fixed W and ≤1e-10 from the serial full-batch gradient.
        """
        from repro.nn.autoencoder import AutoencoderGradients

        self._check_open()
        x = self._as_batch(x, model.n_visible, "x")
        m = x.shape[0]
        shards = self._shards(m)
        weights = [(stop - start) / m for start, stop in shards]
        entry = self._ensure_model(model, "sae")
        self._sync_params(entry)
        xi = self._stage_batch("x", x)
        h, v = model.n_hidden, model.n_visible
        if out is None:
            out = AutoencoderGradients(
                self._accumulator("sae.w1", (h, v)),
                self._accumulator("sae.b1", (h,)),
                self._accumulator("sae.w2", (v, h)),
                self._accumulator("sae.b2", (v,)),
            )
        shapes = ((h, v), (h,), (v, h), (v,))
        outs = [
            [self._worker_out(entry, f"g{j}", i, shape)
             for j, shape in enumerate(shapes)]
            for i in range(len(shards))
        ]

        rho_idx: Optional[int] = None
        if model.cost.sparsity_weight > 0.0 and len(shards) > 1:
            # Phase A: per-shard hidden means, combined into the batch ρ̂.
            rhos = [self._worker_out(entry, "rho", i, (h,))
                    for i in range(len(shards))]
            self._run_shard_tasks(
                [
                    (i, {"op": "sae_rho", "model": entry.seq, "x": xi,
                         "lo": lo, "hi": hi, "out": rhos[i][0]})
                    for i, (lo, hi) in enumerate(shards)
                ],
                "sae.rho",
            )
            rho_idx, rho_view = self._arena.get(f"m{entry.seq}.rho", (h,))
            self._reduce([view for _, view in rhos], weights, rho_view)

        losses = self._run_shard_tasks(
            [
                (i, {"op": "sae_grad", "model": entry.seq, "x": xi,
                     "lo": lo, "hi": hi, "rho": rho_idx,
                     "out": [idx for idx, _ in outs[i]]})
                for i, (lo, hi) in enumerate(shards)
            ],
            "sae",
        )
        fault_point(SITE_ENGINE_REDUCE, kind="sae")
        loss = float(sum(w * l for w, l in zip(weights, losses)))
        for j, target in enumerate((out.w1, out.b1, out.w2, out.b2)):
            self._reduce([outs[i][j][1] for i in range(len(shards))],
                         weights, target)
        self.n_steps += 1
        return loss, out

    def sae_step(self, model, x: np.ndarray, learning_rate: float) -> float:
        """One synchronized parallel SGD step; returns the batch loss."""
        loss, grads = self.sae_gradients(model, x)
        model.apply_update(grads, learning_rate, workspace=self._coord_ws)
        return loss

    def flat_objective(self, model) -> Callable:
        """``objective(theta, batch) -> (loss, grad)`` for :class:`repro.optim.sgd.SGD`."""
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
        rbm,
        v0: np.ndarray,
        k: int = 1,
        sample_visible: bool = False,
    ):
        """Data-parallel CD-k statistics with deterministic worker streams.

        Worker *i* receives stream *i*'s exact state, samples its Gibbs
        chain, and ships the advanced state back; the coordinator's
        streams therefore track exactly what the thread engine's would,
        keeping checkpoint capture/restore engine-agnostic.
        """
        from repro.nn.rbm import CDStatistics
        from repro.runtime.checkpoint import capture_rng, restore_rng_into

        self._check_open()
        v0 = self._as_batch(v0, rbm.n_visible, "v0")
        m = v0.shape[0]
        shards = self._shards(m)
        weights = [(stop - start) / m for start, stop in shards]
        entry = self._ensure_model(rbm, "rbm")
        self._sync_params(entry)
        vi = self._stage_batch("v0", v0)
        nh, nv = rbm.n_hidden, rbm.n_visible
        shapes = ((nh, nv), (nv,), (nh,))
        outs = [
            [self._worker_out(entry, f"g{j}", i, shape)
             for j, shape in enumerate(shapes)]
            for i in range(len(shards))
        ]
        results = self._run_shard_tasks(
            [
                (i, {"op": "cd", "model": entry.seq, "x": vi,
                     "lo": lo, "hi": hi, "k": int(k),
                     "sample_visible": bool(sample_visible),
                     "rng": capture_rng(self._streams[i]),
                     "out": [idx for idx, _ in outs[i]]})
                for i, (lo, hi) in enumerate(shards)
            ],
            "rbm",
        )
        for i, (_err, state) in enumerate(results):
            restore_rng_into(self._streams[i], state)
        fault_point(SITE_ENGINE_REDUCE, kind="rbm")
        grad_w = self._reduce([outs[i][0][1] for i in range(len(shards))],
                              weights, self._accumulator("rbm.gw", (nh, nv)))
        grad_b = self._reduce([outs[i][1][1] for i in range(len(shards))],
                              weights, self._accumulator("rbm.gb", (nv,)))
        grad_c = self._reduce([outs[i][2][1] for i in range(len(shards))],
                              weights, self._accumulator("rbm.gc", (nh,)))
        err = float(sum(w * r[0] for w, r in zip(weights, results)))
        self.n_steps += 1
        return CDStatistics(grad_w, grad_b, grad_c, err)

    def cd_step(
        self,
        rbm,
        v0: np.ndarray,
        learning_rate: float,
        k: int = 1,
        sample_visible: bool = False,
    ):
        """One synchronized parallel CD-k update (Eq. 13)."""
        stats = self.cd_gradients(rbm, v0, k=k, sample_visible=sample_visible)
        rbm.apply_update(stats, learning_rate, workspace=self._coord_ws)
        return stats

    # ------------------------------------------------------------------
    # deep network (supervised fine-tuning)
    # ------------------------------------------------------------------
    def supervised_gradients(self, network, x: np.ndarray, targets: np.ndarray):
        """Data-parallel back-propagation through a :class:`~repro.nn.mlp.DeepNetwork`."""
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
        entry = self._ensure_model(network, "mlp")
        self._sync_params(entry)
        xi = self._stage_batch("x", x)
        ti = self._stage_batch("targets", targets)
        outs = [
            [
                (self._worker_out(entry, f"gw{li}", i, layer.w.shape),
                 self._worker_out(entry, f"gb{li}", i, layer.b.shape))
                for li, layer in enumerate(network.layers)
            ]
            for i in range(len(shards))
        ]
        losses = self._run_shard_tasks(
            [
                (i, {"op": "mlp", "model": entry.seq, "x": xi, "t": ti,
                     "lo": lo, "hi": hi,
                     "out": [(gw[0], gb[0]) for gw, gb in outs[i]]})
                for i, (lo, hi) in enumerate(shards)
            ],
            "mlp",
        )
        fault_point(SITE_ENGINE_REDUCE, kind="mlp")
        loss = float(sum(w * l for w, l in zip(weights, losses)))
        reduced: List[Tuple[np.ndarray, np.ndarray]] = []
        for li, layer in enumerate(network.layers):
            gw = self._reduce(
                [outs[i][li][0][1] for i in range(len(shards))], weights,
                self._accumulator(f"mlp.gw{li}", layer.w.shape),
            )
            gb = self._reduce(
                [outs[i][li][1][1] for i in range(len(shards))], weights,
                self._accumulator(f"mlp.gb{li}", layer.b.shape),
            )
            reduced.append((gw, gb))
        self.n_steps += 1
        return loss, reduced

    def supervised_step(
        self, network, x: np.ndarray, targets: np.ndarray, learning_rate: float
    ) -> float:
        """One synchronized parallel back-propagation update; returns loss."""
        loss, grads = self.supervised_gradients(network, x, targets)
        network.apply_update(grads, learning_rate, workspace=self._coord_ws)
        return loss

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "broken" if self._broken else "open"
        )
        return (
            f"ProcessGradientEngine({self.name!r}, n_workers={self.n_workers}, "
            f"blas_threads={self.blas_threads}, mp_context={self.mp_context!r}, "
            f"{self.n_steps} steps, {state})"
        )


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

_process_engine_probe: Optional[bool] = None


def process_engine_available() -> bool:
    """True when named shared-memory segments work on this platform.

    Probes once per process (create + unlink of a 16-byte segment);
    platforms without ``/dev/shm``-style support get ``False`` and the
    callers (``make_engine``, the benchmark) degrade to the thread engine.
    """
    global _process_engine_probe
    if _process_engine_probe is None:
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=16,
                name=f"{SHM_PREFIX}-probe-{os.getpid()}-{uuid.uuid4().hex[:8]}",
            )
            shm.close()
            shm.unlink()
            _process_engine_probe = True
        except Exception:
            _process_engine_probe = False
    return _process_engine_probe


def make_engine(
    mode: str = "auto",
    n_workers: Optional[int] = None,
    blas_threads="auto",
    seed: SeedLike = 0,
    name: str = "engine",
    problem_size: Optional[int] = None,
    **kwargs,
):
    """Build a gradient engine, or ``None`` for the serial path.

    ``mode``:

    * ``"serial"`` — ``None`` (callers treat a missing engine as serial);
    * ``"thread"`` — :class:`~repro.runtime.executor.ParallelGradientEngine`;
    * ``"process"`` — :class:`ProcessGradientEngine`;
    * ``"auto"`` — serial when fewer than 2 usable cores or fewer than 2
      workers would run, or when ``problem_size`` (batch × input-width
      cells per update) is below
      :data:`~repro.runtime.executor.AUTO_SERIAL_CUTOFF`, the measured
      crossover below which the thread engine itself runs a call's shards
      on the calling thread; otherwise threads on free-threaded builds
      with the GIL off (real parallelism, zero IPC — see
      :mod:`repro.runtime.freethreading`), else processes where shared
      memory works, else threads.
    """
    mode = str(mode).lower()
    if mode not in ("auto", "thread", "process", "serial"):
        raise ConfigurationError(
            f"engine mode must be 'auto', 'thread', 'process' or 'serial', "
            f"got {mode!r}"
        )
    if mode == "serial":
        return None
    if mode == "thread":
        return ParallelGradientEngine(
            n_workers=n_workers, blas_threads=blas_threads, seed=seed, name=name
        )
    if mode == "process":
        return ProcessGradientEngine(
            n_workers=n_workers, blas_threads=blas_threads, seed=seed,
            name=name, **kwargs,
        )

    from repro.runtime.freethreading import gil_enabled

    cores = available_cores()
    workers = cores if n_workers is None else int(n_workers)
    if cores < 2 or workers < 2:
        return None
    if problem_size is not None and problem_size < AUTO_SERIAL_CUTOFF:
        return None
    if not gil_enabled():
        return ParallelGradientEngine(
            n_workers=workers, blas_threads=blas_threads, seed=seed, name=name
        )
    if process_engine_available():
        return ProcessGradientEngine(
            n_workers=workers, blas_threads=blas_threads, seed=seed,
            name=name, **kwargs,
        )
    return ParallelGradientEngine(
        n_workers=workers, blas_threads=blas_threads, seed=seed, name=name
    )
