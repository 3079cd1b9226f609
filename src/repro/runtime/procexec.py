"""Process-backed shared-memory gradient engine (beats the GIL for real).

:class:`~repro.runtime.executor.ParallelGradientEngine` parallelises with
*threads*: it only wins when BLAS releases the GIL inside large GEMMs.
``BENCH_parallel.json`` shows the failure mode — at W=2 on small shards
the thread engine is *slower* than serial.  This module is the fix:
:class:`ProcessGradientEngine` subclasses the thread engine and keeps its
coordinator (shards, prepass, slot-order reduce, entry points, RNG
streams), but each worker is a long-lived **process**, so the shard
compute (including all the pure-Python glue around the kernels) runs on
its own core regardless of the GIL.  The subclass overrides only the
transport and the lifecycle.

Design (CHAOS worker-private gradients + the paper's §IV.A–B synchronized
update, carried across process boundaries):

* **Shared-memory arena** — parameters, staged mini-batches, a model's
  prepass statistic (the SAE's global ρ̂), and every worker's gradient
  pieces live in named ``multiprocessing.shared_memory`` segments with
  ``np.ndarray`` views on both sides.  The hot path pickles *no arrays*:
  only small control dicts (``prepass`` or ``shard`` op, segment indices,
  shard bounds, an RNG state, the call's options) cross the pipe.  Models
  are pickled **once** at registration; the worker adopts the shared
  segments through the model's ``bind_parameters``, so later parameter
  updates are one coordinator-side ``memcpy`` into the segment.  Worker
  *i* then runs the model's own ``shard_prepass``/``shard_gradients`` —
  the module knows no model.

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
  *owned by the coordinator*: a shard task ships stream *i*'s exact state
  to worker *i* and the advanced state travels back, so
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
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.runtime.checkpoint import restore_rng
from repro.runtime.executor import (
    AUTO_SERIAL_CUTOFF,
    SITE_ENGINE_WORKER,
    ParallelGradientEngine,
    _ShardPlan,
)
from repro.runtime.threads import (
    available_cores,
    blas_env_limit,
    blas_thread_limit,
)
from repro.runtime.workspace import Workspace
from repro.testing.faults import fault_point
from repro.utils.rng import SeedLike

#: Prefix of every segment this module creates (the conftest leak guard
#: scans ``/dev/shm`` for it after each test).
SHM_PREFIX = "repro-shm"


class EngineError(ReproError):
    """A worker process died or became unreachable mid-step."""


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
    unit tests (``segments`` may then be plain arrays).  ``register``
    adopts a model; ``prepass`` and ``shard`` run one shard of a
    registered model's shard protocol (see
    :meth:`~repro.runtime.executor.ParallelGradientEngine.gradients`).
    Any other op is refused: a worker runs no caller-supplied callable.
    """
    op = msg["op"]
    if op == "register":
        model = msg["model_pickle"]
        model.bind_parameters([segments[i] for i in msg["params"]])
        models[msg["model"]] = model
        return None
    if op not in ("prepass", "shard"):
        raise ConfigurationError(f"unknown engine op {op!r}")
    model = models[msg["model"]]
    lo, hi = msg["lo"], msg["hi"]
    shard = [segments[i][lo:hi] for i in msg["batch"]]
    if op == "prepass":
        model.shard_prepass(ws, segments[msg["out"]], *shard)
        return None
    gen = restore_rng(msg["rng"])
    pre = None if msg["pre"] is None else segments[msg["pre"]]
    loss = model.shard_gradients(
        ws, [segments[i] for i in msg["out"]], *shard, pre=pre, rng=gen,
        **msg["options"],
    )
    return float(loss), gen.bit_generator.state


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

    Segments are keyed by ``(tag, shape)`` and allocated lazily in a
    global creation order; workers
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


class _SharedPlan(_ShardPlan):
    """A shard plan whose slot arrays and parameters live in shared memory.

    The handles are segment indices; ``params`` are ``(index, view)``
    pairs the coordinator publishes the model's parameters into.
    """

    def __init__(self, model, seq: int, n_slots: int, arena: "_SharedArena"):
        super().__init__(
            model, n_slots, lambda tag, shape: arena.get(f"m{seq}.{tag}", shape)
        )
        self.seq = seq  # the model's id in the workers' registry
        self.params = [
            arena.get(f"m{seq}.p{j}", np.shape(p))
            for j, p in enumerate(model.parameters())
        ]


class ProcessGradientEngine(ParallelGradientEngine):
    """Data-parallel gradient execution across W slot-bound worker *processes*.

    The thread engine's coordinator and entry points — ``gradients``,
    ``cd_gradients``, ``supervised_gradients``, ``coordinator_workspace``,
    ``capture_rng_streams``/``restore_rng_streams`` — over a different
    transport: control messages to worker processes and shared-memory
    segments.
    ``pretrain(engine=)``, ``finetune(engine=)``, the :mod:`repro.train`
    adapters, checkpoint/resume, and the chaos drills run unchanged on
    either engine.

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
        if mp_context is None:
            mp_context = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        try:
            self._ctx = mp.get_context(mp_context)
        except ValueError as exc:
            raise ConfigurationError(f"unknown mp_context {mp_context!r}") from exc
        self.mp_context = mp_context
        super().__init__(n_workers, blas_threads, seed, name)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start(self) -> None:
        """Start the W worker processes; on any failure, tear down and re-raise."""
        self._arena = _SharedArena(
            f"{SHM_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        self._procs: List = []
        self._conns: List = []
        self._known: List[int] = []  # per worker: descriptors already sent
        self._broken: Optional[str] = None
        try:
            # Start the resource tracker *before* the workers exist so
            # they inherit (fork) or receive (spawn) its fd and share it.
            # A worker that lazily starts its own tracker would warn about
            # — and try to unlink — segments the coordinator still owns.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover - platform dependent
                pass
            # Spawned workers import NumPy fresh, so the BLAS env knobs
            # must be set before Process.start().  Forked workers inherit
            # the parent's initialised pools, which the worker-side
            # blas_thread_limit caps only with threadpoolctl (else pin the
            # env before the first ``import numpy``, as benchmarks/ does).
            with blas_env_limit(
                self.blas_threads if isinstance(self.blas_threads, int) else None
            ):
                for i in range(self.n_workers):
                    parent_conn, child_conn = self._ctx.Pipe()
                    proc = self._ctx.Process(
                        target=_worker_main,
                        args=(i, child_conn, self.blas_threads, self.name),
                        name=f"{self.name}-proc-{i}",
                        daemon=True,
                    )
                    try:
                        proc.start()
                    except BaseException:
                        parent_conn.close()
                        raise
                    finally:
                        child_conn.close()
                    self._procs.append(proc)
                    self._conns.append(parent_conn)
                    self._known.append(0)
        except BaseException:
            self.close()
            raise

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
        self._plans.clear()
        self._arena.close()

    def __del__(self):  # pragma: no cover - GC-timing dependent
        try:
            if not getattr(self, "_closed", True):
                self.close()
        except Exception:
            pass

    def _check_open(self) -> None:
        super()._check_open()
        if self._broken is not None:
            raise EngineError(
                f"{self.name} is unusable after a worker failure: {self._broken}"
            )

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

    def _dispatch(self, kind: str, msgs: Sequence[dict]) -> List:
        """Send message *i* to worker *i* (firing ``engine.worker``), collect.

        The fault site fires on the coordinator immediately before worker
        *i*'s dispatch — same per-worker visit counting as the thread
        engine, which fires inside the task before computing.  If a fault
        (or send failure) interrupts mid-dispatch, the already-sent tasks
        are drained before re-raising so the engine stays consistent.
        """
        sent: List[int] = []
        try:
            for i, payload in enumerate(msgs):
                fault_point(SITE_ENGINE_WORKER, worker=i, kind=kind)
                self._send(i, payload)
                sent.append(i)
        except BaseException:
            self._drain(sent)
            raise
        return self._collect(sent)

    # ------------------------------------------------------------------
    # the coordinator's transport hooks
    # ------------------------------------------------------------------
    def _plan(self, model) -> _SharedPlan:
        """Register ``model`` with every worker: its one pickle per engine."""
        plan = _SharedPlan(model, len(self._plans), self.n_workers, self._arena)
        payload = {
            "op": "register",
            "model": plan.seq,
            "model_pickle": model,
            "params": [idx for idx, _ in plan.params],
        }
        for i in range(self.n_workers):
            self._send(i, payload)
        self._collect(range(self.n_workers))
        return plan

    def _stage(self, plan: _SharedPlan, batch: List[np.ndarray]) -> List[int]:
        """Publish the model's *current* parameters, then stage the batch.

        Runs before every gradient call: external mutation — an
        ``apply_update`` on the coordinator, a checkpoint restore that
        rebinds the arrays, ``enable_flat_views`` — must be visible to the
        workers without re-registration.
        """
        for (_, view), param in zip(plan.params, plan.model.parameters()):
            np.copyto(view, param)
        staged = []
        for j, part in enumerate(batch):
            idx, view = self._arena.get(f"batch{j}", part.shape)
            np.copyto(view, part)
            staged.append(idx)
        return staged

    def _run_prepass(self, plan: _SharedPlan, staged, shards) -> None:
        self._dispatch(plan.pre_kind, [
            {"op": "prepass", "model": plan.seq, "batch": staged,
             "lo": lo, "hi": hi, "out": plan.pre_out_ids[i]}
            for i, (lo, hi) in enumerate(shards)
        ])

    #: Workers write only shared memory: even a lone shard parks its
    #: pieces in slot 0's segments for the coordinator to reduce.
    _lone_shard_in_place = False

    def _run_shards(self, plan: _SharedPlan, staged, shards, pre, options) -> List:
        """Worker *i* receives stream *i*'s exact state and ships the
        advanced state back, so the coordinator's streams track exactly
        what the thread engine's would."""
        pre_id = None if pre is None else plan.pre_id
        results = self._dispatch(plan.kind, [
            {"op": "shard", "model": plan.seq, "batch": staged,
             "lo": lo, "hi": hi, "out": plan.out_ids[i], "pre": pre_id,
             "rng": stream.bit_generator.state, "options": options}
            for i, ((lo, hi), stream) in enumerate(zip(shards, self._streams))
        ])
        for stream, (_, state) in zip(self._streams, results):
            stream.bit_generator.state = state
        return [loss for loss, _ in results]

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

    * ``"serial"`` — ``None``: a :class:`~repro.train.loop.ModelStep`
      given no engine trains through
      :func:`~repro.runtime.executor.serial_engine`, the W=1 engine whose
      one stream is the run's shuffle generator, and checkpoints record
      no engine;
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
