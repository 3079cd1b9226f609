"""Wall-clock benchmark for the real parallel training executors.

Two families of rows, mirroring the paper's two concurrency mechanisms:

* ``kind="workers"`` — the SAE gradient step through a gradient engine
  (``engine="thread"`` →
  :class:`~repro.runtime.executor.ParallelGradientEngine`,
  ``engine="process"`` →
  :class:`~repro.runtime.procexec.ProcessGradientEngine`) at W=1 vs W>1
  with BLAS pinned to one thread per worker (the honest protocol: the
  speedup measures *worker-level* data parallelism, not BLAS's own pool).
  Each row carries two ratios: ``speedup`` (vs the same engine at W=1,
  the scaling curve) and ``vs_serial`` (vs the engine-free fused serial
  step, the "was parallelism worth it at all?" number that motivated the
  process engine — the committed thread rows sat at 0.76–0.82× serial).
  Every row also carries the max absolute difference between the reduced
  parallel gradient and the serial full-batch gradient, so the report
  doubles as the ≤1e-10 equivalence gate.

* ``kind="prefetch"`` — chunked training with and without the
  :class:`~repro.runtime.executor.ChunkPrefetcher` background loader.
  Chunk *loading* is simulated I/O (a sleep calibrated to the measured
  per-chunk compute time); *compute* is the real fused SAE step.  Because
  sleeping releases the GIL, the overlap win is real on any core count —
  this is Fig. 5's "loading thread hides the PCIe transfer" made
  executable.

Speedup gates are machine- and engine-aware: every worker row is tagged
``expected_scaling`` (``n_cores >= n_workers`` at measurement time —
a single-core host *cannot* exhibit compute-parallel speedup, and its
W=2 rows would otherwise read like regressions).  Gates and baseline
fences skip untagged rows **explicitly**, reporting a note per skip,
never silently (:data:`repro.bench.benches.PARALLEL` declares them).
Thread rows gate on ``speedup`` (the historical
contract), process rows gate on ``vs_serial`` (the process engine must
beat *serial*, not just its own W=1).  The prefetch gate binds
everywhere — overlapping a sleeping loader needs no second core.

Metadata records the concurrency regime of the measurement:
``gil_enabled``/``free_threaded`` (PEP 703 audit, see
:mod:`repro.runtime.freethreading`) and ``blas_budget_active`` (whether
BLAS pools were actually cappable — threadpoolctl loaded, or the env
fallback pinned before NumPy import).  Validation rejects a report
claiming threadpoolctl was importable but budgeting inactive.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

SCHEMA_ID = "repro.bench_parallel/v3"

#: (batch, n_visible, n_hidden) — paper-scale layer for the full run.
PAPER_SHAPES: Tuple[Tuple[int, int, int], ...] = ((100, 4096, 1024),)

#: Small shape for CI smoke runs; batch is large enough that splitting
#: across two workers leaves each shard with meaningful GEMMs.
QUICK_SHAPES: Tuple[Tuple[int, int, int], ...] = ((128, 512, 256),)

#: Equivalence bound: parallel reduction vs serial gradients.  Reports
#: record it as ``equiv_tol``; validation uses this constant.
EQUIV_TOL = 1e-10

#: Engine backends measured by default (process is dropped with a
#: metadata note on platforms without POSIX shared memory).
ENGINES: Tuple[str, ...] = ("thread", "process")


def _time_min(fn, trials: int, inner: int) -> float:
    """Min-of-trials wall time of ``fn`` in ms (same protocol as hotpath)."""
    for _ in range(2):  # warm-up: workspaces, thread pools, BLAS paths
        fn()
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best * 1e3


def blas_budget_active() -> bool:
    """Can this process actually cap the BLAS pools?

    True when threadpoolctl is importable (limits apply to live pools) or
    when every BLAS env knob was pinned — which only bites if it happened
    before NumPy loaded, as ``benchmarks/bench.py parallel`` does.
    """
    from repro.runtime.threads import BLAS_ENV_VARS, HAVE_THREADPOOLCTL

    if HAVE_THREADPOOLCTL:
        return True
    return all(var in os.environ for var in BLAS_ENV_VARS)


def _serial_ms(
    batch: int, n_visible: int, n_hidden: int, trials: int, inner: int, seed: int
) -> float:
    """Engine-free fused serial step time — the ``vs_serial`` baseline."""
    from repro.nn.autoencoder import SparseAutoencoder
    from repro.runtime.workspace import Workspace

    rng = np.random.default_rng(seed)
    x = rng.random((batch, n_visible))
    sae = SparseAutoencoder(n_visible, n_hidden, seed=seed)
    ws = Workspace(name="bench-serial")
    lr = 1e-12  # parameters effectively frozen across timing reps

    def step() -> None:
        _, grads = sae.gradients_into(x, ws)
        sae.apply_update(grads, lr, workspace=ws)

    return _time_min(step, trials, inner)


def _ratio(num_ms: float, den_ms: float) -> float:
    """``num_ms / den_ms`` of the *rounded* fields, so the report is
    self-consistent, to four significant digits: a fixed number of
    decimals would leave a ratio under 0.05 with a relative error
    above 1e-3."""
    return float(f"{round(num_ms, 3) / round(den_ms, 3):.4g}")


def _worker_rows(
    engine: str,
    serial_ms: float,
    batch: int,
    n_visible: int,
    n_hidden: int,
    workers: Sequence[int],
    trials: int,
    inner: int,
    seed: int,
    n_cores: int,
) -> List[Dict]:
    from repro.nn.autoencoder import SparseAutoencoder
    from repro.runtime.executor import ParallelGradientEngine
    from repro.runtime.procexec import ProcessGradientEngine

    engine_cls = {
        "thread": ParallelGradientEngine,
        "process": ProcessGradientEngine,
    }[engine]
    rng = np.random.default_rng(seed)
    x = rng.random((batch, n_visible))
    sae = SparseAutoencoder(n_visible, n_hidden, seed=seed)
    _, g_ref = sae.gradients(x)

    lr = 1e-12
    rows: List[Dict] = []
    ms_w1: Optional[float] = None
    for w in workers:
        with engine_cls(
            n_workers=w, blas_threads=1, seed=seed, name=f"bench-{engine}-w{w}"
        ) as eng:
            _, g_par = eng.gradients(sae, x)
            diff = max(
                float(np.max(np.abs(g_ref.w1 - g_par.w1))),
                float(np.max(np.abs(g_ref.b1 - g_par.b1))),
                float(np.max(np.abs(g_ref.w2 - g_par.w2))),
                float(np.max(np.abs(g_ref.b2 - g_par.b2))),
            )

            def step() -> None:
                _, grads = eng.gradients(sae, x)
                sae.apply_update(grads, lr, workspace=eng.coordinator_workspace)

            ms = _time_min(step, trials, inner)
        if ms_w1 is None:
            ms_w1 = ms
        rows.append(
            {
                "kind": "workers",
                "engine": engine,
                "model": "sae",
                "batch": batch,
                "n_visible": n_visible,
                "n_hidden": n_hidden,
                "n_workers": w,
                "ms": round(ms, 3),
                "serial_ms": round(serial_ms, 3),
                "speedup": _ratio(ms_w1, ms),
                "vs_serial": _ratio(serial_ms, ms),
                "max_abs_diff": diff,
                # Compute-parallel scaling is only physically possible
                # with one core per worker; gates skip untagged rows.
                "expected_scaling": bool(n_cores >= w),
            }
        )
    return rows


def _prefetch_row(
    n_chunks: int,
    n_buffers: int,
    batch: int,
    n_visible: int,
    n_hidden: int,
    seed: int,
) -> Dict:
    from repro.nn.autoencoder import SparseAutoencoder
    from repro.runtime.executor import ChunkPrefetcher
    from repro.runtime.workspace import Workspace

    rng = np.random.default_rng(seed)
    chunks = [rng.random((batch, n_visible)) for _ in range(n_chunks)]
    sae = SparseAutoencoder(n_visible, n_hidden, seed=seed)
    ws = Workspace(name="bench-prefetch")
    lr = 1e-12

    def compute(chunk: np.ndarray) -> None:
        _, grads = sae.gradients_into(chunk, ws)
        sae.apply_update(grads, lr, workspace=ws)

    # Calibrate the simulated host→device staging time to the measured
    # per-chunk compute time: a balanced pipeline, the regime where
    # double buffering pays the most (paper Fig. 5).
    compute(chunks[0])  # warm the workspace
    t0 = time.perf_counter()
    compute(chunks[0])
    load_s = max(time.perf_counter() - t0, 1e-3)

    def load(i: int) -> np.ndarray:
        time.sleep(load_s)
        return chunks[i]

    t0 = time.perf_counter()
    for i in range(n_chunks):  # serial reference: load, then train
        compute(load(i))
    serial_ms = (time.perf_counter() - t0) * 1e3

    with ChunkPrefetcher(load, n_chunks=n_chunks, n_buffers=n_buffers) as pf:
        t0 = time.perf_counter()
        for chunk in pf:
            compute(chunk)
        overlapped_ms = (time.perf_counter() - t0) * 1e3
    timeline = pf.timeline()

    return {
        "kind": "prefetch",
        "n_chunks": n_chunks,
        "n_buffers": n_buffers,
        "batch": batch,
        "n_visible": n_visible,
        "n_hidden": n_hidden,
        "load_ms": round(load_s * 1e3, 3),
        "serial_ms": round(serial_ms, 3),
        "overlapped_ms": round(overlapped_ms, 3),
        "speedup": _ratio(serial_ms, overlapped_ms),
        "trainer_idle_ms": round(timeline.trainer_idle_s * 1e3, 3),
        "max_abs_diff": 0.0,
    }


def run_parallel_bench(
    shapes: Optional[Sequence[Tuple[int, int, int]]] = None,
    workers: Sequence[int] = (1, 2),
    trials: int = 5,
    inner: int = 3,
    n_chunks: int = 6,
    seed: int = 0,
    engines: Sequence[str] = ENGINES,
) -> Dict:
    """Run the parallel benchmark and return the versioned report dict."""
    from repro.runtime.freethreading import free_threaded_build, gil_enabled
    from repro.runtime.linalg import HAVE_BLAS
    from repro.runtime.procexec import process_engine_available
    from repro.runtime.threads import HAVE_THREADPOOLCTL, available_cores

    if shapes is None:
        shapes = PAPER_SHAPES
    if sorted(set(workers))[:1] != [1]:
        raise ConfigurationError("workers must include 1 (the speedup baseline)")
    engines = tuple(engines)
    unknown = set(engines) - set(ENGINES)
    if unknown or not engines:
        raise ConfigurationError(
            f"engines must be a non-empty subset of {ENGINES}, got {engines}"
        )
    shm_ok = process_engine_available()
    measured = tuple(
        e for e in engines if e != "process" or shm_ok
    )
    if "thread" not in measured:
        raise ConfigurationError(
            "engines must include 'thread' (always-available reference backend)"
        )
    n_cores = available_cores()
    rows: List[Dict] = []
    for batch, n_visible, n_hidden in shapes:
        serial = _serial_ms(batch, n_visible, n_hidden, trials, inner, seed)
        for engine in measured:
            rows.extend(
                _worker_rows(
                    engine, serial, batch, n_visible, n_hidden,
                    workers, trials, inner, seed, n_cores,
                )
            )
        rows.append(_prefetch_row(n_chunks, 2, batch, n_visible, n_hidden, seed))
    return {
        "schema": SCHEMA_ID,
        "n_cores": n_cores,
        "have_blas": bool(HAVE_BLAS),
        "have_threadpoolctl": bool(HAVE_THREADPOOLCTL),
        "blas_budget_active": blas_budget_active(),
        "blas_threads_per_worker": 1,
        "gil_enabled": gil_enabled(),
        "free_threaded": free_threaded_build(),
        "engines": list(measured),
        "process_engine_available": shm_ok,
        "equiv_tol": EQUIV_TOL,
        "rows": rows,
    }

