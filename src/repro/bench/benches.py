"""The six committed benches, one :class:`~repro.bench.gate.Bench` each,
and the command that runs, gates and fences them.

    PYTHONPATH=src python benchmarks/bench.py NAME [--quick] [--seed N]
        [--out PATH] [--validate PATH] [--baseline PATH]

``NAME`` is one of ``hotpath``, ``parallel``, ``pipeline``,
``workloads``, ``cluster`` and ``shard``; ``BENCH_NAME.json`` is its
committed baseline.  Without ``--quick``, ``hotpath`` and ``parallel``
time the quick and the paper shapes, which is how their baselines were
recorded.  ``--validate PATH`` checks a stored report instead of running
the bench.  The gates always apply, the fences with ``--baseline``; the
exit status is 1 on any failure or invalid report.

The thresholds below are the ones CI has always gated with.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.bench import gate, hotpath, parallel, pipeline, shardbench, slobench
from repro.bench.gate import ANY, BOOL, NUMBER, POSITIVE, Bench, Bound, Fence
from repro.cluster import benchrun
from repro.errors import ConfigurationError
from repro.workloads.patterns import PATTERNS

#: W >= 2 worker, prefetch and pipelined-walltime speedup floor
MIN_SPEEDUP = 1.3
#: the largest fleet's saturation throughput vs one replica
MIN_SCALING = 3.0
#: the straggler drill's p99 gain from hedging
MIN_HEDGE_GAIN = 1.5
#: p99 inflation allowed for the largest fleet and for sharded serving
MAX_P99_RATIO = 1.25

_SHAPE = "({batch},{n_visible}->{n_hidden})"
_DIMS = {"batch": POSITIVE, "n_visible": POSITIVE, "n_hidden": POSITIVE}


def _shapes_and_trials(module, quick: bool):
    """The quick shapes, or the quick plus the paper shapes (how the
    hotpath and parallel baselines were recorded), and (trials, inner)."""
    if quick:
        return module.QUICK_SHAPES, 5, 3
    return module.QUICK_SHAPES + module.PAPER_SHAPES, 8, 4


def _run_hotpath(quick: bool, seed: int):
    shapes, trials, inner = _shapes_and_trials(hotpath, quick)
    return hotpath.run_hotpath_bench(shapes, trials=trials, inner=inner, seed=seed)


HOTPATH = Bench(
    name="hotpath",
    schema=hotpath.SCHEMA_ID,
    kinds={None: {
        "model": ANY, **_DIMS,
        "ref_ms": POSITIVE, "fused_ms": POSITIVE, "speedup": POSITIVE,
        "max_abs_diff": NUMBER,
    }},
    run=_run_hotpath,
    key=("model", "batch", "n_visible", "n_hidden"),
    label={None: "{model} " + _SHAPE},
    invariants=(Bound(None, "max_abs_diff", "<=", hotpath.EQUIV_TOL),),
    fences=(Fence(None, "speedup", "higher"),),
)


def _run_parallel(quick: bool, seed: int):
    shapes, trials, inner = _shapes_and_trials(parallel, quick)
    return parallel.run_parallel_bench(
        shapes, trials=trials, inner=inner, n_chunks=8, seed=seed
    )


def _parallel_check(report) -> Optional[str]:
    if report["have_threadpoolctl"] and not report["blas_budget_active"]:
        return (
            "report claims threadpoolctl is available but BLAS budgeting "
            "inactive — the budget must be asserted when the tool is present"
        )
    if not any(row.get("engine") == "thread" for row in report["rows"]):
        return "parallel report must carry thread-engine worker rows"
    return None


def _engine(name: str, min_workers: int = 1):
    """Worker rows of one engine: threads gate and fence on ``speedup``
    (vs W=1), processes on ``vs_serial`` (they must beat serial)."""
    return lambda row, _: row["engine"] == name and row["n_workers"] >= min_workers


_CORES = "measured on {n_cores} core(s) < {n_workers} workers"

PARALLEL = Bench(
    name="parallel",
    schema=parallel.SCHEMA_ID,
    kinds={
        "workers": {
            "engine": parallel.ENGINES, "model": ANY, **_DIMS,
            "n_workers": POSITIVE, "ms": POSITIVE, "serial_ms": POSITIVE,
            "speedup": POSITIVE, "vs_serial": POSITIVE,
            "max_abs_diff": NUMBER, "expected_scaling": BOOL,
        },
        "prefetch": {
            "n_chunks": POSITIVE, "n_buffers": POSITIVE, **_DIMS,
            "serial_ms": POSITIVE, "overlapped_ms": POSITIVE,
            "speedup": POSITIVE, "max_abs_diff": NUMBER,
        },
    },
    run=_run_parallel,
    key=("engine", "model", "batch", "n_visible", "n_hidden", "n_workers",
         "n_chunks", "n_buffers"),
    label={
        "workers": "{engine} W={n_workers} " + _SHAPE,
        "prefetch": "prefetch {n_chunks} chunks, {n_buffers} buffers " + _SHAPE,
    },
    meta={
        "n_cores": POSITIVE, "have_threadpoolctl": BOOL,
        "blas_budget_active": BOOL, "gil_enabled": BOOL, "free_threaded": BOOL,
    },
    check=_parallel_check,
    invariants=tuple(
        Bound(kind, "max_abs_diff", "<=", parallel.EQUIV_TOL)
        for kind in ("workers", "prefetch")
    ),
    gates=(
        Bound("workers", "speedup", ">=", MIN_SPEEDUP, where=_engine("thread", 2),
              when="expected_scaling", skip=_CORES),
        Bound("workers", "vs_serial", ">=", MIN_SPEEDUP,
              where=_engine("process", 2), when="expected_scaling", skip=_CORES),
        Bound("prefetch", "speedup", ">=", MIN_SPEEDUP),
    ),
    fences=(
        Fence("workers", "speedup", "higher", where=_engine("thread"),
              when="expected_scaling"),
        Fence("workers", "vs_serial", "higher", where=_engine("process"),
              when="expected_scaling"),
        Fence("prefetch", "speedup", "higher"),
    ),
)

PIPELINE = Bench(
    name="pipeline",
    schema=pipeline.SCHEMA_ID,
    kinds={
        "walltime": {
            "model": ANY, "sync": ANY, "n_examples": POSITIVE,
            "n_visible": POSITIVE, "layers": ANY, "epochs": POSITIVE,
            "batch": POSITIVE, "greedy_s": POSITIVE, "pipelined_s": POSITIVE,
            "speedup": POSITIVE, "expected_scaling": BOOL,
        },
        "convergence": {
            "layer": NUMBER, "greedy_loss": NUMBER, "pipelined_loss": NUMBER,
            "rel_diff": NUMBER, "tol": NUMBER, "within_tol": BOOL,
        },
    },
    run=lambda quick, seed: pipeline.run_pipeline_bench(
        quick=quick, seed=seed, trials=1 if quick else 2
    ),
    key=("model", "sync", "n_examples", "n_visible", "layers", "epochs",
         "batch", "layer"),
    label={
        "walltime": "walltime {n_examples}x{n_visible} layers={layers} E={epochs}",
        "convergence": "convergence layer {layer}",
    },
    meta={"n_cores": POSITIVE},
    gates=(
        Bound("walltime", "speedup", ">=", MIN_SPEEDUP, when="expected_scaling",
              skip="measured on {n_cores} core(s); stage overlap needs >= 2"),
        Bound("convergence", "within_tol", "==", True),
    ),
    fences=(Fence("walltime", "speedup", "higher", when="expected_scaling"),),
)

WORKLOADS = Bench(
    name="workloads",
    schema=slobench.SCHEMA,
    kinds={
        pattern: {
            "fingerprint": ANY, "offered": NUMBER, "completed": NUMBER,
            "shed": NUMBER, "errors": NUMBER, "cache_hit_rate": NUMBER,
            "throughput_rps": NUMBER, "p50_ms": NUMBER, "p99_ms": NUMBER,
            "train_steps": NUMBER, "train_failures": NUMBER,
            "slo_p99_ms": NUMBER, "slo_error_budget": NUMBER,
            "slo_shed_budget": NUMBER, "slo_failures": ANY, "slo_ok": BOOL,
        }
        for pattern in sorted(PATTERNS)
    },
    run=lambda quick, seed: slobench.run_workloads_bench(quick=quick, seed=seed),
    meta={"quick": BOOL},
    gates=(
        *(Bound(p, "slo_failures", "==", []) for p in sorted(PATTERNS)),
        *(Bound(p, "completed", ">=", 1) for p in sorted(PATTERNS)),
        Bound("diurnal", "cache_hit_rate", ">=", 0.5),
        Bound("cache_busting", "cache_hit_rate", "<=", 0.02),
        Bound("mixed_train_serve", "train_steps", ">=", 1),
        Bound("mixed_train_serve", "train_failures", "==", 0),
    ),
    fences=tuple(
        Fence(p, name, better)
        for p in sorted(PATTERNS)
        for name, better in (("throughput_rps", "higher"), ("p99_ms", "lower"))
    ),
    # quick and full traces differ in shape; refuse to compare across them
    same=("quick",),
)


def _largest(row, peers) -> bool:
    return row["n_replicas"] == max(r["n_replicas"] for r in peers)


CLUSTER = Bench(
    name="cluster",
    schema=benchrun.SCHEMA,
    kinds={
        "saturation": {
            "n_replicas": POSITIVE, "throughput_rps": NUMBER, "p99_ms": NUMBER,
            "speedup_vs_1": NUMBER, "p99_ratio_vs_1": NUMBER,
        },
        "hedge": {
            "p99_off_ms": NUMBER, "p99_on_ms": NUMBER, "p99_gain": NUMBER,
            "hedges_launched": NUMBER,
        },
        "swap": {
            "offered": NUMBER, "completed": NUMBER, "failed": NUMBER,
            "shed": NUMBER, "drained": BOOL,
        },
        "kill": {
            "offered": NUMBER, "completed": NUMBER, "failed": NUMBER,
            "deaths": NUMBER, "rerouted": NUMBER,
        },
        "autoscale": {
            "scale_ups": NUMBER, "scale_downs": NUMBER, "replicas_final": NUMBER,
        },
    },
    run=lambda quick, seed: benchrun.run_cluster_bench(quick=quick, seed=seed),
    key=("n_replicas",),
    label={"saturation": "saturation N={n_replicas}"},
    gates=(
        Bound("saturation", "speedup_vs_1", ">=", MIN_SCALING, where=_largest),
        Bound("saturation", "p99_ratio_vs_1", "<=", MAX_P99_RATIO, where=_largest),
        Bound("hedge", "p99_gain", ">=", MIN_HEDGE_GAIN),
        Bound("swap", "failed", "==", 0),
        Bound("swap", "shed", "==", 0),
        Bound("swap", "drained", "==", True),
        Bound("kill", "failed", "==", 0),
        Bound("kill", "deaths", "==", 1),
        Bound("autoscale", "scale_ups", ">=", 1),
    ),
    fences=(
        Fence("saturation", "speedup_vs_1", "higher"),
        Fence("hedge", "p99_gain", "higher"),
    ),
)

_PARITY = ("forward_max_abs", "step_max_abs", "roundtrip_max_abs")

SHARD = Bench(
    name="shard",
    schema=shardbench.SCHEMA,
    kinds={
        "parity": {"family": ANY, "n_shards": POSITIVE,
                   **{name: NUMBER for name in _PARITY}},
        "pretrain": {
            "n_shards": POSITIVE, "exchange_every": NUMBER, "snapshots": NUMBER,
            "resume_max_abs": NUMBER,
        },
        "serving": {
            "n_shards": POSITIVE, "offered": NUMBER, "completed": NUMBER,
            "failed": NUMBER, "p99_single_ms": NUMBER, "p99_sharded_ms": NUMBER,
            "p99_ratio": NUMBER, "throughput_rps": NUMBER,
        },
        "shard_kill": {
            "n_shards": POSITIVE, "victim_shard": NUMBER, "offered": NUMBER,
            "completed": NUMBER, "failed": NUMBER, "deaths": NUMBER,
            "degraded_requests": NUMBER,
        },
    },
    run=lambda quick, seed: shardbench.run_shard_bench(quick=quick, seed=seed),
    label={
        "parity": "parity {family} N={n_shards}",
        "pretrain": "pretrain N={n_shards}",
        "serving": "serving N={n_shards}",
        "shard_kill": "shard_kill N={n_shards}",
    },
    gates=(
        *(Bound("parity", name, "<=", shardbench.PARITY_TOL) for name in _PARITY),
        Bound("pretrain", "resume_max_abs", "<=", shardbench.PARITY_TOL),
        Bound("pretrain", "snapshots", ">=", 2),
        Bound("serving", "failed", "==", 0),
        Bound("serving", "p99_ratio", "<=", MAX_P99_RATIO),
        Bound("shard_kill", "failed", "==", 0),
        Bound("shard_kill", "deaths", "==", 1),
        Bound("shard_kill", "degraded_requests", ">=", 1),
    ),
    fences=(
        Fence("serving", "p99_ratio", "lower"),
        Fence("serving", "throughput_rps", "higher"),
    ),
)

BENCHES = {b.name: b for b in (HOTPATH, PARALLEL, PIPELINE, WORKLOADS, CLUSTER, SHARD)}


def _print_rows(bench: Bench, report) -> None:
    if bench.meta:
        print(" ".join(f"{name}={gate.fmt(report[name])}" for name in bench.meta))
    for row in report["rows"]:
        label = bench.label.get(row.get("kind"), "{kind}")
        values = " ".join(
            f"{name}={gate.fmt(row[name])}"
            for name, type_ in bench.kinds[row.get("kind")].items()
            if "{%s}" % name not in label and type_ != ANY
        )
        print(f"{bench.row_label(row)}: {values}")


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``benchmarks/bench.py``; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="bench.py", description="Run, gate and fence one committed bench."
    )
    parser.add_argument("name", choices=sorted(BENCHES))
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized run (small shapes, short drills)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", metavar="PATH", help="write the fresh report")
    parser.add_argument(
        "--validate", metavar="PATH",
        help="check a stored report instead of running the bench",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", help="fence the report against a baseline"
    )
    args = parser.parse_args(argv)
    bench = BENCHES[args.name]
    regressions: List[str] = []
    try:
        if args.validate:
            report = gate.load(args.validate)
        else:
            report = bench.run(args.quick, args.seed)
        gate.validate(bench, report)
        _print_rows(bench, report)
        if args.out:
            print(f"wrote {gate.write(bench, report, args.out)}")
        failures, skipped = gate.gate(bench, report)
        if args.baseline:
            regressions, notes = gate.compare(
                bench, report, gate.load(args.baseline)
            )
            skipped += notes
    except (ConfigurationError, json.JSONDecodeError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    for note in skipped:
        print(f"SKIPPED: {note}")
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    for failure in regressions:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if failures or regressions:
        return 1
    fenced = f", no regression vs {args.baseline}" if args.baseline else ""
    print(f"{bench.name}: gates passed{fenced}")
    return 0
