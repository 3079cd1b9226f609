#!/usr/bin/env python3
"""One host-timed benchmark for the repository.

    python3 perfbench/run.py --workload pretrain_sae --seed 1 --seconds 20 --trace 0

Workloads: ``pretrain_sae``, ``train_dbn_parallel``, ``serve_skewed``,
``serve_sharded`` (see ``perfbench/NOTES.md``).  Run from the root of a
checkout; the program is imported from its ``src/``.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` runs the workload twice, untraced then traced,
for half the seconds each, reports the per-layer metrics from the traced
pass and the gap between the passes as tracing overhead, and writes the
spans as Chrome trace-event JSON under ``.perfbench/``.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Exit
status is 0 on success, 1 when the run is invalid (a check could not be
made, or the load generator fell behind), 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench import env  # noqa: E402

env.prepare()

from perfbench.tracing import NAME, Tracer, layer_of  # noqa: E402

SETUP_REPS = 3
#: the import is timed this many times: once in this process, the rest in
#: fresh interpreters
IMPORT_REPS = 3
#: least share of a training repetition's wall time the layer self times
#: must cover in the traced pass
MIN_COVERAGE = 0.9

#: (name, unit, better) — the end-to-end metrics every workload reports
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
)

#: (name, unit, better) — per-layer metrics from the traced run; a layer a
#: workload bypasses reports 0
PER_LAYER = (
    ("nn.gradients_s", "s", "lower"),
    ("nn.gradients_calls", "count", "lower"),
    ("nn.gemm_gflop", "GFLOP", "lower"),
    ("nn.gflop_per_s", "GFLOP/s", "higher"),
    ("nn.epoch_metric_s", "s", "lower"),
    ("nn.encode_s", "s", "lower"),
    ("nn.apply_s", "s", "lower"),
    ("nn.forward_s", "s", "lower"),
    ("nn.forward_rows_per_call", "rows", "higher"),
    ("train.updates", "count", "lower"),
    ("train.load_s", "s", "lower"),
    ("train.compute_s", "s", "lower"),
    ("train.apply_s", "s", "lower"),
    ("train.gap_s", "s", "lower"),
    ("train.loop_self_s", "s", "lower"),
    ("runtime.engine.compute_s", "s", "lower"),
    ("runtime.engine.calls", "count", "lower"),
    ("runtime.engine.scaling", "x", "higher"),
    ("runtime.checkpoint.stall_s", "s", "lower"),
    ("runtime.checkpoint.bytes", "B", "lower"),
    ("runtime.checkpoint.snapshots", "count", "lower"),
    ("serve.submit_us", "us", "lower"),
    ("serve.poll_self_us", "us", "lower"),
    ("serve.queue_wait_p99_ms", "ms", "lower"),
    ("serve.batch_rows_mean", "rows", "higher"),
    ("serve.cache_hit_rate", "frac", "higher"),
    ("cluster.route_us", "us", "lower"),
    ("cluster.spillovers", "count", "lower"),
    ("cluster.shed", "count", "lower"),
    ("shard.scatter_us", "us", "lower"),
    ("shard.gather_us", "us", "lower"),
    ("shard.degraded_requests", "count", "lower"),
    ("data.patches_s", "s", "lower"),
    ("data.digits_s", "s", "lower"),
    ("workloads.trace_gen_s", "s", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("loadgen.backlog_max", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.self_coverage", "frac", "higher"),
    ("trace.spans", "count", "lower"),
)


def span_layers(tracer, setup_tracer) -> dict:
    """Per-layer metrics that come straight from the spans."""
    st = tracer.by_name()
    setup = setup_tracer.by_name()

    def get(name: str, key: str = "self_s", table=st) -> float:
        return float(table.get(name, {}).get(key, 0.0))

    grad_s = get("nn.gradients")
    gflop = get("nn.gradients", "work") / 1e9
    roots = [s[NAME] for s in tracer.spans if layer_of(s[NAME]) == "bench"]
    root = roots[0] if roots else "bench.rep"
    return {
        "nn.gradients_s": grad_s,
        "nn.gradients_calls": get("nn.gradients", "calls"),
        "nn.gemm_gflop": gflop,
        "nn.gflop_per_s": gflop / grad_s if grad_s > 0 else 0.0,
        "nn.epoch_metric_s": get("nn.epoch_metric"),
        "nn.encode_s": get("nn.encode"),
        "nn.apply_s": get("nn.apply"),
        "train.loop_self_s": get("train.pretrain") + get("train.finetune"),
        "runtime.engine.compute_s": get("runtime.engine", "total_s"),
        "runtime.engine.calls": get("runtime.engine", "calls"),
        "runtime.checkpoint.stall_s": get("runtime.checkpoint", "total_s"),
        "runtime.checkpoint.bytes": get("runtime.checkpoint", "work"),
        "runtime.checkpoint.snapshots": get("runtime.checkpoint", "calls"),
        "data.patches_s": get("data.patches", "total_s", setup) / SETUP_REPS,
        "data.digits_s": get("data.digits", "total_s", setup) / SETUP_REPS,
        "workloads.trace_gen_s": get("workloads.trace_gen", "total_s", setup) / SETUP_REPS,
        "trace.self_coverage": tracer.coverage(root),
        "trace.spans": float(len(tracer.spans)),
    }


def time_import() -> float:
    """Seconds a fresh interpreter takes to import the program and the
    modules the workloads use, NumPy included, as :func:`main` does."""
    code = ("import time; t0 = time.perf_counter(); import repro, perfbench.workloads; "
            "print(time.perf_counter() - t0)")
    path = os.pathsep.join((env.SRC, env.ROOT))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    return float(proc.stdout)


def overhead(base, traced) -> float:
    """Traced over untraced cost of the same work, minus one."""
    key = "rep_wall_s" if "rep_wall_s" in base.details else "busy_us_per_request"
    return traced.details[key][0] / base.details[key][0] - 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(env.SRC, "repro")):
        print(f"perfbench: no program at {env.SRC}/repro; run from a checkout",
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import cost is part of set-up)
    from perfbench import workloads as wl
    from perfbench.hostspeed import HostSpeed
    import_times = [time.perf_counter() - t0]
    import_times += [time_import() for _ in range(IMPORT_REPS - 1)]
    import_s = statistics.median(import_times)

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    os.makedirs(env.OUT_DIR, exist_ok=True)

    # Set-up is CPU work too: host-speed correct it with kernel samples
    # taken after the import and after each set-up.
    host = HostSpeed()
    host.sample()
    setup_tracer = Tracer(enabled=bool(args.trace))
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed, args.seconds, tracer=setup_tracer)
        setup_times.append(time.perf_counter() - t0)
        host.sample()
    raw_setup_s = import_s + statistics.median(setup_times)
    setup_s = raw_setup_s * host.speed()

    try:
        if not args.trace:
            result = workload.run(state, args.seconds, Tracer(enabled=False))
            rss = result.peak_rss_mb if result.peak_rss_mb is not None else wl.peak_rss_mb()
            metrics = {"setup_s": setup_s, "peak_rss_mb": rss, **result.e2e}
            table = END_TO_END
        else:
            half = args.seconds / 2.0
            base = workload.run(state, half, Tracer(enabled=False), full=False)
            tracer = Tracer(enabled=True)
            result = workload.run(state, half, tracer, full=False)
            result.failures[:0] = [f"untraced pass: {f}" for f in base.failures]
            result.attempted += base.attempted
            result.failed += base.failed
            serving = args.workload.startswith("serve")
            if serving:
                same = wl.answers_agree(base.outputs, result.outputs)
            else:
                same = base.outputs == result.outputs
            if not same:
                result.failures.append("traced and untraced runs produced different outputs")
                result.failed += 1
            metrics = {name: 0.0 for name, _, _ in PER_LAYER}
            metrics.update(span_layers(tracer, setup_tracer))
            coverage = metrics["trace.self_coverage"]
            if not serving and coverage < MIN_COVERAGE:
                result.failures.append(f"layer self times cover {coverage:.3f} of the "
                                       f"wall time, below {MIN_COVERAGE}")
                result.failed += 1
            metrics.update(result.layers)
            metrics["trace.overhead_frac"] = overhead(base, result)
            table = PER_LAYER
            path = os.path.join(env.OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
            tracer.write_chrome(path, {"workload": args.workload, "seed": args.seed})
            print(f"trace: {path} ({len(tracer.spans)} spans)")
    except RuntimeError as exc:  # the run marked itself invalid
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 1

    failed = result.failed
    print(f"workload: {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace})")
    print("regime: " + ", ".join(f"{k}={v}" for k, v in env.describe().items()))
    print("import reps: " + ", ".join(f"{t:.4f}" for t in import_times)
          + f" s; import_s: {import_s:.4f} s; setup reps: "
          + ", ".join(f"{t:.4f}" for t in setup_times)
          + f" s; raw_setup_s: {raw_setup_s:.4f} s; setup host_speed: {host.speed():.4f} x")
    for name, (value, unit) in result.details.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"failed_ops: {failed}/{result.attempted}")
    for line in result.failures:
        print(f"FAILED: {line}")
    units = {name: unit for name, unit, _ in table}
    for name, _, _ in table:
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    out = {
        "correct": failed == 0,
        "attempted": int(result.attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name, _, _ in table},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
