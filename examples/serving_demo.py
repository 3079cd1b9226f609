#!/usr/bin/env python
"""Serving demo: train, register, and load-test an encoder service.

The deployment-time mirror of the training pipeline:

1. pre-train a small stacked autoencoder on synthetic digits;
2. save it and load it back through the model registry;
3. replay a bursty workload through the micro-batched serving engine,
   once without batching and once with it (plus a feature cache);
4. print the throughput / tail-latency report.

Everything is deterministic: arrivals, service times, and the clock are
simulated, so two runs print identical numbers.

Run:  python examples/serving_demo.py
"""

import tempfile
from pathlib import Path

from repro import digit_dataset
from repro.nn.stacked import LayerSpec, StackedAutoencoder
from repro.serve import (
    BatchPolicy,
    BurstArrivals,
    FeatureCache,
    ModelRegistry,
    ServingEngine,
)
from repro.utils.serialization import save_model
from repro.workloads import TraceReplayer, trace_from_arrivals


def run_cell(servable, max_batch, cache=None, seed=0):
    engine = ServingEngine(
        servable,
        policy=BatchPolicy(max_batch_size=max_batch, max_wait_s=2e-3),
        cache=cache,
    )
    # 500 rps background traffic with 8000 rps bursts: a flash crowd
    # opens each 100 ms window for 20 ms.
    arrivals = BurstArrivals(500.0, 8000.0, period_s=0.1, burst_len_s=0.02)
    replay = TraceReplayer(engine, trace_from_arrivals(arrivals, 1.0, seed=seed)).run()
    return engine.metrics, replay


def describe(label, cell):
    # Counters and nearest-rank percentiles come from the engine's
    # metrics; the offered count and the makespan from the replay.
    metrics, replay = cell
    latency = metrics.latency
    print(f"  {label}")
    print(
        f"    served {metrics.completed}/{replay.offered} "
        f"(rejected {metrics.shed}, cache hits {metrics.cache_hits})"
    )
    print(
        f"    throughput {metrics.completed / replay.makespan_s:8.0f} rps   "
        f"mean batch {metrics.mean_batch_size:5.1f}"
    )
    print(
        f"    latency p50 {latency.percentile(50) * 1e3:6.2f} ms   "
        f"p95 {latency.percentile(95) * 1e3:6.2f} ms   "
        f"p99 {latency.percentile(99) * 1e3:6.2f} ms"
    )


def main():
    # 1. pre-train a 256 -> 64 -> 32 encoder on synthetic digits
    x, _ = digit_dataset(256, size=16, seed=0)
    stack = StackedAutoencoder(
        256,
        [LayerSpec(64, epochs=3, batch_size=64), LayerSpec(32, epochs=3, batch_size=64)],
        seed=0,
    ).pretrain(x)
    print(f"pre-trained encoder: {' -> '.join(str(w) for w in stack.layer_sizes)}")

    # 2. save + registry round trip (what a model server does at startup)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(stack, Path(tmp) / "encoder.npz")
        registry = ModelRegistry()
        servable = registry.load("digits-encoder", path)
    print(f"registered: {registry.names()} ({servable.n_inputs} -> {servable.n_outputs})\n")

    # 3. the same bursty workload, three serving configurations
    print("bursty workload (500 rps base, 8000 rps bursts), simulated Phi:")
    describe("no batching (max_batch=1)", run_cell(servable, max_batch=1))
    describe("micro-batching (max_batch=32)", run_cell(servable, max_batch=32))
    describe(
        "micro-batching + feature cache",
        run_cell(servable, max_batch=32, cache=FeatureCache(max_entries=512)),
    )


if __name__ == "__main__":
    main()
