"""The ``serve-bench`` artefact: batch policy × arrival rate sweep.

Pre-trains a small stacked autoencoder on synthetic digits, registers it,
then replays seeded Poisson workloads against the serving engine for a
grid of (batch policy, arrival rate) cells.  The output is the serving
analogue of the paper's Fig. 9 batch-size sweep: throughput rises with
the batch bound while tail latency pays for the waiting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.serve.batcher import BatchPolicy
from repro.serve.engine import ServingEngine, SimulatedServiceModel
from repro.serve.registry import ModelRegistry, ServableModel
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.replay import TraceReplayer
from repro.workloads.trace import trace_from_arrivals

#: Default sweep: batching off / moderate / aggressive, light → saturating load.
DEFAULT_BATCH_SIZES = (1, 8, 32)
DEFAULT_RATES = (200.0, 2000.0, 20000.0)


def train_demo_servable(
    n_examples: int = 256,
    image_size: int = 16,
    hidden: Sequence[int] = (64, 32),
    epochs: int = 3,
    seed: int = 0,
) -> ServableModel:
    """Freshly pre-train a small stacked autoencoder and wrap it."""
    from repro.data.synth_digits import digit_dataset
    from repro.nn.stacked import LayerSpec, StackedAutoencoder

    x, _ = digit_dataset(n_examples, size=image_size, seed=seed)
    stack = StackedAutoencoder(
        x.shape[1],
        [LayerSpec(n_hidden=h, epochs=epochs, batch_size=64) for h in hidden],
        seed=seed,
    )
    stack.pretrain(x)
    registry = ModelRegistry()
    return registry.register("digits-encoder", stack)


def run_serve_bench(
    servable: Optional[ServableModel] = None,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    rates: Sequence[float] = DEFAULT_RATES,
    duration_s: float = 1.0,
    max_wait_s: float = 2e-3,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Sweep batch policy × arrival rate; one table row per cell.

    Every cell gets a fresh engine but the same servable, service model
    calibration, and workload seed, so rows differ only in policy/rate.
    Counters and the nearest-rank latency percentiles come from the
    engine's metrics; ``offered`` and the makespan come from the replay.
    """
    if servable is None:
        servable = train_demo_servable(seed=seed)
    rows: List[Dict[str, object]] = []
    for max_batch in batch_sizes:
        for rate in rates:
            policy = BatchPolicy(max_batch_size=max_batch, max_wait_s=max_wait_s)
            engine = ServingEngine(
                servable, policy=policy, service_model=SimulatedServiceModel(servable)
            )
            trace = trace_from_arrivals(PoissonArrivals(rate), duration_s, seed=seed)
            replay = TraceReplayer(engine, trace).run()
            metrics = engine.metrics
            rows.append({
                "max_batch": max_batch,
                "rate_rps": rate,
                "offered": replay.offered,
                "served": metrics.completed,
                "rejected": metrics.shed,
                "throughput_rps": metrics.completed / replay.makespan_s,
                "mean_batch": metrics.mean_batch_size,
                "p50_ms": metrics.latency.percentile(50) * 1e3,
                "p95_ms": metrics.latency.percentile(95) * 1e3,
                "p99_ms": metrics.latency.percentile(99) * 1e3,
            })
    return rows
