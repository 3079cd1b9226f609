"""repro.serve — micro-batched inference serving on the simulated Phi.

The deployment-time layer of the reproduction: trained models go in
(via :class:`ModelRegistry`), individual requests arrive, a dynamic
micro-batcher coalesces them (the serving analogue of the paper's
Fig. 5 chunked double buffer), workers run real NumPy forward passes
timed by the simulated machine.  A load run is a seeded trace replayed
on the simulated clock (:mod:`repro.workloads`), so throughput-vs-latency
curves are reproducible.

Quick tour::

    from repro.serve import (
        BatchPolicy, ModelRegistry, PoissonArrivals, ServingEngine,
    )
    from repro.workloads import TraceReplayer, trace_from_arrivals

    registry = ModelRegistry()
    servable = registry.load("encoder", "encoder.npz")
    engine = ServingEngine(servable, policy=BatchPolicy(max_batch_size=32))
    trace = trace_from_arrivals(PoissonArrivals(2000.0), 1.0, seed=0)
    replay = TraceReplayer(engine, trace).run()
    print(engine.metrics.completed / replay.makespan_s,
          engine.metrics.latency.percentile(99))
"""

from repro.serve.batcher import BatchPolicy, MicroBatcher, Request
from repro.serve.benchrun import run_serve_bench, train_demo_servable
from repro.serve.cache import FeatureCache
from repro.serve.engine import (
    ConstantServiceModel,
    ServingEngine,
    SimulatedServiceModel,
    WorkerPool,
)
from repro.serve.metrics import LatencyHistogram, ServingMetrics
from repro.serve.registry import ModelRegistry, ServableModel
from repro.workloads.arrivals import BurstArrivals, PoissonArrivals

__all__ = [
    "BatchPolicy",
    "MicroBatcher",
    "Request",
    "FeatureCache",
    "ConstantServiceModel",
    "SimulatedServiceModel",
    "ServingEngine",
    "WorkerPool",
    "PoissonArrivals",
    "BurstArrivals",
    "LatencyHistogram",
    "ServingMetrics",
    "ModelRegistry",
    "ServableModel",
    "run_serve_bench",
    "train_demo_servable",
]
