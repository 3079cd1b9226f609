"""repro.cluster — sharded, multi-replica serving on top of repro.serve.

The production tier the ROADMAP's "millions of users" north star asks
for, built the way the paper builds training throughput: many modest
engines behind a careful coordination layer.  A front-door
:class:`Router` spreads requests over N independent
:class:`~repro.serve.engine.ServingEngine` replicas (round-robin,
least-loaded, or consistent-hash routing), sheds load only when every
replica's admission control refuses, hedges tail-latency stragglers,
fails over dead replicas, rolls new model versions with zero downtime
(:class:`ReplicatedRegistry`), and grows/shrinks the fleet from the
serving metrics it already emits (:class:`Autoscaler`).

Everything composes with the discrete-event simulation the serving
layer already uses — ``submit(payload, now)`` / ``poll(now)`` /
``next_event_time()`` — so cluster-scale behaviour (saturation curves,
chaos drills, swap drills) is deterministic and seedable.

Quick tour::

    from repro.cluster import ConsistentHashPolicy, Router
    from repro.serve import ModelRegistry, PoissonArrivals
    from repro.workloads import TraceReplayer, trace_from_arrivals

    servable = ModelRegistry().load("encoder", "encoder.npz")
    router = Router(servable, n_replicas=4, policy=ConsistentHashPolicy())
    trace = trace_from_arrivals(PoissonArrivals(20_000.0), 1.0, seed=0)
    replay = TraceReplayer(router, trace).run()
    print(router.metrics.completed / replay.makespan_s,
          router.metrics.latency.percentile(99))
"""

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.benchrun import run_cluster_bench
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.registry import ReplicatedRegistry, SwapTicket
from repro.cluster.replica import Replica, ReplicaConfig
from repro.cluster.router import (
    NO_HEDGING,
    ClusterRequest,
    ConsistentHashPolicy,
    HedgePolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    Router,
)
from repro.cluster.shardrouter import ShardedRequest, ShardRouter, place_shards

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ClusterMetrics",
    "ClusterRequest",
    "ConsistentHashPolicy",
    "HedgePolicy",
    "LeastLoadedPolicy",
    "NO_HEDGING",
    "Replica",
    "ReplicaConfig",
    "ReplicatedRegistry",
    "RoundRobinPolicy",
    "Router",
    "ShardRouter",
    "ShardedRequest",
    "SwapTicket",
    "place_shards",
    "run_cluster_bench",
]
