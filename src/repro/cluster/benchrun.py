"""The cluster bench: multi-replica drills with hard gates.

Four drills, all deterministic (simulated clock, seeded arrivals), all
run against the same freshly pre-trained demo servable:

* **saturation** — the cluster-level analogue of the paper's Fig. 7/9
  scaling studies: drive N ∈ ``replica_counts`` fleets at a load that
  saturates the largest one and record the throughput curve; the gate
  asserts N=4 reaches ≥ 3 × the single-replica saturation throughput at
  equal p99 (tail latency must not pay for the scaling);
* **hedge** — one replica is made a straggler via a ``replica.serve``
  corrupt rule (service times × ``slow_factor``); hedging must cut
  client p99 by ≥ 1.5 × versus the same workload unhedged;
* **swap** — a second model version is promoted mid-run through the
  :class:`~repro.cluster.registry.ReplicatedRegistry`; the gate is the
  zero-downtime contract: 0 failed and 0 shed requests, drain complete;
* **kill** — a ``replica.serve`` raise rule murders a replica mid-run;
  the router must fail its outstanding legs over with 0 client-visible
  failures.

The committed ``BENCH_cluster.json`` baseline gives CI a 25 %
regression fence on the two headline ratios (scaling, hedge gain);
``repro.bench.benches`` declares the gates and fences.  Because the
clock is simulated the numbers are machine-independent — the fence is
tight, not advisory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.registry import ReplicatedRegistry
from repro.cluster.replica import ReplicaConfig
from repro.cluster.router import (
    NO_HEDGING,
    HedgePolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    Router,
)
from repro.errors import ConfigurationError
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import SimulatedServiceModel
from repro.serve.registry import ServableModel
from repro.testing.faults import FaultPlan, inject
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.replay import TraceReplayer
from repro.workloads.trace import trace_from_arrivals

SCHEMA = "cluster-bench/v1"

#: Engine shape shared by every drill: bounded queue so saturation sheds
#: (backpressure) instead of growing tails without bound.
DRILL_POLICY = BatchPolicy(max_batch_size=32, max_wait_s=2e-3, max_queue_depth=256)


def drill_replica_config(cache_entries: int = 0) -> ReplicaConfig:
    """Per-replica config used by the drills (cache off by default)."""
    return ReplicaConfig(
        policy=DRILL_POLICY,
        n_workers=1,
        cache_entries=cache_entries,
        service_model_factory=SimulatedServiceModel,
    )


def replica_capacity_rps(servable: ServableModel) -> float:
    """Steady-state requests/second one replica can serve at full batches."""
    model = SimulatedServiceModel(servable)
    batch = DRILL_POLICY.max_batch_size
    return batch / model.seconds(batch)


# ---------------------------------------------------------------------------
# drills
# ---------------------------------------------------------------------------

def run_saturation_sweep(
    servable: ServableModel,
    replica_counts: Sequence[int] = (1, 2, 4),
    duration_s: float = 0.05,
    oversubscribe: float = 1.5,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Throughput/p99 curve over fleet sizes at saturating load.

    Every fleet size sees the *same* arrival process: a Poisson stream
    at ``oversubscribe × capacity(max N)``, which saturates even the
    largest fleet, so served/makespan measures each fleet's true service
    capacity (the single-engine bench's saturation methodology, lifted
    to the cluster).
    """
    if not replica_counts or min(replica_counts) < 1:
        raise ConfigurationError(f"replica_counts must be >= 1, got {replica_counts}")
    rate = oversubscribe * max(replica_counts) * replica_capacity_rps(servable)
    trace = trace_from_arrivals(PoissonArrivals(rate), duration_s, seed=seed)
    rows: List[Dict[str, object]] = []
    for n in replica_counts:
        router = Router(
            servable,
            n_replicas=n,
            replica_config=drill_replica_config(),
            policy=LeastLoadedPolicy(),
            hedge=NO_HEDGING,
        )
        replay = TraceReplayer(router, trace).run()
        metrics = router.metrics
        throughput = metrics.completed / replay.makespan_s
        p99 = metrics.latency.percentile(99)
        if not rows:
            base_throughput, base_p99 = throughput, p99
        rows.append(
            {
                "kind": "saturation",
                "n_replicas": int(n),
                "rate_rps": rate,
                "offered": replay.offered,
                "completed": metrics.completed,
                "shed": metrics.shed,
                "failed": metrics.failed,
                "throughput_rps": throughput,
                "p99_ms": p99 * 1e3,
                "speedup_vs_1": throughput / base_throughput,
                "p99_ratio_vs_1": p99 / base_p99 if base_p99 > 0 else 1.0,
            }
        )
    return rows


def run_hedge_drill(
    servable: ServableModel,
    n_replicas: int = 4,
    slow_factor: float = 20.0,
    utilization: float = 0.4,
    duration_s: float = 0.06,
    seed: int = 0,
) -> Dict[str, object]:
    """Straggler drill: p99 with hedging off vs on, same seeded workload.

    Replica 0's service times are stretched ``slow_factor ×`` via a
    ``replica.serve`` corrupt rule; round-robin routing keeps sending it
    1/N of the traffic, so unhedged client p99 is straggler-bound.  The
    hedge policy carries an SLO ceiling (``max_deadline_s``): a
    *persistent* straggler owning 1/N of completions also owns the
    observed p99, so an unclamped ``multiplier × p99`` deadline would
    chase the straggler upward until hedging stops firing.
    """
    if slow_factor <= 1:
        raise ConfigurationError(f"slow_factor must be > 1, got {slow_factor}")
    capacity = replica_capacity_rps(servable)
    rate = utilization * n_replicas * capacity
    healthy_s = DRILL_POLICY.max_wait_s + SimulatedServiceModel(servable).seconds(
        DRILL_POLICY.max_batch_size
    )
    hedge = HedgePolicy(
        multiplier=2.0,
        min_deadline_s=2.0 * healthy_s,
        max_deadline_s=5.0 * healthy_s,
        warmup=50,
    )

    trace = trace_from_arrivals(PoissonArrivals(rate), duration_s, seed=seed)

    def run(hedge_policy):
        plan = FaultPlan.corrupt(
            "replica.serve",
            transform=lambda seconds, ctx: seconds * slow_factor,
            times=None,
            match={"replica": 0},
        )
        router = Router(
            servable,
            n_replicas=n_replicas,
            replica_config=drill_replica_config(),
            policy=RoundRobinPolicy(),
            hedge=hedge_policy,
        )
        with inject(plan):
            TraceReplayer(router, trace).run()
        return router.metrics

    off_p99 = run(NO_HEDGING).latency.percentile(99)
    on = run(hedge)
    on_p99 = on.latency.percentile(99)
    return {
        "kind": "hedge",
        "n_replicas": int(n_replicas),
        "slow_factor": float(slow_factor),
        "offered": trace.n_requests,
        "completed": on.completed,
        "failed": on.failed,
        "p99_off_ms": off_p99 * 1e3,
        "p99_on_ms": on_p99 * 1e3,
        "p99_gain": off_p99 / on_p99 if on_p99 > 0 else 1.0,
        "hedges_launched": on.hedges_launched,
        "hedges_won": on.hedges_won,
    }


def run_swap_drill(
    servable_v1: ServableModel,
    servable_v2: ServableModel,
    n_replicas: int = 2,
    utilization: float = 0.5,
    duration_s: float = 0.1,
    seed: int = 0,
) -> Dict[str, object]:
    """Zero-downtime swap drill: promote v2 mid-run, drop no requests."""
    registry = ReplicatedRegistry()
    registry.publish("drill", servable_v1)
    v2 = registry.publish("drill", servable_v2)
    router = Router(
        registry.active("drill"),
        n_replicas=n_replicas,
        replica_config=drill_replica_config(),
        policy=RoundRobinPolicy(),
        hedge=NO_HEDGING,
    )
    registry.attach("drill", router)
    rate = utilization * n_replicas * replica_capacity_rps(servable_v1)
    tickets: List = []

    def promote(now: float):
        tickets.append(registry.promote("drill", v2, now=now))

    replay = TraceReplayer(
        router,
        trace_from_arrivals(PoissonArrivals(rate), duration_s, seed=seed),
        actions=[(duration_s / 2.0, promote)],
    ).run()
    finalized = bool(tickets) and tickets[0].finalize()
    models = {r.servable.name for r in router.replicas if r.alive}
    metrics = router.metrics
    return {
        "kind": "swap",
        "n_replicas": int(n_replicas),
        "offered": replay.offered,
        "completed": metrics.completed,
        "failed": metrics.failed,
        "shed": metrics.shed,
        "swaps": metrics.swaps,
        "drained": router.swap_complete,
        "old_version_retired": finalized,
        "post_swap_model": ",".join(sorted(models)),
        "active_version": registry.active_version("drill"),
    }


def run_kill_drill(
    servable: ServableModel,
    n_replicas: int = 3,
    victim: int = 1,
    kill_after_batches: int = 5,
    utilization: float = 0.5,
    duration_s: float = 0.1,
    seed: int = 0,
) -> Dict[str, object]:
    """Replica-death drill: kill one replica mid-run, fail nothing over.

    A ``replica.serve`` raise rule fires on the victim's
    ``kill_after_batches``-th dispatch; the router must re-dispatch its
    outstanding legs with zero client-visible failures.
    """
    plan = FaultPlan.fail(
        "replica.serve", nth=kill_after_batches, match={"replica": victim}
    )
    router = Router(
        servable,
        n_replicas=n_replicas,
        replica_config=drill_replica_config(),
        policy=RoundRobinPolicy(),
        hedge=NO_HEDGING,
    )
    rate = utilization * n_replicas * replica_capacity_rps(servable)
    trace = trace_from_arrivals(PoissonArrivals(rate), duration_s, seed=seed)
    with inject(plan):
        replay = TraceReplayer(router, trace).run()
    metrics = router.metrics
    return {
        "kind": "kill",
        "n_replicas": int(n_replicas),
        "victim": int(victim),
        "offered": replay.offered,
        "completed": metrics.completed,
        "failed": metrics.failed,
        "shed": metrics.shed,
        "deaths": metrics.replica_deaths,
        "rerouted": metrics.rerouted,
        "replicas_final": router.n_live,
    }


def run_autoscale_drill(
    servable: ServableModel,
    duration_s: float = 0.2,
    seed: int = 0,
) -> Dict[str, object]:
    """Elasticity drill: a saturating burst must grow the fleet, the
    quiet drain must shrink it back toward the floor."""
    capacity = replica_capacity_rps(servable)
    router = Router(
        servable,
        n_replicas=1,
        replica_config=drill_replica_config(),
        policy=LeastLoadedPolicy(),
        hedge=NO_HEDGING,
    )
    autoscaler = Autoscaler(
        router,
        AutoscalerConfig(
            min_replicas=1,
            max_replicas=4,
            high_watermark=DRILL_POLICY.max_queue_depth / 4.0,
            low_watermark=1.0,
            interval_s=duration_s / 20.0,
            cooldown_s=duration_s / 10.0,
        ),
    )
    # Evaluate through the arrival window and one drain's worth past it.
    tick_s = duration_s / 20.0
    ticks = []
    t = 0.0
    while t < duration_s * 2.0:
        ticks.append((t, autoscaler.evaluate))
        t += tick_s
    replay = TraceReplayer(
        router,
        trace_from_arrivals(PoissonArrivals(3.0 * capacity), duration_s, seed=seed),
        actions=ticks,
    ).run()
    metrics = router.metrics
    return {
        "kind": "autoscale",
        "offered": replay.offered,
        "completed": metrics.completed,
        "failed": metrics.failed,
        "scale_ups": metrics.scale_ups,
        "scale_downs": metrics.scale_downs,
        "replicas_final": router.n_live,
        "peak_replicas": max(
            (h["n_replicas"] for h in autoscaler.history), default=router.n_live
        ),
    }


# ---------------------------------------------------------------------------
# the full bench
# ---------------------------------------------------------------------------

def run_cluster_bench(
    servable: Optional[ServableModel] = None,
    servable_v2: Optional[ServableModel] = None,
    replica_counts: Sequence[int] = (1, 2, 4),
    quick: bool = False,
    seed: int = 0,
) -> Dict[str, object]:
    """Run every drill; returns the JSON-serialisable report."""
    from repro.serve.benchrun import train_demo_servable

    if servable is None:
        servable = train_demo_servable(n_examples=128, epochs=2, seed=seed)
    if servable_v2 is None:
        servable_v2 = train_demo_servable(n_examples=128, epochs=2, seed=seed + 1)
    saturation_s = 0.05 if quick else 0.2
    hedge_s = 0.06 if quick else 0.12
    drill_s = 0.1 if quick else 0.25
    rows: List[Dict[str, object]] = []
    rows.extend(
        run_saturation_sweep(
            servable, replica_counts, duration_s=saturation_s, seed=seed
        )
    )
    rows.append(run_hedge_drill(servable, duration_s=hedge_s, seed=seed))
    rows.append(
        run_swap_drill(servable, servable_v2, duration_s=drill_s, seed=seed)
    )
    rows.append(run_kill_drill(servable, duration_s=drill_s, seed=seed))
    rows.append(run_autoscale_drill(servable, duration_s=2 * drill_s, seed=seed))
    return {"schema": SCHEMA, "seed": int(seed), "quick": bool(quick), "rows": rows}

