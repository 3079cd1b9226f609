"""The ``repro chaos`` drill: provoke every fault class, then prove recovery.

Each scenario below injects one fault from :mod:`repro.testing.faults`
into the *executable* training stack, verifies the failure surfaces as a
clean exception (never a hang), and — for the kill scenarios — resumes
from the last crash-consistent checkpoint and checks the recovered
parameters are **bit-identical** to an uninterrupted run at the same
seed and worker count.  This is the smoke-level version of the
kill-anywhere invariant that ``tests/chaos/`` pins exhaustively.

Run from the shell::

    python -m repro chaos --quick                     # CI smoke drill
    python -m repro chaos --checkpoint-dir /tmp/ck    # keep the snapshots
    python -m repro chaos --checkpoint-dir /tmp/ck --resume
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.data.synth_digits import digit_dataset
from repro.nn.cost import SparseAutoencoderCost
from repro.nn.finetune import finetune
from repro.nn.mlp import DeepNetwork
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from repro.runtime.checkpoint import CheckpointStore, retry_transient
from repro.runtime.executor import ChunkPrefetcher, ParallelGradientEngine, PrefetchError
from repro.runtime.taskgraph import rbm_cd1_taskgraph
from repro.testing.faults import FaultError, FaultPlan, inject

#: worker count used by every engine drill — resume must match it.
N_WORKERS = 2


def _shapes(quick: bool):
    # "pipe" specs keep epochs uniform across layers — the pipelined
    # strategy trains every stage in epoch lock-step.
    if quick:
        return dict(size=5, n=48, sae=[LayerSpec(10, epochs=2, batch_size=16),
                                       LayerSpec(6, epochs=2, batch_size=16)],
                    dbn=[LayerSpec(8, epochs=2, batch_size=12)],
                    pipe=[LayerSpec(10, epochs=2, batch_size=16),
                          LayerSpec(6, epochs=2, batch_size=16)],
                    ft_hidden=12, ft_epochs=3)
    return dict(size=8, n=128, sae=[LayerSpec(32, epochs=3, batch_size=32),
                                    LayerSpec(16, epochs=2, batch_size=32)],
                dbn=[LayerSpec(24, epochs=3, batch_size=32)],
                pipe=[LayerSpec(32, epochs=3, batch_size=32),
                      LayerSpec(16, epochs=3, batch_size=32)],
                ft_hidden=24, ft_epochs=5)


def _max_diff(blocks_a, blocks_b) -> float:
    worst = 0.0
    for a, b in zip(blocks_a, blocks_b):
        for pa, pb in zip(a.parameters(), b.parameters()):
            worst = max(worst, float(np.abs(pa - pb).max()))
    return worst


def _row(scenario: str, site: str, fired: int, ok: bool, detail: str) -> dict:
    return {"scenario": scenario, "site": site, "fired": fired,
            "ok": ok, "detail": detail}


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _drill_sae_worker_kill(x, sh, seed, ckpt_root: Path) -> dict:
    cost = SparseAutoencoderCost(weight_decay=1e-3, sparsity_target=0.1,
                                 sparsity_weight=0.3)

    def fresh():
        return StackedAutoencoder(x.shape[1], sh["sae"], cost=cost, seed=seed)

    with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=seed) as eng:
        baseline = fresh().pretrain(x, engine=eng)
    store = CheckpointStore(ckpt_root / "sae", keep=2)
    fired = 0
    with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=seed) as eng:
        try:
            with inject(FaultPlan.kill_worker(1, nth=9)) as plan:
                fresh().pretrain(x, engine=eng, checkpoint=store)
        except FaultError:
            fired = plan.fired()
    if not fired or store.latest() is None:
        return _row("SAE pretrain: kill worker 1 mid-shard, resume",
                    "engine.worker", fired, False, "fault did not fire")
    with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=seed) as eng:
        resumed = fresh().pretrain(x, engine=eng, checkpoint=store, resume_from=store.directory)
    diff = _max_diff(baseline.blocks, resumed.blocks)
    return _row("SAE pretrain: kill worker 1 mid-shard, resume", "engine.worker",
                fired, diff == 0.0, f"max |Δparam| after resume = {diff:.1e}")


def _drill_dbn_reduce_kill(x, sh, seed, ckpt_root: Path) -> dict:
    binary = (x > 0.5).astype(np.float64)

    def fresh():
        return DeepBeliefNetwork(x.shape[1], sh["dbn"], seed=seed)

    with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=seed) as eng:
        baseline = fresh().pretrain(binary, engine=eng)
    store = CheckpointStore(ckpt_root / "dbn", keep=2)
    fired = 0
    with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=seed) as eng:
        try:
            with inject(FaultPlan.fail("engine.reduce", nth=5)) as plan:
                fresh().pretrain(binary, engine=eng, checkpoint=store)
        except FaultError:
            fired = plan.fired()
    if not fired or store.latest() is None:
        return _row("DBN pretrain: crash in gradient reduce, resume",
                    "engine.reduce", fired, False, "fault did not fire")
    with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=seed) as eng:
        resumed = fresh().pretrain(binary, engine=eng, checkpoint=store,
                                   resume_from=store.directory)
    diff = _max_diff(baseline.blocks, resumed.blocks)
    return _row("DBN pretrain: crash in gradient reduce, resume", "engine.reduce",
                fired, diff == 0.0, f"max |Δparam| after resume = {diff:.1e}")


def _drill_finetune_kill(x, labels, sh, seed, ckpt_root: Path) -> dict:
    sizes = [x.shape[1], sh["ft_hidden"], 10]

    def run(checkpoint=None, resume_from=None, plan=None):
        net = DeepNetwork(sizes, head="softmax", seed=seed)
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=seed) as eng:
            if plan is None:
                finetune(net, x, labels, epochs=sh["ft_epochs"], batch_size=16,
                         seed=seed, engine=eng, checkpoint=checkpoint,
                         resume_from=resume_from)
            else:
                with inject(plan):
                    finetune(net, x, labels, epochs=sh["ft_epochs"], batch_size=16,
                             seed=seed, engine=eng, checkpoint=checkpoint)
        return net

    baseline = run()
    store = CheckpointStore(ckpt_root / "finetune", keep=2)
    fired = 0
    try:
        plan = FaultPlan.fail("engine.worker", nth=11, match={"kind": "mlp"})
        run(checkpoint=store, plan=plan)
    except FaultError:
        fired = plan.fired()
    if not fired or store.latest() is None:
        return _row("finetune: kill back-prop worker, resume", "engine.worker",
                    fired, False, "fault did not fire")
    resumed = run(checkpoint=store, resume_from=store.directory)
    diff = max(
        float(np.abs(a.w - b.w).max()) for a, b in zip(baseline.layers, resumed.layers)
    )
    return _row("finetune: kill back-prop worker, resume", "engine.worker",
                fired, diff == 0.0, f"max |Δparam| after resume = {diff:.1e}")


def _drill_prefetch_retry(seed) -> dict:
    rng = np.random.default_rng(seed)
    chunks = [rng.random((8, 4)) for _ in range(5)]
    plan = FaultPlan.fail("prefetch.load", nth=2, match={"attempt": 0})
    with inject(plan):
        with ChunkPrefetcher(lambda i: chunks[i], n_chunks=5, retries=2,
                             retry_backoff_s=0.001) as pf:
            got = [c for c in pf]
    ok = len(got) == 5 and all(np.array_equal(a, b) for a, b in zip(got, chunks))
    return _row("prefetcher: transient load fault absorbed by retry",
                "prefetch.load", plan.fired(), ok and plan.fired() == 1,
                f"{len(got)}/5 chunks delivered after 1 transient fault")


def _drill_prefetch_hard_failure(seed) -> dict:
    plan = FaultPlan.fail("prefetch.load", nth=1, times=None)
    surfaced = False
    with inject(plan):
        def consume():
            with ChunkPrefetcher(lambda i: i, n_chunks=4, retries=1,
                                 retry_backoff_s=0.001) as pf:
                return list(pf)
        try:
            retry_transient(consume, retries=1, backoff_s=0.001)
        except PrefetchError:
            surfaced = True
    return _row("prefetcher: hard load failure surfaces as PrefetchError",
                "prefetch.load", plan.fired(), surfaced,
                "loader death propagated cleanly (no hang)")


def _drill_chunk_corruption(seed) -> dict:
    rng = np.random.default_rng(seed)
    chunks = [rng.random((8, 4)) for _ in range(4)]
    sums = [float(c.sum()) for c in chunks]
    plan = FaultPlan.corrupt("prefetch.chunk", lambda v, ctx: np.zeros_like(v), nth=1)
    detected = 0
    with inject(plan):
        with ChunkPrefetcher(lambda i: chunks[i], n_chunks=4) as pf:
            for i, chunk in enumerate(pf):
                if float(chunk.sum()) != sums[i]:
                    detected += 1
    return _row("prefetcher: corrupted chunk caught by checksum",
                "prefetch.chunk", plan.fired(), detected == 1 == plan.fired(),
                f"{detected} corrupted chunk(s) detected")


def _drill_taskgraph_node(seed) -> dict:
    graph = rbm_cd1_taskgraph()
    fns = {name: (lambda deps, _n=name: _n) for name in graph.names}
    plan = FaultPlan.fail("taskgraph.node", match={"node": "V2"})
    surfaced = False
    with inject(plan):
        try:
            graph.execute(fns, n_workers=2)
        except FaultError:
            surfaced = True
    return _row("task graph: node V2 raises mid-wavefront",
                "taskgraph.node", plan.fired(), surfaced,
                "failure propagated through the wavefront join")


def _drill_pipeline_kill(x, sh, seed, ckpt_root: Path, site: str,
                         plan_factory) -> dict:
    """Shared body for the two pipelined-pretrain kill scenarios: kill at
    the named site, resume from the last checkpoint window, and demand
    bit-identical parameters versus an uninterrupted pipelined run."""
    scenario = f"pipelined pretrain: kill at {site}, resume"

    def fresh():
        return StackedAutoencoder(x.shape[1], sh["pipe"], seed=seed)

    baseline = fresh().pretrain(x, strategy="pipelined")
    store = CheckpointStore(ckpt_root / f"pipeline-{site.split('.')[-1]}", keep=2)
    fired = 0
    try:
        with inject(plan_factory()) as plan:
            fresh().pretrain(x, strategy="pipelined", checkpoint=store)
    except FaultError:
        fired = plan.fired()
    if not fired or store.latest() is None:
        return _row(scenario, site, fired, False, "fault did not fire")
    resumed = fresh().pretrain(x, strategy="pipelined", checkpoint=store,
                               resume_from=store.directory)
    diff = _max_diff(baseline.blocks, resumed.blocks)
    return _row(scenario, site, fired, diff == 0.0,
                f"max |Δparam| after resume = {diff:.1e}")


def _drill_pipeline_stage_kill(x, sh, seed, ckpt_root: Path) -> dict:
    # Stage 1's second epoch visit: deterministically after the first
    # checkpoint window, regardless of thread interleaving.
    return _drill_pipeline_kill(
        x, sh, seed, ckpt_root, "pipeline.stage",
        lambda: FaultPlan.fail("pipeline.stage", match={"stage": 1}, nth=1),
    )


def _drill_pipeline_queue_kill(x, sh, seed, ckpt_root: Path) -> dict:
    # Stage 0's sixth push lands in epoch 1 for both drill shapes —
    # again strictly after the first window.
    return _drill_pipeline_kill(
        x, sh, seed, ckpt_root, "pipeline.queue",
        lambda: FaultPlan.fail("pipeline.queue",
                               match={"op": "push", "stage": 0}, nth=5),
    )


# ---------------------------------------------------------------------------
# chaos under load
# ---------------------------------------------------------------------------

def run_chaos_under_load(
    trace_spec: str = "mixed_train_serve",
    quick: bool = True,
    seed: int = 0,
) -> List[dict]:
    """Inject faults mid-replay and assert the SLO error budget holds.

    ``trace_spec`` is either a catalog pattern name
    (:data:`repro.workloads.PATTERNS`) or a path to a saved trace file.
    The trace replays against a three-replica router while faults fire
    on ``router.dispatch`` (absorbed by spillover), ``replica.serve``
    (a replica dies mid-run and must fail over), and — when the trace
    carries ``train`` events — ``engine.worker`` (the co-located
    training engine dies; its blast radius must not reach serving).
    """
    from repro.cluster.replica import ReplicaConfig
    from repro.cluster.router import NO_HEDGING, RoundRobinPolicy, Router
    from repro.serve.batcher import BatchPolicy
    from repro.serve.engine import ConstantServiceModel
    from repro.serve.registry import ServableModel
    from repro.testing.faults import FaultRule
    from repro.workloads import SLOGate, Trace, TraceReplayer, generate
    from repro.workloads.patterns import PATTERNS

    path = Path(trace_spec)
    if trace_spec in PATTERNS:
        trace = generate(trace_spec, seed=seed, quick=quick)
    elif path.is_file():
        trace = Trace.load(path)
    else:
        return [_row(
            "chaos under load", "-", 0, False,
            f"unknown trace {trace_spec!r}: not a catalog pattern "
            f"({sorted(PATTERNS)}) or an existing file",
        )]

    from repro.nn.autoencoder import SparseAutoencoder

    servable = ServableModel(
        "chaos-under-load", SparseAutoencoder(25, 12, seed=seed)
    )
    router = Router(
        servable,
        n_replicas=3,
        replica_config=ReplicaConfig(
            policy=BatchPolicy(max_batch_size=16, max_wait_s=2e-3,
                               max_queue_depth=256),
            n_workers=1,
            cache_entries=0,
            service_model_factory=lambda s: ConstantServiceModel(
                base_s=1e-3, per_example_s=5e-5
            ),
        ),
        policy=RoundRobinPolicy(),
        hedge=NO_HEDGING,
    )

    rules = [
        # Three dispatch attempts hit a faulty path; the router must
        # absorb every one by spilling over to the next candidate.
        FaultRule("router.dispatch", nth=5, times=3),
        # Replica 1 dies on its 9th batch; outstanding legs fail over.
        FaultRule("replica.serve", nth=8, match={"replica": 1}),
    ]
    trainer = None
    engine = None
    if trace.n_train:
        from repro.bench.slobench import TrainLoopDriver

        engine = ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=seed)
        trainer = TrainLoopDriver(seed=seed, gradient_engine=engine)
        # Kill training worker 1 on its second shard task: the training
        # tier fails while serving must keep its SLO.
        rules.append(FaultRule("engine.worker", nth=1, match={"worker": 1}))

    gate = SLOGate(p99_ms=60.0, error_budget=0.0, shed_budget=0.15)
    plan = FaultPlan(tuple(rules))
    try:
        with inject(plan):
            report = TraceReplayer(router, trace, trainer=trainer).run()
    finally:
        if engine is not None:
            engine.close()

    metrics = router.metrics
    rows = [
        _row(
            f"under load [{trace.name}]: dispatch faults absorbed by spillover",
            "router.dispatch",
            plan.fired("router.dispatch"),
            plan.fired("router.dispatch") >= 1 and metrics.dispatch_faults >= 1,
            f"{metrics.dispatch_faults} dispatch fault(s), "
            f"{report.completed}/{report.offered} completed",
        ),
        _row(
            f"under load [{trace.name}]: replica death fails over",
            "replica.serve",
            plan.fired("replica.serve"),
            plan.fired("replica.serve") >= 1
            and metrics.replica_deaths == 1
            and metrics.failed == 0,
            f"deaths={metrics.replica_deaths} rerouted={metrics.rerouted} "
            f"failed={metrics.failed} ({router.n_live} replicas live)",
        ),
    ]
    if trace.n_train:
        rows.append(_row(
            f"under load [{trace.name}]: training blast radius contained",
            "engine.worker",
            plan.fired("engine.worker"),
            plan.fired("engine.worker") >= 1
            and report.train_failures >= 1
            and report.errors == 0,
            f"train steps {report.train_steps} ok / "
            f"{report.train_failures} failed; serving errors "
            f"{report.errors} ({report.first_train_error or 'no error'})",
        ))
    slo_failures = gate.evaluate(report)
    rows.append(_row(
        f"under load [{trace.name}]: SLO held with faults injected",
        "-",
        plan.fired(),
        not slo_failures,
        "; ".join(slo_failures) if slo_failures else (
            f"p99 {report.latency_p99_s * 1e3:.2f} ms, "
            f"error rate {report.error_rate:.4f}, "
            f"shed rate {report.shed_rate:.4f}"
        ),
    ))
    return rows


# ---------------------------------------------------------------------------
# model-parallel shard drills
# ---------------------------------------------------------------------------

def run_shard_chaos(quick: bool = True, seed: int = 0) -> List[dict]:
    """Chaos drills for the model-parallel shard tier.

    Three scenarios, mirroring the sharding design's two fault surfaces:

    * a scatter leg lost to the ``shard.exchange`` fault site degrades
      the request (ensemble answer from the survivors) — never fails it;
    * a shard replica killed mid-replay (``replica.serve``) drops every
      outstanding leg on that shard, again with zero client-visible
      failures;
    * a sharded pre-training run killed at the ``shard.exchange``
      synchronisation point resumes from its last epoch snapshot
      **bit-identically** versus an uninterrupted run.
    """
    from repro.bench.shardbench import _model_params
    from repro.cluster.benchrun import drill_replica_config, replica_capacity_rps
    from repro.cluster.shardrouter import ShardRouter
    from repro.nn.sharded import sharded_pretrain
    from repro.serve.benchrun import train_demo_servable
    from repro.shard import partition
    from repro.testing.faults import SHARD_EXCHANGE_SITE
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.replay import TraceReplayer
    from repro.workloads.trace import trace_from_arrivals

    rows: List[dict] = []
    servable = train_demo_servable(
        n_examples=96 if quick else 192,
        epochs=2 if quick else 3,
        seed=seed,
    )
    rate = 0.5 * replica_capacity_rps(servable)
    trace = trace_from_arrivals(
        PoissonArrivals(rate), 0.05 if quick else 0.1, seed=seed
    )

    # -- scatter leg lost at shard.exchange -------------------------------
    router = ShardRouter(
        partition(servable.model, 2), replica_config=drill_replica_config()
    )
    plan = FaultPlan.fail(SHARD_EXCHANGE_SITE, nth=4, times=3,
                          match={"phase": "scatter"})
    with inject(plan):
        TraceReplayer(router, trace).run()
    metrics = router.metrics
    ok = (
        plan.fired() >= 1
        and metrics.failed == 0
        and router.degraded_requests >= 1
    )
    rows.append(_row(
        "sharded serving: scatter legs lost, requests degrade",
        SHARD_EXCHANGE_SITE, plan.fired(), ok,
        f"{metrics.completed}/{trace.n_requests} served, failed={metrics.failed}, "
        f"degraded={router.degraded_requests}",
    ))

    # -- shard replica killed mid-replay ----------------------------------
    router = ShardRouter(
        partition(servable.model, 2), replica_config=drill_replica_config()
    )
    victim = router.placement[1]
    plan = FaultPlan.fail("replica.serve", nth=3, match={"replica": victim})
    with inject(plan):
        TraceReplayer(router, trace).run()
    metrics = router.metrics
    ok = (
        plan.fired() >= 1
        and metrics.failed == 0
        and metrics.replica_deaths == 1
        and router.degraded_requests >= 1
    )
    rows.append(_row(
        "sharded serving: shard replica killed, survivors answer",
        "replica.serve", plan.fired(), ok,
        f"{metrics.completed}/{trace.n_requests} served, failed={metrics.failed}, "
        f"deaths={metrics.replica_deaths}, degraded={router.degraded_requests}",
    ))

    # -- pre-training killed at the exchange point -------------------------
    rng = np.random.default_rng(seed)
    x = rng.random((48, 12))
    specs = [LayerSpec(8, epochs=2, batch_size=16),
             LayerSpec(6, epochs=2, batch_size=16)]

    def fresh():
        return StackedAutoencoder(12, specs, seed=seed)

    kwargs = dict(exchange_every=2)
    baseline = fresh()
    shards_base = sharded_pretrain(baseline, x, 2, **kwargs)
    with tempfile.TemporaryDirectory(prefix="repro-shard-chaos-") as tmp:
        store = CheckpointStore(tmp, keep=8)
        fired = 0
        try:
            with inject(FaultPlan.fail(SHARD_EXCHANGE_SITE, nth=2)) as plan:
                sharded_pretrain(fresh(), x, 2, checkpoint=store, **kwargs)
        except FaultError:
            fired = plan.fired()
        if not fired or store.latest() is None:
            rows.append(_row(
                "sharded pretrain: kill at shard.exchange, resume",
                SHARD_EXCHANGE_SITE, fired, False, "fault did not fire",
            ))
            return rows
        shards_resumed = sharded_pretrain(
            fresh(), x, 2, resume_from=store, **kwargs
        )
    diff = 0.0
    for a, b in zip(shards_base, shards_resumed):
        for pa, pb in zip(_model_params(a.model), _model_params(b.model)):
            diff = max(diff, float(np.abs(pa - pb).max()))
        for ca, cb in zip(a.cross, b.cross):
            diff = max(diff, float(np.abs(ca.values - cb.values).max()))
    rows.append(_row(
        "sharded pretrain: kill at shard.exchange, resume",
        SHARD_EXCHANGE_SITE, fired, diff == 0.0,
        f"max |Δparam| after resume = {diff:.1e}",
    ))
    return rows


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def resume_drill(checkpoint_dir, quick: bool = True, seed: int = 0) -> List[dict]:
    """Finish an interrupted drill run from its on-disk checkpoints.

    Scans the standard sub-stores written by :func:`run_chaos`
    (``sae/``, ``dbn/``, ``finetune/``) and resumes each one that holds a
    snapshot, reporting the recovered final training error.
    """
    sh = _shapes(quick)
    x, labels = digit_dataset(sh["n"], size=sh["size"], seed=7)
    root = Path(checkpoint_dir)
    rows: List[dict] = []
    sae_store = root / "sae"
    if CheckpointStore(sae_store).latest() is not None:
        cost = SparseAutoencoderCost(weight_decay=1e-3, sparsity_target=0.1,
                                     sparsity_weight=0.3)
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=seed) as eng:
            stack = StackedAutoencoder(x.shape[1], sh["sae"], cost=cost, seed=seed)
            stack.pretrain(x, engine=eng, resume_from=sae_store)
        rows.append(_row("resume SAE pretrain from disk", "-", 0, True,
                         f"final reconstruction error {stack.layer_errors[-1][-1]:.4f}"))
    dbn_store = root / "dbn"
    if CheckpointStore(dbn_store).latest() is not None:
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=seed) as eng:
            dbn = DeepBeliefNetwork(x.shape[1], sh["dbn"], seed=seed)
            dbn.pretrain((x > 0.5).astype(np.float64), engine=eng,
                         resume_from=dbn_store)
        rows.append(_row("resume DBN pretrain from disk", "-", 0, True,
                         f"final reconstruction error {dbn.layer_errors[-1][-1]:.4f}"))
    for sub in ("pipeline-stage", "pipeline-queue"):
        pipe_store = root / sub
        if CheckpointStore(pipe_store).latest() is not None:
            stack = StackedAutoencoder(x.shape[1], sh["pipe"], seed=seed)
            stack.pretrain(x, strategy="pipelined", resume_from=pipe_store)
            rows.append(_row(f"resume pipelined pretrain from disk ({sub})",
                             "-", 0, True,
                             f"final reconstruction error "
                             f"{stack.layer_errors[-1][-1]:.4f}"))
    ft_store = root / "finetune"
    if CheckpointStore(ft_store).latest() is not None:
        net = DeepNetwork([x.shape[1], sh["ft_hidden"], 10], head="softmax", seed=seed)
        with ParallelGradientEngine(N_WORKERS, blas_threads=None, seed=seed) as eng:
            result = finetune(net, x, labels, epochs=sh["ft_epochs"], batch_size=16,
                              seed=seed, engine=eng, resume_from=ft_store)
        rows.append(_row("resume finetune from disk", "-", 0, True,
                         f"final loss {result.final_loss:.4f}"))
    if not rows:
        rows.append(_row("resume from disk", "-", 0, False,
                         f"no checkpoints under {root}"))
    return rows


def run_chaos(
    quick: bool = True,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    seed: int = 0,
    under_load: Optional[str] = None,
    shard: bool = False,
) -> List[dict]:
    """Run the full drill; returns one row per scenario (``ok`` per row)."""
    if shard:
        return run_shard_chaos(quick=quick, seed=seed)
    if under_load is not None:
        return run_chaos_under_load(under_load, quick=quick, seed=seed)
    if resume:
        if checkpoint_dir is None:
            return [_row("resume from disk", "-", 0, False,
                         "--resume requires --checkpoint-dir")]
        return resume_drill(checkpoint_dir, quick=quick, seed=seed)
    sh = _shapes(quick)
    x, labels = digit_dataset(sh["n"], size=sh["size"], seed=7)
    tmp = None
    if checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        root = Path(tmp.name)
    else:
        root = Path(checkpoint_dir)
    try:
        return [
            _drill_sae_worker_kill(x, sh, seed, root),
            _drill_dbn_reduce_kill(x, sh, seed, root),
            _drill_finetune_kill(x, labels, sh, seed, root),
            _drill_pipeline_stage_kill(x, sh, seed, root),
            _drill_pipeline_queue_kill(x, sh, seed, root),
            _drill_prefetch_retry(seed),
            _drill_prefetch_hard_failure(seed),
            _drill_chunk_corruption(seed),
            _drill_taskgraph_node(seed),
        ]
    finally:
        if tmp is not None:
            tmp.cleanup()
