"""The workloads bench: trace-driven workload runs with SLO gates.

Each of the four catalog patterns (:mod:`repro.workloads.patterns`)
replays against the serving tier it stresses, and the resulting
:class:`~repro.workloads.replay.ReplayReport` is scored by a per-trace
:class:`~repro.workloads.slo.SLOGate`:

* **diurnal** — a single cached :class:`~repro.serve.ServingEngine`;
  the skewed key stream must keep the feature-cache hit rate high;
* **flash_crowd** — a two-replica :class:`~repro.cluster.Router` with
  least-loaded routing; the spike may shed within budget but must not
  lose requests;
* **cache_busting** — a consistent-hash fleet with per-replica caches;
  the adversarial key sweep must drive the hit rate to ≈ 0 (the trace
  is working as designed) while the SLO still holds;
* **mixed_train_serve** — serving plus a real
  :class:`~repro.train.loop.TrainLoop` stepped by
  :class:`TrainLoopDriver` on the trace's ``train`` events, contending
  for the same simulated workers (the paper's offload-overlap regime).

Everything runs on the simulated clock with an analytic
:class:`~repro.serve.engine.ConstantServiceModel`, so the committed
``BENCH_workloads.json`` is machine-independent and its regression
fence (:data:`repro.bench.benches.WORKLOADS`) is exact, not advisory.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.batcher import BatchPolicy
from repro.serve.cache import FeatureCache
from repro.serve.engine import ConstantServiceModel, ServingEngine
from repro.serve.registry import ServableModel
from repro.train.loop import TrainStep
from repro.workloads.patterns import PATTERNS, generate
from repro.workloads.replay import ReplayReport, TraceReplayer
from repro.workloads.slo import SLOGate
from repro.workloads.trace import Trace

SCHEMA = "workloads-bench/v1"

#: shared engine shape: bounded queue so overload sheds (backpressure)
#: instead of growing tails without bound.
SLO_POLICY = BatchPolicy(max_batch_size=16, max_wait_s=2e-3, max_queue_depth=256)

#: analytic service model shared by every scenario (simulated seconds).
SERVICE_BASE_S = 1e-3
SERVICE_PER_EXAMPLE_S = 5e-5


def _service_model(_servable=None) -> ConstantServiceModel:
    return ConstantServiceModel(
        base_s=SERVICE_BASE_S, per_example_s=SERVICE_PER_EXAMPLE_S
    )


def demo_servable(seed: int = 0, n_visible: int = 25, n_hidden: int = 16) -> ServableModel:
    """A small untrained SAE wrapped for serving (weights are seeded)."""
    from repro.nn.autoencoder import SparseAutoencoder

    return ServableModel("slo-demo", SparseAutoencoder(n_visible, n_hidden, seed=seed))


# ---------------------------------------------------------------------------
# the mixed train+serve driver
# ---------------------------------------------------------------------------

class _SAEDriverStep(TrainStep):
    """Minimal :class:`~repro.train.loop.TrainStep` over one SAE block."""

    kind = "mixed-workload SAE"

    def __init__(self, model, x: np.ndarray, learning_rate: float, workspace):
        self.model = model
        self.x = x
        self.learning_rate = float(learning_rate)
        self.ws = workspace

    def n_examples(self) -> int:
        return int(self.x.shape[0])

    def load(self, idx: np.ndarray) -> np.ndarray:
        return self.x[idx]

    def compute(self, batch):
        loss, grads = self.model.gradients_into(batch, self.ws)
        return loss, grads

    def apply(self, grads) -> None:
        self.model.apply_update(grads, self.learning_rate, workspace=self.ws)

    def engine_compute(self, engine, batch):
        return engine.sae_gradients(self.model, batch)

    def engine_apply(self, engine, grads) -> None:
        self.model.apply_update(
            grads, self.learning_rate, workspace=engine.coordinator_workspace
        )

    def epoch_metric(self, epoch_losses) -> float:
        return float(np.mean(epoch_losses)) if epoch_losses else 0.0


class TrainLoopDriver:
    """Adapts a real :class:`~repro.train.loop.TrainLoop` to trace replay.

    Each ``train`` event runs exactly one incremental epoch
    (``run_epochs(epochs=k+1, start_epoch=k)``), so the training state
    advances deterministically with the trace.  When ``occupy`` (an
    engine with a :class:`~repro.serve.engine.WorkerPool`) is given, a
    completed step seizes one idle serving worker for ``step_seconds``
    of simulated time — serving and training genuinely contend for the
    same cores, the overlap regime the paper's offload pipeline targets.
    Steps that find no idle worker are counted in ``contended``.

    ``gradient_engine`` routes the gradient computation through a
    parallel engine (and therefore through its ``engine.worker`` fault
    site — the chaos-under-load drills use this to kill training while
    serving keeps its SLO).
    """

    def __init__(
        self,
        model=None,
        x: Optional[np.ndarray] = None,
        *,
        learning_rate: float = 0.1,
        batch_size: int = 32,
        seed: int = 0,
        gradient_engine=None,
        occupy=None,
        step_seconds: float = 2e-3,
    ):
        from repro.data.synth_digits import digit_dataset
        from repro.nn.autoencoder import SparseAutoencoder
        from repro.runtime.workspace import Workspace
        from repro.train.loop import TrainLoop
        from repro.utils.rng import as_generator

        if step_seconds <= 0:
            raise ConfigurationError(
                f"step_seconds must be > 0, got {step_seconds}"
            )
        if x is None:
            x, _ = digit_dataset(128, size=5, seed=seed)
        self.x = np.asarray(x, dtype=np.float64)
        if model is None:
            model = SparseAutoencoder(self.x.shape[1], 12, seed=seed)
        self.model = model
        self.loop = TrainLoop(engine=gradient_engine)
        self._step = _SAEDriverStep(
            model, self.x, learning_rate, Workspace(name="slo-driver")
        )
        self._rng = as_generator(seed)
        self.batch_size = int(batch_size)
        self.occupy = occupy
        self.step_seconds = float(step_seconds)
        self.epochs_run = 0
        self.contended = 0
        self.metrics: List[float] = []

    def step(self, now: float) -> float:
        """One incremental training epoch; returns simulated seconds."""
        self.loop.run_epochs(
            self._step,
            epochs=self.epochs_run + 1,
            batch_size=self.batch_size,
            rng=self._rng,
            start_epoch=self.epochs_run,
            metrics=self.metrics,
        )
        self.epochs_run += 1
        if self.occupy is not None:
            worker = self.occupy.workers.acquire(now)
            if worker is not None:
                self.occupy.workers.busy_until(worker, now + self.step_seconds)
            else:
                self.contended += 1
        return self.step_seconds


# ---------------------------------------------------------------------------
# scenario targets + SLOs
# ---------------------------------------------------------------------------

def _engine_target(
    servable: ServableModel, cache_entries: int = 0, n_workers: int = 1
) -> ServingEngine:
    return ServingEngine(
        servable,
        policy=SLO_POLICY,
        service_model=_service_model(),
        n_workers=n_workers,
        cache=FeatureCache(cache_entries) if cache_entries else None,
    )


def _router_target(servable: ServableModel, policy, cache_entries: int = 0):
    from repro.cluster.replica import ReplicaConfig
    from repro.cluster.router import NO_HEDGING, Router

    return Router(
        servable,
        n_replicas=2,
        replica_config=ReplicaConfig(
            policy=SLO_POLICY,
            n_workers=1,
            cache_entries=cache_entries,
            service_model_factory=_service_model,
        ),
        policy=policy,
        hedge=NO_HEDGING,
    )


def scenario_for(pattern: str, servable: ServableModel, seed: int = 0):
    """(target, trainer, SLOGate) for one catalog pattern."""
    from repro.cluster.router import ConsistentHashPolicy, LeastLoadedPolicy

    if pattern == "diurnal":
        return _engine_target(servable, cache_entries=256), None, SLOGate(
            p99_ms=30.0, error_budget=0.0, shed_budget=0.01
        )
    if pattern == "flash_crowd":
        return _router_target(servable, LeastLoadedPolicy()), None, SLOGate(
            p99_ms=60.0, error_budget=0.0, shed_budget=0.15
        )
    if pattern == "cache_busting":
        return (
            _router_target(servable, ConsistentHashPolicy(), cache_entries=256),
            None,
            SLOGate(p99_ms=60.0, error_budget=0.0, shed_budget=0.15),
        )
    if pattern == "mixed_train_serve":
        engine = _engine_target(servable, cache_entries=0, n_workers=2)
        trainer = TrainLoopDriver(seed=seed, occupy=engine)
        return engine, trainer, SLOGate(
            p99_ms=60.0, error_budget=0.0, shed_budget=0.05
        )
    raise ConfigurationError(
        f"unknown pattern {pattern!r} (expected one of {sorted(PATTERNS)})"
    )


def run_trace(
    trace: Trace,
    servable: Optional[ServableModel] = None,
    seed: int = 0,
) -> ReplayReport:
    """Replay one trace against its catalog scenario (ad-hoc entry point)."""
    if servable is None:
        servable = demo_servable(seed=seed)
    pattern = trace.pattern or trace.name
    target, trainer, _ = scenario_for(pattern, servable, seed=seed)
    return TraceReplayer(target, trace, trainer=trainer).run()


# ---------------------------------------------------------------------------
# the full bench
# ---------------------------------------------------------------------------

def run_workloads_bench(
    quick: bool = False,
    seed: int = 0,
    servable: Optional[ServableModel] = None,
) -> Dict[str, object]:
    """Replay all four patterns; returns the JSON-serialisable report."""
    if servable is None:
        servable = demo_servable(seed=seed)
    rows: List[Dict[str, object]] = []
    for pattern in sorted(PATTERNS):
        trace = generate(pattern, seed=seed, quick=quick)
        target, trainer, gate = scenario_for(pattern, servable, seed=seed)
        report = TraceReplayer(target, trace, trainer=trainer).run()
        slo_failures = gate.evaluate(report)
        row: Dict[str, object] = {
            "kind": pattern,
            "fingerprint": report.fingerprint,
            "offered": report.offered,
            "completed": report.completed,
            "shed": report.shed,
            "errors": report.errors,
            "cache_hits": report.cache_hits,
            "cache_hit_rate": (
                report.cache_hits / report.completed if report.completed else 0.0
            ),
            "throughput_rps": report.throughput_rps,
            "goodput_fraction": report.goodput_fraction,
            "p50_ms": report.latency_p50_s * 1e3,
            "p99_ms": report.latency_p99_s * 1e3,
            "train_steps": report.train_steps,
            "train_failures": report.train_failures,
            "slo_failures": slo_failures,
            "slo_ok": not slo_failures,
        }
        row.update(gate.as_row())
        if trainer is not None:
            row["train_contended"] = trainer.contended
        rows.append(row)
    return {"schema": SCHEMA, "seed": int(seed), "quick": bool(quick), "rows": rows}

