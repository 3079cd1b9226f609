"""The four benchmark workloads: inputs from a seed, a timed run, checks.

Every workload is driven through the program's public API from one
process with at most two threads.  ``setup`` builds the inputs (data,
patches, traces, models) from the seed; ``run`` measures for a given
number of seconds and checks the outputs.  With a :class:`Tracer`
enabled, ``run`` also records layer spans (see :mod:`perfbench.tracing`).
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench.env import OUT_DIR
from perfbench.hostspeed import HostSpeed
from perfbench.loadgen import Segment, capacity_search, run_closed, run_segment
from perfbench.tracing import Tracer, layer_of
from repro import (
    ChunkSchedule,
    DeepBeliefNetwork,
    LayerSpec,
    StackedAutoencoder,
    TrainingCallback,
    digit_dataset,
    extract_patches,
    make_natural_images,
    normalize_patches,
    whiten_patches,
)
from repro.nn.finetune import finetune
from repro.nn.mlp import DeepNetwork
from repro.runtime.procexec import make_engine
from repro.train.batches import batch_bounds, epoch_order
from repro.utils.rng import spawn_generators

clock = time.perf_counter


@dataclass
class RunResult:
    """Everything one run measured and checked."""

    e2e: Dict[str, float]
    details: Dict[str, tuple]  # name -> (value, unit), printed only
    layers: Dict[str, float]
    attempted: int
    failed: int
    failures: List[str]
    outputs: dict = field(repr=False)  # compared between traced and untraced passes
    peak_rss_mb: Optional[float] = None  # None: measure at the end of the run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sub_seeds(seed: int, n: int) -> List[int]:
    return [int(s) for s in np.random.SeedSequence(int(seed)).generate_state(n)]


# ---------------------------------------------------------------------------
# tracing targets: the public functions each layer's spans are taken around
# ---------------------------------------------------------------------------

def _sae_flops(model, x, *args, **kwargs) -> float:
    # encode, decode, output delta -> hidden delta, grad W2, grad W1
    return 10.0 * x.shape[0] * model.n_visible * model.n_hidden


def _rbm_flops(rbm, v0, *args, k: int = 1, **kwargs) -> float:
    # 1 + 2k Gibbs GEMMs plus the positive and negative statistics
    return 2.0 * v0.shape[0] * rbm.n_visible * rbm.n_hidden * (3 + 2 * k)


def _mlp_flops(net, x, *args, **kwargs) -> float:
    # forward + weight gradient per layer, delta propagation above layer 0
    sizes = net.layer_sizes
    per = [a * b for a, b in zip(sizes[:-1], sizes[1:])]
    return 2.0 * x.shape[0] * (3 * sum(per) - per[0])


def _rows(servable, x, *args, **kwargs) -> float:
    return float(np.shape(x)[0])


def _ckpt_bytes(store, header, arrays, *args, **kwargs) -> float:
    return float(sum(np.asarray(a).nbytes for a in arrays.values()))


def instrument_targets() -> list:
    from repro.cluster import shardrouter
    from repro.cluster.replica import Replica
    from repro.cluster.router import Router
    from repro.nn.autoencoder import SparseAutoencoder
    from repro.nn.rbm import RBM
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.executor import ParallelGradientEngine
    from repro.serve.engine import ServingEngine
    from repro.serve.registry import ServableModel

    return [
        (SparseAutoencoder, "gradients_into", "nn.gradients", _sae_flops),
        (SparseAutoencoder, "apply_update", "nn.apply"),
        (SparseAutoencoder, "reconstruction_error", "nn.epoch_metric"),
        (SparseAutoencoder, "encode", "nn.encode"),
        (RBM, "contrastive_divergence", "nn.gradients", _rbm_flops),
        (RBM, "apply_update", "nn.apply"),
        (RBM, "transform", "nn.encode"),
        (DeepNetwork, "gradients_into", "nn.gradients", _mlp_flops),
        (DeepNetwork, "apply_update", "nn.apply"),
        (DeepNetwork, "accuracy", "nn.epoch_metric"),
        (ParallelGradientEngine, "cd_gradients", "runtime.engine"),
        (ParallelGradientEngine, "supervised_gradients", "runtime.engine"),
        (CheckpointStore, "save", "runtime.checkpoint", _ckpt_bytes),
        (Router, "submit", "router.submit"),
        (Router, "poll", "router.poll"),
        (shardrouter.ShardRouter, "submit", "shardrouter.submit"),
        (shardrouter.ShardRouter, "poll", "shardrouter.poll"),
        (shardrouter, "gather_outputs", "shard.gather"),
        (Replica, "submit", "replica.submit"),
        (Replica, "poll", "replica.poll"),
        (ServingEngine, "submit", "serve.submit"),
        (ServingEngine, "poll", "serve.poll"),
        (ServableModel, "predict", "nn.forward", _rows),
    ]


# ---------------------------------------------------------------------------
# training: per-update phase timings from the loop's callback surface
# ---------------------------------------------------------------------------

class UpdateTimer(TrainingCallback):
    """Collects each update's :class:`PhaseTimings` and the gap before it.

    ``first_layer`` holds the update times of the first block of each
    pre-training run: the stack's largest, and one population - pooling
    blocks of different widths would put the median between two modes.
    """

    def __init__(self):
        self.totals: List[float] = []
        self.first_layer: List[float] = []
        self.load_s = self.compute_s = self.apply_s = self.gap_s = 0.0
        self._last = clock()
        self._layer = 0

    def begin(self, pretrain: bool = True) -> None:
        self._last = clock()
        self._layer = 0 if pretrain else -1

    def on_update(self, event) -> None:
        now = clock()
        t = event.timings
        self.totals.append(t.total_s)
        if self._layer == 0:
            self.first_layer.append(t.total_s)
        self.load_s += t.load_s
        self.compute_s += t.compute_s + t.reduce_s
        self.apply_s += t.apply_s
        self.gap_s += max(0.0, (now - self._last) - t.total_s)
        self._last = now

    def on_epoch(self, event) -> None:
        pass

    def on_layer(self, event) -> None:
        self._layer += 1

    def layer_metrics(self) -> Dict[str, float]:
        return {
            "train.updates": float(len(self.totals)),
            "train.load_s": self.load_s,
            "train.compute_s": self.compute_s,
            "train.apply_s": self.apply_s,
            "train.gap_s": self.gap_s,
        }


def _timed_reps(seconds: float, min_reps: int, rep: Callable[[], dict],
                host: HostSpeed) -> List[dict]:
    """Repeat ``rep`` for ``seconds`` (at least ``min_reps`` times); each
    result gets the host speed measured just before and after it."""
    host.sample()
    reps: List[dict] = []
    deadline = clock() + seconds
    while len(reps) < min_reps or clock() < deadline:
        result = rep()
        host.sample()
        result["speed"] = host.speed(host.samples[-2:])
        reps.append(result)
    return reps


def _training_e2e(reps: List[dict], examples: int, wall_key: str) -> tuple:
    """Host-corrected examples/s (median over reps) and first-block update
    latency; returns ``(e2e, details)`` with raw rates and the tail."""
    rates = [examples / r[wall_key] for r in reps]
    raw = np.concatenate([r["updates"] for r in reps]) * 1e3
    updates = np.concatenate([np.asarray(r["updates"]) * r["speed"] for r in reps]) * 1e3
    e2e = {
        "throughput_per_s": statistics.median(x / r["speed"] for x, r in zip(rates, reps)),
        "latency_p50_ms": float(np.percentile(updates, 50)),
    }
    details = {
        "raw_examples_per_s": (statistics.median(rates), "1/s"),
        "update_p90_ms": (float(np.percentile(updates, 90)), "ms"),
        "update_p99_ms": (float(np.percentile(updates, 99)), "ms"),
        "raw_update_p50_ms": (float(np.percentile(raw, 50)), "ms"),
        "raw_update_p90_ms": (float(np.percentile(raw, 90)), "ms"),
        "host_speed": (statistics.median(r["speed"] for r in reps), "x"),
    }
    return e2e, details


# ---------------------------------------------------------------------------
# pretrain_sae
# ---------------------------------------------------------------------------

SAE_SIZE = dict(n_patches=3000, patch=24, images=10, image_px=128,
                widths=(400, 200), epochs=2, batch=100, lr=1.0)


@dataclass
class SAEState:
    x: np.ndarray
    specs: list
    model_seed: int
    size: dict


def setup_pretrain_sae(seed: int, seconds: float, size: Optional[dict] = None,
                       tracer: Optional[Tracer] = None) -> SAEState:
    size = dict(SAE_SIZE, **(size or {}))
    tracer = tracer or Tracer(enabled=False)
    s_img, s_patch, s_model = _sub_seeds(seed, 3)
    with tracer.span("data.patches"):
        images = make_natural_images(size["images"], size=size["image_px"], seed=s_img)
        patches = extract_patches(images, size["patch"], size["n_patches"], seed=s_patch)
        x = normalize_patches(whiten_patches(patches))
    specs = [LayerSpec(h, size["lr"], size["epochs"], size["batch"]) for h in size["widths"]]
    return SAEState(x=x, specs=specs, model_seed=s_model, size=size)


def _reference_sae_errors(state: SAEState) -> List[float]:
    """Per-layer final epoch errors from an independent serial loop over the
    unfused reference gradients (same RNG layout as the greedy stack)."""
    from repro.nn.autoencoder import SparseAutoencoder
    from repro.nn.cost import SparseAutoencoderCost

    n_layers = len(state.specs)
    rngs = spawn_generators(state.model_seed, 2 * n_layers)
    cost = SparseAutoencoderCost()
    current, n_in, finals = state.x, state.x.shape[1], []
    for i, spec in enumerate(state.specs):
        block = SparseAutoencoder(n_in, spec.n_hidden, cost=cost, seed=rngs[2 * i])
        err = float("nan")
        for _ in range(spec.epochs):
            order = epoch_order(current.shape[0], rngs[2 * i + 1])
            for lo, hi in batch_bounds(current.shape[0], spec.batch_size):
                _, grads = block.gradients(current[order[lo:hi]])
                block.apply_update(grads, spec.learning_rate)
            err = float(block.reconstruction_error(current))
        finals.append(err)
        current = block.encode(current)
        n_in = spec.n_hidden
    return finals


def run_pretrain_sae(state: SAEState, seconds: float, tracer: Tracer,
                     full: bool = True) -> RunResult:
    timer = UpdateTimer()
    n, epochs = state.x.shape[0], sum(s.epochs for s in state.specs)

    def rep() -> dict:
        start = len(timer.first_layer)
        with tracer.span("bench.rep"):
            t0 = clock()
            stack = StackedAutoencoder(state.x.shape[1], state.specs, seed=state.model_seed)
            timer.begin()
            with tracer.span("train.pretrain"):
                stack.pretrain(state.x, callbacks=timer)
            wall = clock() - t0
        return {"wall": wall, "errors": [list(e) for e in stack.layer_errors],
                "updates": timer.first_layer[start:]}

    with tracer.instrument(instrument_targets()):
        # The SAE is GEMM-bound: its host-speed kernel is GEMMs only.
        reps = _timed_reps(seconds, 3, rep, HostSpeed(gemms=16, interp_rounds=0))
    reference = _reference_sae_errors(state)
    failures = []
    first = reps[0]["errors"]
    for k, r in enumerate(reps):
        finals = [e[-1] for e in r["errors"]]
        if r["errors"] != first:
            failures.append(f"rep {k}: losses differ from rep 0 at the same seed")
        elif not np.allclose(finals, reference, rtol=1e-9, atol=0.0):
            failures.append(f"rep {k}: final losses {finals} != reference {reference}")
    walls = [r["wall"] for r in reps]
    e2e, timing = _training_e2e(reps, n * epochs, "wall")
    final_loss = first[-1][-1]
    details = {
        "pretrain_examples_per_s": (e2e["throughput_per_s"], "1/s"),
        **timing,
        "final_loss": (final_loss, "mse"),
        "reps": (len(reps), "count"),
        "rep_wall_s": (statistics.mean(walls), "s"),
    }
    return RunResult(e2e, details, timer.layer_metrics(), attempted=len(reps), failed=len(failures),
                     failures=failures, outputs={"errors": first, "reference": reference})


# ---------------------------------------------------------------------------
# train_dbn_parallel
# ---------------------------------------------------------------------------

DBN_SIZE = dict(n_train=2400, n_heldout=600, digit_px=16, widths=(128, 64),
                epochs=3, batch=32, lr=0.1, ft_epochs=3, ft_lr=0.3,
                chunk_batches=10, workers=2, accuracy_floor=0.6)


@dataclass
class DBNState:
    x: np.ndarray
    labels: np.ndarray
    x_heldout: np.ndarray
    labels_heldout: np.ndarray
    specs: list
    model_seeds: List[int]
    size: dict


def setup_train_dbn(seed: int, seconds: float, size: Optional[dict] = None,
                    tracer: Optional[Tracer] = None) -> DBNState:
    size = dict(DBN_SIZE, **(size or {}))
    tracer = tracer or Tracer(enabled=False)
    s_data, *model_seeds = _sub_seeds(seed, 4)
    n_train, n_held = size["n_train"], size["n_heldout"]
    with tracer.span("data.digits"):
        x, labels = digit_dataset(n_train + n_held, size=size["digit_px"], seed=s_data)
    specs = [LayerSpec(h, size["lr"], size["epochs"], size["batch"]) for h in size["widths"]]
    return DBNState(x=x[:n_train], labels=labels[:n_train], x_heldout=x[n_train:],
                    labels_heldout=labels[n_train:], specs=specs,
                    model_seeds=model_seeds, size=size)


def _train_dbn_once(state: DBNState, engine, ckpt_dir: str, tracer: Tracer,
                    timer: Optional[UpdateTimer], start_from=None) -> dict:
    """Pre-train the DBN and fine-tune a classifier through one engine
    (``None`` = serial).  ``start_from`` fine-tunes that stack instead of
    the one just pre-trained (the serial baseline's equivalence check)."""
    size = state.size
    s_stack, s_net, s_ft = state.model_seeds
    chunks = ChunkSchedule(size["chunk_batches"] * size["batch"], n_buffers=2)
    callbacks = [timer] if timer is not None else None
    t0 = clock()
    dbn = DeepBeliefNetwork(state.x.shape[1], state.specs, seed=s_stack)
    if timer is not None:
        timer.begin()
    with tracer.span("train.pretrain"):
        dbn.pretrain(state.x, engine=engine, chunks=chunks, callbacks=callbacks,
                     checkpoint=os.path.join(ckpt_dir, "pretrain"))
    t1 = clock()
    net = DeepNetwork.from_pretrained_stack(start_from or dbn, 10, seed=s_net)
    if timer is not None:
        timer.begin(pretrain=False)
    with tracer.span("train.finetune"):
        result = finetune(net, state.x, state.labels, learning_rate=size["ft_lr"],
                          batch_size=size["batch"], epochs=size["ft_epochs"], seed=s_ft,
                          engine=engine, chunks=chunks, callbacks=callbacks,
                          checkpoint=os.path.join(ckpt_dir, "finetune"))
    t2 = clock()
    return {"pretrain_s": t1 - t0, "finetune_s": t2 - t1, "stack": dbn,
            "net": net, "losses": list(result.losses),
            "layer_errors": [list(e) for e in dbn.layer_errors]}


def run_train_dbn(state: DBNState, seconds: float, tracer: Tracer,
                  full: bool = True) -> RunResult:
    size = state.size
    timer = UpdateTimer()
    ckpt_root = os.path.join(OUT_DIR, f"ckpt-{os.getpid()}")

    kept = {}

    def rep() -> dict:
        start = len(timer.first_layer)
        with tracer.span("bench.rep"):
            try:
                with make_engine("thread", n_workers=size["workers"], seed=0,
                                 name="perfbench") as engine:
                    par = _train_dbn_once(state, engine, ckpt_root, tracer, timer)
            finally:
                shutil.rmtree(ckpt_root, ignore_errors=True)
        acc = par["net"].accuracy(state.x_heldout, state.labels_heldout)
        kept.setdefault("stack", par["stack"])
        del par["stack"], par["net"]  # keep numbers only: memory must not grow with reps
        return {"par": par, "accuracy": acc, "updates": timer.first_layer[start:],
                "par_wall": par["pretrain_s"] + par["finetune_s"]}

    with tracer.instrument(instrument_targets()):
        reps = _timed_reps(seconds, 3, rep, HostSpeed())
        # The single-worker baseline, once per run: the same task with no
        # engine, fine-tuning the stack that repetition 0 pre-trained.
        with tracer.span("bench.rep"):
            try:
                ser = _train_dbn_once(state, None, ckpt_root + "-serial", tracer, None,
                                      start_from=kept.pop("stack"))
            finally:
                shutil.rmtree(ckpt_root + "-serial", ignore_errors=True)
    failures = []
    failed_reps = set()
    first = reps[0]["par"]
    for k, r in enumerate(reps):
        par = r["par"]
        diff = float(np.max(np.abs(np.subtract(par["losses"], ser["losses"]))))
        problems = []
        if diff > 1e-10:
            problems.append(f"W={size['workers']} fine-tune losses differ from serial "
                            f"by {diff:g} > 1e-10")
        if par["losses"] != first["losses"] or par["layer_errors"] != first["layer_errors"]:
            problems.append("losses differ from rep 0 at the same seed")
        if not r["accuracy"] >= size["accuracy_floor"]:
            problems.append(f"held-out accuracy {r['accuracy']:.3f} below "
                            f"floor {size['accuracy_floor']}")
        if problems:
            failed_reps.add(k)
            failures.extend(f"rep {k}: {p}" for p in problems)
    n = state.x.shape[0]
    pre_ex = n * sum(s.epochs for s in state.specs)
    ft_ex = n * size["ft_epochs"]
    par_walls = [r["par"]["pretrain_s"] + r["par"]["finetune_s"] for r in reps]
    e2e, timing = _training_e2e(reps, pre_ex + ft_ex, "par_wall")
    ft_losses = first["losses"]
    per_epoch = math.ceil(n / size["batch"])
    final_loss = float(np.mean(ft_losses[-per_epoch:]))
    details = {
        "pretrain_examples_per_s": (statistics.median(
            pre_ex / r["par"]["pretrain_s"] / r["speed"] for r in reps), "1/s"),
        "finetune_examples_per_s": (statistics.median(
            ft_ex / r["par"]["finetune_s"] / r["speed"] for r in reps), "1/s"),
        **timing,
        "final_loss": (final_loss, "xent"),
        "heldout_accuracy": (reps[0]["accuracy"], "frac"),
        "reps": (len(reps), "count"),
        "rep_wall_s": (statistics.mean(par_walls), "s"),
    }
    layers = timer.layer_metrics()
    layers["runtime.engine.scaling"] = ((ser["pretrain_s"] + ser["finetune_s"])
                                        / statistics.median(par_walls))
    outputs = {"losses": ft_losses, "layer_errors": first["layer_errors"],
               "accuracy": reps[0]["accuracy"]}
    return RunResult(e2e, details, layers, attempted=len(reps), failed=len(failed_reps),
                     failures=failures, outputs=outputs)


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------

# Sizing (measured values in NOTES.md):
# - nominal_rps is an eighth of the workload's host-speed corrected
#   saturation throughput, rounded down to a multiple of 1000 rps: in the
#   open loop, small batches cost about twice as much per request as at
#   saturation, so the one thread that generates and serves stays about a
#   third busy even on a host at 0.65 of reference speed;
# - limit_ms is ten batching windows (max_wait_s);
# - serve_skewed's cache_entries makes about 80% of requests cache hits,
#   clearly more than half.
SKEWED_SIZE = dict(pool=2048, digit_px=16, widths=(256, 128, 64, 10), replicas=2,
                   cache_entries=768, max_batch=32, max_wait_s=1e-3, skew=2.0,
                   nominal_rps=5000.0, limit_ms=10.0, segments=8)
SHARDED_SIZE = dict(pool=2048, patch=24, images=10, image_px=128, widths=(400, 200),
                    shards=2, max_batch=32, max_wait_s=1e-3, nominal_rps=2000.0,
                    limit_ms=10.0, segments=8)

#: shares of the run's seconds: nominal-rate segments, the closed-loop
#: saturation segment, then the capacity search (at most CAPACITY_PROBES
#: probe segments, first bracket [nominal, CAPACITY_HI x nominal])
NOMINAL_SHARE, SATURATION_SHARE, CAPACITY_SHARE = 0.4, 0.25, 0.25
CAPACITY_PROBES, CAPACITY_HI = 6, 4.0
#: the saturation segment is split in parts of about this many seconds,
#: each host-speed corrected by the kernel times around it; the run
#: reports their median
SATURATION_PART_S = 0.3
#: requests kept outstanding in the saturation segment: four full batches
#: per replica
SATURATION_CONCURRENCY = 256
#: key-stream length bound for the saturation segment, per second
SATURATION_MAX_RPS = 100_000


@dataclass
class ServeState:
    payloads: np.ndarray
    make_target: Callable[[], object]
    reference: Callable[[], np.ndarray]
    traces: list  # (times, keys) per nominal segment
    make_trace: Callable[[float, float, int], tuple]
    seeds: List[int]
    size: dict
    saturation_s: float
    probe_s: float


def _trace_arrays(trace) -> tuple:
    times = np.fromiter((e.t for e in trace.events), dtype=np.float64)
    keys = np.fromiter((e.key for e in trace.events), dtype=np.int64)
    return times, keys


def _replica_config(size: dict, cache_entries: int):
    from repro.cluster.replica import ReplicaConfig
    from repro.serve import BatchPolicy, ConstantServiceModel

    policy = BatchPolicy(max_batch_size=size["max_batch"], max_wait_s=size["max_wait_s"])
    return ReplicaConfig(
        policy=policy,
        cache_entries=cache_entries,
        # A near-zero simulated service time keeps the simulated device
        # clock out of the measurement: latency is host time.
        service_model_factory=lambda servable: ConstantServiceModel(1e-6, 0.0),
    )


def _serve_timing(seconds: float, size: dict) -> tuple:
    """(nominal segment, saturation segment, capacity probe) seconds."""
    return (NOMINAL_SHARE * seconds / size["segments"], SATURATION_SHARE * seconds,
            CAPACITY_SHARE * seconds / CAPACITY_PROBES)


def setup_serve_skewed(seed: int, seconds: float, size: Optional[dict] = None,
                       tracer: Optional[Tracer] = None) -> ServeState:
    from repro.cluster.router import NO_HEDGING, ConsistentHashPolicy, Router
    from repro.serve import ServableModel
    from repro.workloads import diurnal

    size = dict(SKEWED_SIZE, **(size or {}))
    tracer = tracer or Tracer(enabled=False)
    s_data, s_model, s_trace = _sub_seeds(seed, 3)
    timing = _serve_timing(seconds, size)
    with tracer.span("data.digits"):
        payloads, _ = digit_dataset(size["pool"], size=size["digit_px"], seed=s_data)
    net = DeepNetwork(list(size["widths"]), head="softmax", seed=s_model)
    servable = ServableModel("mlp", net)
    config = _replica_config(size, size["cache_entries"])

    def make_target():
        return Router(servable, size["replicas"], config,
                      policy=ConsistentHashPolicy(), hedge=NO_HEDGING)

    def make_trace(rate: float, duration: float, trace_seed: int) -> tuple:
        with tracer.span("workloads.trace_gen"):
            trace = diurnal(trace_seed, duration_s=duration, base_rps=rate,
                            peak_rps=rate, period_s=1.0, payload_pool=size["pool"],
                            skew=size["skew"])
        return _trace_arrays(trace)

    seeds = [s_trace + k for k in range(size["segments"] + 1)]
    traces = [make_trace(size["nominal_rps"], timing[0], s) for s in seeds]
    make_target()  # the fleet build is part of set-up cost
    return ServeState(payloads, make_target, lambda: servable.predict(payloads),
                      traces, make_trace, seeds, size, *timing[1:])


def setup_serve_sharded(seed: int, seconds: float, size: Optional[dict] = None,
                        tracer: Optional[Tracer] = None) -> ServeState:
    from repro.cluster.shardrouter import ShardRouter
    from repro.shard import gather_outputs
    from repro.workloads import cache_busting

    size = dict(SHARDED_SIZE, **(size or {}))
    tracer = tracer or Tracer(enabled=False)
    s_img, s_patch, s_model, s_trace = _sub_seeds(seed, 4)
    timing = _serve_timing(seconds, size)
    with tracer.span("data.patches"):
        images = make_natural_images(size["images"], size=size["image_px"], seed=s_img)
        patches = extract_patches(images, size["patch"], size["pool"], seed=s_patch)
        payloads = normalize_patches(whiten_patches(patches))
    specs = [LayerSpec(h, 1.0, 1, 100) for h in size["widths"]]
    stack = StackedAutoencoder(payloads.shape[1], specs, seed=s_model)
    stack.pretrain(payloads[: min(200, len(payloads))])
    shards = stack.partition(size["shards"])
    config = _replica_config(size, 0)

    def make_target():
        return ShardRouter(shards, config)

    def reference():
        return gather_outputs(shards, [s.partial_output(payloads) for s in shards])

    def make_trace(rate: float, duration: float, trace_seed: int) -> tuple:
        with tracer.span("workloads.trace_gen"):
            trace = cache_busting(trace_seed, duration_s=duration, rate_rps=rate,
                                  payload_pool=size["pool"])
        return _trace_arrays(trace)

    seeds = [s_trace + k for k in range(size["segments"] + 1)]
    traces = [make_trace(size["nominal_rps"], timing[0], s) for s in seeds]
    make_target()
    return ServeState(payloads, make_target, reference, traces,
                      make_trace, seeds, size, *timing[1:])


def _check_segment(seg: Segment, ref: np.ndarray) -> int:
    """Number of answered requests whose result differs from the
    synchronous reference by more than 1e-12."""
    idx = [i for i, r in enumerate(seg.results) if r is not None]
    if not idx:
        return 0
    got = np.vstack([seg.results[i] for i in idx])
    want = ref[seg.keys[idx]]
    bad = np.max(np.abs(got - want), axis=1) > 1e-12
    return int(np.count_nonzero(bad))


def _serve_layers(target, segments: List[Segment], tracer: Tracer) -> Dict[str, float]:
    stats = tracer.by_name()

    def mean_us(name: str, key: str = "total_s") -> float:
        row = stats.get(name)
        return row[key] / row["calls"] * 1e6 if row and row["calls"] else 0.0

    engines = [r.engine for r in target.replicas]
    batches = [b for e in engines for b in e.metrics.batch_sizes]
    hits = sum(e.metrics.cache_hits for e in engines)
    lookups = hits + sum(e.metrics.cache_misses for e in engines)
    fwd = stats.get("nn.forward", {"calls": 0, "total_s": 0.0, "work": 0.0})
    return {
        "serve.submit_us": mean_us("serve.submit"),
        "serve.poll_self_us": mean_us("serve.poll", "self_s"),
        "serve.queue_wait_p99_ms": max(e.metrics.wait.percentile(99) for e in engines) * 1e3,
        "serve.batch_rows_mean": float(np.mean(batches)) if batches else 0.0,
        "serve.cache_hit_rate": hits / lookups if lookups else 0.0,
        "cluster.route_us": mean_us("router.submit", "self_s"),
        "cluster.spillovers": float(target.metrics.backpressure_events),
        "cluster.shed": float(target.metrics.shed),
        "shard.scatter_us": mean_us("shardrouter.submit", "self_s"),
        "shard.gather_us": mean_us("shard.gather"),
        "shard.degraded_requests": float(getattr(target, "degraded_requests", 0)),
        "nn.forward_s": fwd["total_s"],
        "nn.forward_rows_per_call": fwd["work"] / fwd["calls"] if fwd["calls"] else 0.0,
        "loadgen.lag_p99_ms": max(s.lag_p99_s for s in segments) * 1e3,
        "loadgen.backlog_max": float(max(s.backlog_max for s in segments)),
    }


#: span layer -> the family its self time is reported under
BUSY_FAMILIES = {"nn": "nn_forward", "serve": "serve", "router": "cluster",
                 "replica": "cluster", "shardrouter": "shard", "shard": "shard"}


def _busy_shares(tracer: Tracer, segments: List[Segment]) -> Dict[str, tuple]:
    """Self time per layer family over the driver's time inside
    ``submit``/``poll``: where the serving path spends its time.  The
    rest is the tracer's own bookkeeping."""
    busy = sum(s.busy_s for s in segments)
    shares = dict.fromkeys(sorted(set(BUSY_FAMILIES.values())), 0.0)
    for name, row in tracer.by_name().items():
        family = BUSY_FAMILIES.get(layer_of(name))
        if family:
            shares[family] += row["self_s"]
    return {f"busy_share.{k}": (v / busy if busy else 0.0, "frac")
            for k, v in shares.items()}


def run_serving(state: ServeState, seconds: float, tracer: Tracer,
                full: bool = True) -> RunResult:
    """Warm up, run the nominal-rate segments, then (when ``full``) search
    for capacity.  Only the nominal segments report latencies; the
    segment lengths were fixed at set-up, so ``seconds`` is not used."""
    size = state.size
    limit_s = size["limit_ms"] * 1e-3
    nominal = size["nominal_rps"]
    ref = state.reference()
    target = state.make_target()
    host = HostSpeed()
    origin = clock()

    def segment(times, keys, rate) -> Segment:
        with tracer.span("bench.segment"):
            seg = run_segment(target, times, keys, state.payloads, rate_rps=rate,
                              limit_s=limit_s, origin=origin)
        host.sample()
        return seg

    extra_wrong = extra_answered = n_probes = 0
    with tracer.instrument(instrument_targets()):
        host.sample()
        warm_times, warm_keys = state.traces[0]
        warm = segment(warm_times, warm_keys, nominal)  # fills caches and workspaces
        segments = [segment(t, k, nominal) for t, k in state.traces[1:]]
        # Memory is reported for set-up plus the fixed nominal work; the
        # phases below serve a rate-dependent number of requests.
        rss_mb = peak_rss_mb()
        saturation_rps = raw_saturation = capacity_rps = raw_capacity = float("nan")
        if full:
            keys = np.resize(np.concatenate([k for _, k in state.traces]),
                             int(SATURATION_MAX_RPS * state.saturation_s))
            raw_rates, rates = [], []
            n_parts = max(1, round(state.saturation_s / SATURATION_PART_S))
            for part in np.array_split(keys, n_parts):
                with tracer.span("bench.segment"):
                    sat = run_closed(target, part, state.payloads,
                                     concurrency=SATURATION_CONCURRENCY,
                                     duration_s=state.saturation_s / n_parts,
                                     origin=origin)
                host.sample()
                extra_wrong += _check_segment(sat, ref)
                extra_answered += sat.answered
                raw_rates.append(sat.rate_rps)
                rates.append(sat.rate_rps / host.speed(host.samples[-2:]))
            raw_saturation = statistics.median(raw_rates)
            saturation_rps = statistics.median(rates)
            del sat

            def probe(rate: float) -> Segment:
                nonlocal extra_wrong, extra_answered, n_probes
                times, keys = state.make_trace(rate, state.probe_s,
                                               state.seeds[-1] + 1000 + n_probes)
                n_probes += 1
                seg = segment(times, keys, rate)
                extra_wrong += _check_segment(seg, ref)
                extra_answered += seg.answered
                seg.results = []  # checked; free the answers
                return seg

            nominal_ok = sum(s.meets_limit() for s in segments) * 2 > len(segments)
            raw_capacity = capacity_search(probe, nominal, CAPACITY_HI * nominal,
                                           max_probes=CAPACITY_PROBES, lo_passes=nominal_ok)
            capacity_rps = raw_capacity / host.speed()
    layers = _serve_layers(target, segments, tracer)
    failures: List[str] = []
    attempted, failed = extra_answered, extra_wrong
    if extra_wrong:
        failures.append(f"saturation and capacity probes: {extra_wrong} wrong answers")
    good = offered = 0
    for k, seg in enumerate(segments):
        wrong = _check_segment(seg, ref)
        lost = seg.offered - seg.answered
        attempted += seg.offered
        failed += wrong + lost
        if wrong or lost:
            failures.append(f"nominal segment {k}: {wrong} wrong, {lost} shed or unanswered")
        ok = ~np.isnan(seg.latencies_s) & (seg.latencies_s <= limit_s)
        good += int(np.count_nonzero(ok)) - wrong
        offered += seg.offered
    valid = [s for s in segments if s.valid]
    if len(valid) * 2 <= len(segments):
        raise RuntimeError(
            f"load generator fell behind in {len(segments) - len(valid)} of "
            f"{len(segments)} nominal segments; latencies not reported")
    def median_pct(q: float, misses_only: bool = False) -> float:
        return statistics.median(s.percentile_ms(q, misses_only) for s in valid)

    # Cache hits are answered inside submit in microseconds, misses wait for
    # a batch: the gated median is that of the misses alone, so it does not
    # jump between the two groups when the hit share moves.  Latency is not
    # host-speed corrected: most of it is the batcher's wall-clock window.
    e2e = {"throughput_per_s": saturation_rps, "latency_p50_ms": median_pct(50, True)}
    details = {
        "latency_p90_ms": (median_pct(90, True), "ms"),
        "serve_p50_ms": (median_pct(50), "ms"),
        "serve_p90_ms": (median_pct(90), "ms"),
        "serve_p99_ms": (median_pct(99), "ms"),
        "serve_goodput": (good / offered if offered else 0.0, "frac"),
        "serve_capacity_rps": (capacity_rps, "1/s"),
        "raw_capacity_rps": (raw_capacity, "1/s"),
        "serve_saturation_rps": (saturation_rps, "1/s"),
        "raw_saturation_rps": (raw_saturation, "1/s"),
        "host_speed": (host.speed(), "x"),
        "nominal_rps": (nominal, "1/s"),
        "latency_limit_ms": (size["limit_ms"], "ms"),
        "nominal_requests": (offered, "count"),
        "hit_share": (sum(int(s.hits.sum()) for s in segments) / max(offered, 1), "frac"),
        "invalid_segments": (len(segments) - len(valid), "count"),
        "capacity_probes": (n_probes, "count"),
        "busy_us_per_request": (sum(s.busy_s for s in segments) / max(offered, 1) * 1e6, "us"),
    }
    if tracer.enabled and not full:
        details.update(_busy_shares(tracer, [warm, *segments]))
    # Batching varies with timing, so answers may differ in the last bits
    # between runs: keep per-request sums for answers_agree.
    outputs = {"keys": [s.keys.tolist() for s in segments],
               "answer_sums": [[math.nan if r is None else float(np.sum(r)) for r in s.results]
                               for s in segments]}
    result = RunResult(e2e, details, layers, attempted=attempted, failed=failed,
                       failures=failures, outputs=outputs)
    result.peak_rss_mb = rss_mb
    return result


#: per-request answer sums of two serving passes may differ by this much.
#: Each pass checks every answer element against the same reference to
#: 1e-12, so sums over at most 200 outputs differ by at most 4e-10.
ANSWER_SUM_ATOL = 1e-9


def answers_agree(a: dict, b: dict) -> bool:
    """Two serving passes sent the same keys and got the same answers: the
    same requests unanswered, the others' sums within ANSWER_SUM_ATOL."""
    if a["keys"] != b["keys"]:
        return False
    for x, y in zip(a["answer_sums"], b["answer_sums"]):
        x, y = np.asarray(x), np.asarray(y)
        if not np.array_equal(np.isnan(x), np.isnan(y)):
            return False
        if not np.allclose(x, y, rtol=0.0, atol=ANSWER_SUM_ATOL, equal_nan=True):
            return False
    return True


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable


WORKLOADS = {
    "pretrain_sae": Workload("pretrain_sae", setup_pretrain_sae, run_pretrain_sae),
    "train_dbn_parallel": Workload("train_dbn_parallel", setup_train_dbn, run_train_dbn),
    "serve_skewed": Workload("serve_skewed", setup_serve_skewed, run_serving),
    "serve_sharded": Workload("serve_sharded", setup_serve_sharded, run_serving),
}
