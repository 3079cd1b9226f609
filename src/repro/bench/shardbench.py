"""Sharded pre-training driver and the shard bench.

Two halves:

* :func:`sharded_pretrain` — the model-parallel counterpart of
  :meth:`repro.nn.stacked._GreedyStack.pretrain`.  Each greedy block is
  initialised *full-width* from the same RNG draws the unsharded run
  would consume, split into per-shard diagonal sub-blocks plus
  decay-only :class:`~repro.shard.shards.CrossBlock`\\ s, and trained in
  lockstep through one :class:`~repro.train.ShardedTrainStep` riding the
  ordinary :class:`~repro.train.TrainLoop` (serial or parallel-engine).
  Every ``exchange_every`` updates the bounded exchange fires behind the
  ``shard.exchange`` fault site: dropout masks are resampled from the
  per-shard streams and the replicated first-block bias is re-synced
  from shard 0.  Checkpoints are epoch-granular
  (:func:`repro.shard.save_shard_checkpoint`) and carry every RNG/mask
  stream position, so a killed run resumes **bit-identically**.

* :func:`run_shard_bench` — the committed ``BENCH_shard.json``: parity
  rows proving the sharded forward pass and one training step match the
  dropout-masked full-model oracle to ≤ 1e-10 for N ∈ {1, 2, 4} across
  all three model families, a sharded-pre-training resume drill, an
  N=2 scatter-gather serving run that must hold the single-replica
  whole-model p99, and a shard-kill drill that must degrade (never
  fail).  :data:`repro.bench.benches.SHARD` declares its hard gates and
  25 % regression fence.

The parity oracle is deliberately *not* the unmasked full model: a
shard's lower layers are masked too, so the sharded answer is the
dropout-decoupling approximation.  Equality holds against the full
model evaluated **under the shard's structural masks** — that is the
contract the partitioner guarantees, and what these gates pin.
"""

from __future__ import annotations

import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.benchrun import drill_replica_config, replica_capacity_rps
from repro.cluster.loadtest import ClusterLoadHarness
from repro.cluster.router import NO_HEDGING, LeastLoadedPolicy, Router
from repro.cluster.shardrouter import ShardRouter
from repro.errors import ConfigurationError
from repro.nn.autoencoder import SparseAutoencoder
from repro.nn.mlp import DeepNetwork, one_hot
from repro.nn.rbm import RBM
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from repro.runtime.checkpoint import (
    CheckpointError,
    CheckpointStore,
    as_store,
    capture_rng,
    restore_rng_into,
)
from repro.runtime.workspace import Workspace
from repro.serve.registry import ServableModel
from repro.shard.checkpoint import (
    load_shard_state,
    read_shard_checkpoint,
    save_shard_checkpoint,
)
from repro.shard.masks import mask_streams, resample_masks
from repro.shard.partition import Partition
from repro.shard.servables import gather_outputs
from repro.shard.shards import (
    KIND_DBN,
    KIND_SAE,
    ModelShard,
    _make_sub_stack,
    _stack_meta,
    merge,
    partition,
    partition_rbm_block,
    partition_sae_block,
)
from repro.testing.faults import FaultPlan, inject
from repro.train.batches import batch_bounds
from repro.train.loop import EVENT_LOG_KEY, EventLog, TrainLoop
from repro.train.shardstep import ShardedTrainStep
from repro.utils.rng import spawn_generators
from repro.utils.validation import check_matrix_shapes
from repro.workloads.arrivals import PoissonArrivals

SCHEMA = "shard-bench/v1"

#: shard counts the parity gates cover (the ISSUE's N ∈ {1, 2, 4})
SHARD_COUNTS = (1, 2, 4)

#: hard ceiling on every parity / resume difference
PARITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# the sharded greedy cascade
# ---------------------------------------------------------------------------

def _stack_kind(stack) -> str:
    if isinstance(stack, StackedAutoencoder):
        return KIND_SAE
    if isinstance(stack, DeepBeliefNetwork):
        return KIND_DBN
    raise ConfigurationError(
        f"sharded_pretrain expects a StackedAutoencoder or DeepBeliefNetwork, "
        f"got {type(stack).__name__}"
    )


def _append_block(stack, shards: List[ModelShard], part: Partition,
                  index: int, kind: str, rng) -> None:
    """Initialise block ``index`` full-width and scatter it onto the shards.

    Creating the *full* block from the cascade's own RNG stream keeps the
    shard initialisation bit-identical to partitioning an unsharded run —
    and makes resume-time structure recreation deterministic.
    """
    n_in = part.layer_sizes[index]
    full = stack._make_block(n_in, stack.layer_specs[index], rng)
    for shard in shards:
        if kind == KIND_SAE:
            sub_block, cbs = partition_sae_block(full, part, index + 1, shard.index)
        else:
            sub_block, cbs = partition_rbm_block(full, part, index + 1, shard.index)
        shard.model.blocks.append(sub_block)
        shard.cross.extend(cbs)


def _sync_replicated_bias(shards: Sequence[ModelShard], kind: str) -> None:
    """Re-copy shard 0's replicated first-block bias onto every shard.

    Only the first block's visible side is unpartitioned, so only its
    bias (`SAE b2` / RBM visible ``b``) exists as a full copy per shard
    and drifts between exchanges.
    """
    if not shards[0].model.blocks:
        return
    name = "b2" if kind == KIND_SAE else "b"
    source = getattr(shards[0].model.blocks[0], name)
    for shard in shards[1:]:
        np.copyto(getattr(shard.model.blocks[0], name), source)


def sharded_pretrain(
    stack,
    x: np.ndarray,
    n_shards: int,
    *,
    engine=None,
    checkpoint=None,
    resume_from=None,
    dropout: float = 0.0,
    exchange_every: int = 0,
    mask_seed=0,
    callbacks=None,
    callback=None,
) -> List[ModelShard]:
    """Greedy layer-wise pre-training with the stack split into shards.

    ``stack`` is an *untrained* template (its hyper-parameters and seed
    define the run); on return it holds the merged full-width blocks
    (``stack.is_trained``) and the function returns the trained
    :class:`~repro.shard.shards.ModelShard` list.

    Each block is initialised full-width from the same per-block RNG
    stream the unsharded cascade uses, partitioned, and the per-shard
    diagonal sub-blocks train through one
    :class:`~repro.train.ShardedTrainStep` (all shards see the same
    shuffle); cross-shard weights receive their exact decay-only update
    after every apply.  ``exchange_every`` > 0 enables the bounded
    periodic exchange (mask resample from the per-shard ``mask_seed``
    streams + replicated-bias re-sync) behind the ``shard.exchange``
    fault site.

    ``checkpoint`` / ``resume_from`` follow the unsharded
    :meth:`~repro.nn.stacked._GreedyStack.pretrain` contract: snapshots
    are epoch-granular, headers are shard-count-tagged, and a resumed
    run is bit-identical at the same seed, shard count, execution mode
    and worker count (all validated).
    """
    kind = _stack_kind(stack)
    if stack.blocks:
        raise ConfigurationError(
            "stack already holds trained blocks; sharded_pretrain starts "
            "from scratch (partition() an already-trained stack instead)"
        )
    x = check_matrix_shapes(x, stack.n_visible, "x")
    sizes = stack.layer_sizes
    part = Partition(sizes, n_shards, partitioned=range(1, len(sizes)))
    meta = _stack_meta(stack, kind)
    n_layers = len(stack.layer_specs)
    rngs = spawn_generators(stack._seed, 2 * n_layers)
    streams = mask_streams(mask_seed, n_shards)
    store = as_store(checkpoint)
    loop = TrainLoop(engine=engine, callbacks=callbacks)

    shards: List[ModelShard] = [
        ModelShard(k, part, kind, _make_sub_stack(stack, part, k, kind), [], meta)
        for k in range(n_shards)
    ]
    masks: Dict[int, List[np.ndarray]] = {}
    layer_errors: List[List[float]] = []
    start_block, start_epoch, current_errors = 0, 0, []

    if resume_from is not None:
        header, arrays = read_shard_checkpoint(
            resume_from, family=kind, partition=part, model_meta=meta
        )
        start_block = int(header["block_index"])
        start_epoch = int(header["epochs_done"])
        current_errors = [float(e) for e in header["current_errors"]]
        layer_errors = [list(e) for e in header["layer_errors"]]
        # Recreate the shard structures exactly as the original run did
        # (full-width init, then partition), then overwrite the bytes.
        for j in range(start_block + 1):
            _append_block(stack, shards, part, j, kind, rngs[2 * j])
        load_shard_state(shards, arrays)
        states = header["rng_states"]
        if len(states) != len(rngs):
            raise CheckpointError(
                f"checkpoint carries {len(states)} RNG streams, "
                f"expected {len(rngs)}"
            )
        for gen, state in zip(rngs, states):
            restore_rng_into(gen, state)
        for gen, state in zip(streams, header["mask_streams"]):
            restore_rng_into(gen, state)
        engine_meta = header.get("engine")
        if (engine_meta is None) != (engine is None):
            raise CheckpointError(
                "resume must use the same execution mode as the "
                "checkpointed run (parallel engine vs serial)"
            )
        if engine is not None:
            if engine_meta["n_workers"] != engine.n_workers:
                raise CheckpointError(
                    f"checkpoint was taken at n_workers="
                    f"{engine_meta['n_workers']} but the engine has "
                    f"{engine.n_workers}; bit-identical resume requires "
                    f"the same worker count"
                )
            engine.restore_rng_streams(engine_meta["streams"])
        loop.resume_from_log(EventLog.from_array(arrays.get(EVENT_LOG_KEY)))

    # Per-shard inputs are pure functions of the completed sub-blocks.
    currents: List[np.ndarray] = [x] * n_shards
    for j in range(start_block):
        currents = [
            shard.model._block_transform(shard.model.blocks[j], cur)
            for shard, cur in zip(shards, currents)
        ]

    for i in range(start_block, n_layers):
        spec = stack.layer_specs[i]
        resumed_here = i == start_block and len(shards[0].model.blocks) > i
        if resumed_here:
            errors = current_errors
        else:
            _append_block(stack, shards, part, i, kind, rngs[2 * i])
            errors = []
        steps = []
        for k, shard in enumerate(shards):
            sub = shard.model
            ws = Workspace(name=f"shard{k}-{stack._ckpt_kind}-block{i}")
            steps.append(
                sub._block_step(
                    sub.blocks[i], currents[k], sub.layer_specs[i],
                    rngs[2 * i + 1], ws,
                )
            )
        after = [
            (lambda s=shard, _lr=spec.learning_rate, _i=i:
                s.apply_cross_decay(_lr, block_index=_i))
            for shard in shards
        ]

        def exchange(update: int, _i: int = i) -> None:
            for k, stream in enumerate(streams):
                masks[k] = resample_masks(
                    stream, [part.width(_i + 1, k)], dropout
                )
            _sync_replicated_bias(shards, kind)

        step = ShardedTrainStep(
            steps,
            exchange=exchange if exchange_every > 0 else None,
            exchange_every=exchange_every,
            after_apply=after,
        )
        if resumed_here and exchange_every > 0:
            # The uninterrupted run's counters carry across epochs within
            # a block; re-seed them so exchange timing stays identical.
            n_batches = len(batch_bounds(steps[0].n_examples(), spec.batch_size))
            step.updates_applied = start_epoch * n_batches
            step.exchanges = step.updates_applied // exchange_every

        epoch_end = None
        if store is not None:
            def epoch_end(done, metrics, _i=i):
                save_shard_checkpoint(
                    store, shards,
                    block_index=_i,
                    epochs_done=done,
                    rng_states=[capture_rng(g) for g in rngs],
                    mask_states=[capture_rng(g) for g in streams],
                    current_errors=metrics,
                    layer_errors=layer_errors,
                    engine=None if engine is None else {
                        "n_workers": engine.n_workers,
                        "streams": engine.capture_rng_streams(),
                    },
                    extra_arrays={EVENT_LOG_KEY: loop.log.to_array()},
                    tag=f"block{_i}-epoch{done}",
                )

        loop.run_epochs(
            step,
            epochs=spec.epochs,
            batch_size=spec.batch_size,
            rng=rngs[2 * i + 1],
            start_epoch=start_epoch if i == start_block else 0,
            metrics=errors,
            epoch_end=epoch_end,
        )
        layer_errors.append(errors)
        loop.end_layer(i, errors[-1] if errors else float("nan"))
        if callback is not None:
            callback(i, [s.model.blocks[i] for s in shards], errors)
        if i + 1 < n_layers:  # the last block's outputs have no reader
            currents = [
                shard.model._block_transform(shard.model.blocks[i], cur)
                for shard, cur in zip(shards, currents)
            ]

    merged = merge(shards)
    stack.blocks = merged.blocks
    stack.layer_errors = [list(e) for e in layer_errors]
    return shards


# ---------------------------------------------------------------------------
# parity drills: sharded vs the dropout-masked full-model oracle
# ---------------------------------------------------------------------------

class _PresetUniform(np.random.Generator):
    """A Generator whose ``random`` returns preset draws.

    Lets the RBM parity drill feed the full-model oracle and a shard the
    *same* uniform tensor (the shard seeing its column slice), which is
    the alignment the mask-independent draw-shape contract of
    :meth:`RBM.contrastive_divergence` exists to make possible.
    """

    def __init__(self, draws: Sequence[np.ndarray]):
        super().__init__(np.random.PCG64(0))
        self._draws = list(draws)

    def random(self, size=None, dtype=np.float64, out=None):  # noqa: A003
        value = self._draws.pop(0)
        if out is not None:
            np.copyto(out, value)
            return out
        return value.copy()


def _max_abs(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def _model_params(model) -> List[np.ndarray]:
    """Every trainable array of a network, or of a stack block by block."""
    blocks = model.blocks if hasattr(model, "blocks") else [model]
    return [p for block in blocks for p in block.parameters()]


def _roundtrip_max_abs(model, n_shards: int) -> float:
    rebuilt = merge(partition(model, n_shards))
    return max(
        _max_abs(a, b)
        for a, b in zip(_model_params(model), _model_params(rebuilt))
    )


def _stack_forward_parity(full, n_shards: int, x: np.ndarray) -> float:
    shards = partition(full, n_shards)
    top = len(full.layer_sizes) - 1
    worst = 0.0
    outputs = []
    oracle_full = np.zeros((x.shape[0], full.layer_sizes[top]))
    for shard in shards:
        oracle = full.transform(x, dropout_masks=shard.structural_masks())
        lo, hi = shard.partition.bounds(top, shard.index)
        out = shard.partial_output(x)
        worst = max(worst, _max_abs(out, oracle[:, lo:hi]))
        oracle_full[:, lo:hi] = oracle[:, lo:hi]
        outputs.append(out)
    worst = max(worst, _max_abs(gather_outputs(shards, outputs), oracle_full))
    return worst


def _mlp_forward_parity(full: DeepNetwork, n_shards: int, x: np.ndarray) -> float:
    shards = partition(full, n_shards)
    worst = 0.0
    outputs = []
    oracles = []
    for shard in shards:
        oracle = full.predict_proba(x, dropout_masks=shard.structural_masks())
        out = shard.partial_output(x)
        worst = max(worst, _max_abs(out, oracle))
        outputs.append(out)
        oracles.append(oracle)
    gathered = gather_outputs(shards, outputs)
    worst = max(worst, _max_abs(gathered, sum(oracles) / len(oracles)))
    return worst


def _copy_mlp(net: DeepNetwork) -> DeepNetwork:
    clone = DeepNetwork(
        net.layer_sizes,
        hidden_activation=net.layers[0].activation,
        head=net.head,
        weight_decay=net.weight_decay,
    )
    for dst, src in zip(clone.layers, net.layers):
        dst.w = src.w.copy()
        dst.b = src.b.copy()
    return clone


def _mlp_step_parity(full: DeepNetwork, n_shards: int, seed: int = 0,
                     m: int = 32, lr: float = 0.05) -> float:
    rng = np.random.default_rng(seed)
    x = rng.random((m, full.n_in))
    targets = one_hot(rng.integers(0, full.n_out, m), full.n_out)
    shards = partition(full, n_shards)
    part = shards[0].partition
    worst = 0.0
    for shard in shards:
        oracle = _copy_mlp(full)
        ws_o = Workspace(name="parity-mlp-oracle")
        _, g_o = oracle.gradients_into(
            x, targets, ws_o, dropout_masks=shard.structural_masks()
        )
        oracle.apply_update(g_o, lr, workspace=ws_o)
        sub = shard.model
        ws_s = Workspace(name="parity-mlp-sub")
        _, g_s = sub.gradients_into(x, targets, ws_s)
        sub.apply_update(g_s, lr, workspace=ws_s)
        shard.apply_cross_decay(lr)
        for j, (layer, sub_layer) in enumerate(zip(oracle.layers, sub.layers)):
            out_units = part.units(j + 1, shard.index)
            in_units = part.units(j, shard.index)
            worst = max(
                worst,
                _max_abs(sub_layer.w, layer.w[np.ix_(out_units, in_units)]),
                _max_abs(sub_layer.b, layer.b[out_units]),
            )
        for cb in shard.cross:
            worst = max(
                worst,
                _max_abs(cb.values,
                         oracle.layers[cb.block_index].w[np.ix_(cb.rows, cb.cols)]),
            )
    return worst


def _sae_step_parity(n_shards: int, seed: int = 0, m: int = 24,
                     lr: float = 0.1) -> float:
    """One fused-path update on an upper SAE block (both sides partitioned)."""
    part = Partition([6, 8, 9], n_shards, partitioned=(1, 2))
    rng = np.random.default_rng(seed)
    block = SparseAutoencoder(8, 9, seed=int(rng.integers(1 << 31)))
    h_prev = rng.random((m, 8))
    worst = 0.0
    for k in range(n_shards):
        vm = part.keep_mask(1, k)
        hm = part.keep_mask(2, k)
        prev = part.units(1, k)
        units = part.units(2, k)
        oracle = block.copy()
        ws_o = Workspace(name="parity-sae-oracle")
        _, g_o = oracle.gradients_into(
            h_prev * vm, ws_o, hidden_mask=hm, visible_mask=vm
        )
        oracle.apply_update(g_o, lr, workspace=ws_o)
        sub, cross = partition_sae_block(block, part, 2, k)
        ws_s = Workspace(name="parity-sae-sub")
        _, g_s = sub.gradients_into(np.ascontiguousarray(h_prev[:, prev]), ws_s)
        sub.apply_update(g_s, lr, workspace=ws_s)
        for cb in cross:
            cb.decay_axpy(lr)
        worst = max(
            worst,
            _max_abs(sub.w1, oracle.w1[np.ix_(units, prev)]),
            _max_abs(sub.b1, oracle.b1[units]),
            _max_abs(sub.w2, oracle.w2[np.ix_(prev, units)]),
            _max_abs(sub.b2, oracle.b2[prev]),
        )
        for cb in cross:
            target = oracle.w1 if cb.name == "w1" else oracle.w2
            worst = max(
                worst, _max_abs(cb.values, target[np.ix_(cb.rows, cb.cols)])
            )
    return worst


def _rbm_step_parity(n_shards: int, seed: int = 0, m: int = 16,
                     lr: float = 0.1) -> float:
    """One CD-1 update on an upper RBM, Gibbs uniforms shared column-wise."""
    part = Partition([6, 8, 9], n_shards, partitioned=(1, 2))
    rng = np.random.default_rng(seed)
    block = RBM(8, 9, seed=int(rng.integers(1 << 31)))
    v0 = (rng.random((m, 8)) < 0.5).astype(np.float64)
    u1 = rng.random((m, 9))
    u2 = rng.random((m, 9))
    worst = 0.0
    for k in range(n_shards):
        vm = part.keep_mask(1, k)
        hm = part.keep_mask(2, k)
        prev = part.units(1, k)
        units = part.units(2, k)
        oracle = block.copy()
        stats_o = oracle.contrastive_divergence(
            v0 * vm, k=1, rng=_PresetUniform([u1, u2]),
            hidden_mask=hm, visible_mask=vm,
        )
        oracle.apply_update(stats_o, lr)
        sub, cross = partition_rbm_block(block, part, 2, k)
        stats_s = sub.contrastive_divergence(
            np.ascontiguousarray(v0[:, prev]), k=1,
            rng=_PresetUniform(
                [np.ascontiguousarray(u1[:, units]),
                 np.ascontiguousarray(u2[:, units])]
            ),
        )
        sub.apply_update(stats_s, lr)
        worst = max(
            worst,
            _max_abs(sub.w, oracle.w[np.ix_(units, prev)]),
            _max_abs(sub.c, oracle.c[units]),
            _max_abs(sub.b, oracle.b[prev]),
        )
        for cb in cross:
            # frozen under CD: the oracle's cross weights must not move
            worst = max(
                worst, _max_abs(cb.values, oracle.w[np.ix_(cb.rows, cb.cols)])
            )
    return worst


def run_parity_rows(
    shard_counts: Sequence[int] = SHARD_COUNTS,
    seed: int = 0,
    quick: bool = True,
) -> List[Dict[str, object]]:
    """Parity of sharded forward + one training step vs the masked oracle."""
    rng = np.random.default_rng(seed)
    x = rng.random((40, 12))
    epochs = 1 if quick else 2
    specs = [
        LayerSpec(10, epochs=epochs, batch_size=20),
        LayerSpec(8, epochs=epochs, batch_size=20),
    ]
    sae = StackedAutoencoder(12, specs, seed=seed)
    sae.pretrain(x)
    dbn = DeepBeliefNetwork(12, specs, cd_k=1, seed=seed)
    dbn.pretrain((x > 0.5).astype(np.float64))
    mlp = DeepNetwork([12, 10, 8, 5], seed=seed)
    rows: List[Dict[str, object]] = []
    for n in shard_counts:
        rows.append({
            "kind": "parity", "family": "sae", "n_shards": int(n),
            "forward_max_abs": _stack_forward_parity(sae, n, x),
            "step_max_abs": _sae_step_parity(n, seed=seed),
            "roundtrip_max_abs": _roundtrip_max_abs(sae, n),
        })
        rows.append({
            "kind": "parity", "family": "dbn", "n_shards": int(n),
            "forward_max_abs": _stack_forward_parity(
                dbn, n, (x > 0.5).astype(np.float64)
            ),
            "step_max_abs": _rbm_step_parity(n, seed=seed),
            "roundtrip_max_abs": _roundtrip_max_abs(dbn, n),
        })
        rows.append({
            "kind": "parity", "family": "mlp", "n_shards": int(n),
            "forward_max_abs": _mlp_forward_parity(mlp, n, x),
            "step_max_abs": _mlp_step_parity(mlp, n, seed=seed),
            "roundtrip_max_abs": _roundtrip_max_abs(mlp, n),
        })
    return rows


# ---------------------------------------------------------------------------
# sharded pre-training resume drill
# ---------------------------------------------------------------------------

def run_pretrain_drill(
    n_shards: int = 2,
    exchange_every: int = 2,
    dropout: float = 0.25,
    seed: int = 0,
    quick: bool = True,
) -> Dict[str, object]:
    """Train sharded end-to-end, then resume a mid-run snapshot and demand
    a bit-identical finish."""
    rng = np.random.default_rng(seed)
    x = rng.random((48, 12))
    epochs = 2 if quick else 3

    def make_stack() -> StackedAutoencoder:
        return StackedAutoencoder(
            12,
            [
                LayerSpec(8, epochs=epochs, batch_size=16),
                LayerSpec(6, epochs=epochs, batch_size=16),
            ],
            seed=seed,
        )

    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(tmp, keep=32)
        shards_a = sharded_pretrain(
            make_stack(), x, n_shards,
            checkpoint=store,
            exchange_every=exchange_every,
            dropout=dropout,
            mask_seed=seed,
        )
        snapshots = store.list()
        mid = snapshots[len(snapshots) // 2]
        shards_b = sharded_pretrain(
            make_stack(), x, n_shards,
            resume_from=mid,
            exchange_every=exchange_every,
            dropout=dropout,
            mask_seed=seed,
        )
    resume_max_abs = 0.0
    for a, b in zip(shards_a, shards_b):
        for pa, pb in zip(_model_params(a.model), _model_params(b.model)):
            resume_max_abs = max(resume_max_abs, _max_abs(pa, pb))
        for ca, cb in zip(a.cross, b.cross):
            resume_max_abs = max(resume_max_abs, _max_abs(ca.values, cb.values))
    n_updates = len(batch_bounds(48, 16)) * epochs * 2
    exchanges = n_updates // exchange_every if exchange_every else 0
    return {
        "kind": "pretrain",
        "family": "sae",
        "n_shards": int(n_shards),
        "exchange_every": int(exchange_every),
        "dropout": float(dropout),
        "snapshots": len(snapshots),
        "exchanges_expected": int(exchanges),
        "resume_max_abs": resume_max_abs,
    }


# ---------------------------------------------------------------------------
# serving drills
# ---------------------------------------------------------------------------

def run_serving_drill(
    servable: ServableModel,
    n_shards: int = 2,
    utilization: float = 0.5,
    duration_s: float = 0.08,
    seed: int = 0,
) -> Dict[str, object]:
    """N-shard scatter-gather vs the single-replica whole model, same load.

    The gate is the ISSUE's serving-capacity contract: the sharded tier
    answers every request (0 failed) at a p99 no worse than
    ``1.25 ×`` the whole-model single replica.
    """
    rate = utilization * replica_capacity_rps(servable)
    single = Router(
        servable,
        n_replicas=1,
        replica_config=drill_replica_config(),
        policy=LeastLoadedPolicy(),
        hedge=NO_HEDGING,
    )
    base = ClusterLoadHarness(
        single, PoissonArrivals(rate), duration_s=duration_s, seed=seed
    ).run()
    shards = partition(servable.model, n_shards)
    router = ShardRouter(shards, replica_config=drill_replica_config())
    report = ClusterLoadHarness(
        router, PoissonArrivals(rate), duration_s=duration_s, seed=seed
    ).run()
    return {
        "kind": "serving",
        "n_shards": int(n_shards),
        "offered": report.offered,
        "completed": report.completed,
        "failed": report.failed,
        "shed": report.shed,
        "degraded": router.degraded_requests,
        "throughput_rps": report.throughput_rps,
        "p99_single_ms": base.latency_p99_s * 1e3,
        "p99_sharded_ms": report.latency_p99_s * 1e3,
        "p99_ratio": (
            report.latency_p99_s / base.latency_p99_s
            if base.latency_p99_s > 0
            else 1.0
        ),
    }


def run_shard_kill_drill(
    servable: ServableModel,
    n_shards: int = 2,
    victim_shard: int = 1,
    kill_after_batches: int = 3,
    utilization: float = 0.5,
    duration_s: float = 0.08,
    seed: int = 0,
) -> Dict[str, object]:
    """Kill one shard replica mid-run: requests degrade, none may fail."""
    shards = partition(servable.model, n_shards)
    router = ShardRouter(shards, replica_config=drill_replica_config())
    victim_rid = router.placement[victim_shard]
    plan = FaultPlan.fail(
        "replica.serve", nth=kill_after_batches, match={"replica": victim_rid}
    )
    rate = utilization * replica_capacity_rps(servable)
    harness = ClusterLoadHarness(
        router, PoissonArrivals(rate), duration_s=duration_s, seed=seed
    )
    with inject(plan):
        report = harness.run()
    return {
        "kind": "shard_kill",
        "n_shards": int(n_shards),
        "victim_shard": int(victim_shard),
        "offered": report.offered,
        "completed": report.completed,
        "failed": report.failed,
        "shed": report.shed,
        "deaths": report.replica_deaths,
        "degraded_requests": router.degraded_requests,
        "degraded_legs": router.degraded_legs,
    }


# ---------------------------------------------------------------------------
# the full bench
# ---------------------------------------------------------------------------

def run_shard_bench(
    servable: Optional[ServableModel] = None,
    shard_counts: Sequence[int] = SHARD_COUNTS,
    quick: bool = False,
    seed: int = 0,
) -> Dict[str, object]:
    """Run every drill; returns the JSON-serialisable report."""
    from repro.serve.benchrun import train_demo_servable

    if servable is None:
        servable = train_demo_servable(
            n_examples=128 if quick else 256,
            epochs=2 if quick else 3,
            seed=seed,
        )
    drill_s = 0.06 if quick else 0.12
    rows: List[Dict[str, object]] = []
    rows.extend(run_parity_rows(shard_counts, seed=seed, quick=quick))
    rows.append(run_pretrain_drill(seed=seed, quick=quick))
    rows.append(run_serving_drill(servable, duration_s=drill_s, seed=seed))
    rows.append(
        run_shard_kill_drill(servable, duration_s=drill_s + 0.02, seed=seed)
    )
    return {"schema": SCHEMA, "seed": int(seed), "quick": bool(quick), "rows": rows}

