"""Checkpoint plumbing for sharded training runs.

A sharded snapshot stores, per shard, every trained block's parameters
(under the stack's own ``_block_arrays`` names, prefixed ``s{k}_``) plus
the shard's cross-block values, alongside the run state every greedy
snapshot records: RNG stream positions, engine state, error history.
The header is tagged with the shard count, the exact partition and the
stack's ``_ckpt_model_meta()``.  :func:`read_shard_checkpoint` refuses
to restore under different hyper-parameters or a different shard count
(via :func:`repro.runtime.checkpoint.require_shard_count`) —
repartitioning moves parameters between shards, so a bit-identical
resume is only possible into the same layout.

The driver (:func:`repro.nn.sharded.sharded_pretrain`) recreates the
shard *structures* deterministically from the seed before loading, so
this module only moves parameter bytes and validates headers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.checkpoint import (
    CheckpointError,
    CheckpointStore,
    load_npz,
    require_shard_count,
    resolve_resume_path,
)
from repro.shard.partition import Partition
from repro.shard.shards import KIND_MLP, ModelShard

__all__ = [
    "SHARD_CKPT_KIND",
    "shard_state_arrays",
    "load_shard_state",
    "save_shard_checkpoint",
    "read_shard_checkpoint",
]

#: header ``kind`` tag of a sharded pre-training snapshot
SHARD_CKPT_KIND = "shard-pretrain"


def _block_params(shard: ModelShard) -> List[Tuple[str, np.ndarray]]:
    """``(archive key, live array)`` for every block parameter of a stack shard."""
    stack = shard.model
    return [
        (f"s{shard.index}_{key}", value)
        for j, block in enumerate(stack.blocks)
        for key, value in stack._block_arrays(j, block).items()
    ]


def shard_state_arrays(shards: Sequence[ModelShard]) -> Dict[str, np.ndarray]:
    """Flatten every shard's parameters into checkpoint archive keys."""
    arrays: Dict[str, np.ndarray] = {}
    for shard in shards:
        k = shard.index
        if shard.kind == KIND_MLP:
            for i, layer in enumerate(shard.model.layers):
                arrays[f"s{k}_w{i}"] = layer.w
                arrays[f"s{k}_b{i}"] = layer.b
        else:
            arrays.update(_block_params(shard))
        for n, cb in enumerate(shard.cross):
            arrays[f"s{k}_x{n}"] = cb.values
    return arrays


def load_shard_state(shards: Sequence[ModelShard], arrays: Dict[str, np.ndarray]) -> None:
    """Overwrite shard parameters in place from archive arrays.

    Shard structures (widths, block counts, cross layout) must already
    match the snapshot — the driver rebuilds them deterministically from
    the seed; a shape mismatch here means the snapshot belongs to a
    different run and raises :class:`CheckpointError`.
    """
    for shard in shards:
        k = shard.index
        try:
            if shard.kind == KIND_MLP:
                for i, layer in enumerate(shard.model.layers):
                    _copy_into(layer.w, arrays[f"s{k}_w{i}"], f"s{k}_w{i}")
                    _copy_into(layer.b, arrays[f"s{k}_b{i}"], f"s{k}_b{i}")
            else:
                for key, value in _block_params(shard):
                    _copy_into(value, arrays[key], key)
            for n, cb in enumerate(shard.cross):
                _copy_into(cb.values, arrays[f"s{k}_x{n}"], f"s{k}_x{n}")
        except KeyError as exc:
            raise CheckpointError(
                f"sharded snapshot is missing array {exc.args[0]!r} — "
                "it was written by a different shard layout"
            ) from None


def _copy_into(dst: np.ndarray, src: np.ndarray, key: str) -> None:
    if dst.shape != src.shape:
        raise CheckpointError(
            f"sharded snapshot array {key!r} has shape {src.shape}, "
            f"expected {dst.shape} — shard layouts differ"
        )
    np.copyto(dst, np.asarray(src, dtype=np.float64))


def save_shard_checkpoint(
    store: CheckpointStore,
    shards: Sequence[ModelShard],
    *,
    block_index: int,
    epochs_done: int,
    rng_states: List[dict],
    current_errors: List[float],
    layer_errors: List[List[float]],
    engine: Optional[dict] = None,
    extra_arrays: Optional[Dict[str, np.ndarray]] = None,
    tag: str = "",
):
    """Write one sharded pre-training snapshot into ``store``."""
    shard0 = shards[0]
    header = {
        "kind": SHARD_CKPT_KIND,
        "family": shard0.kind,
        "n_shards": shard0.n_shards,
        "partition": shard0.partition.meta(),
        "model": shard0.model_meta,
        "block_index": int(block_index),
        "epochs_done": int(epochs_done),
        "rng_states": rng_states,
        "engine": engine,
        "layer_errors": [list(e) for e in layer_errors],
        "current_errors": [float(e) for e in current_errors],
    }
    arrays = shard_state_arrays(shards)
    if extra_arrays:
        arrays.update(extra_arrays)
    return store.save(header, arrays, tag=tag or f"block{block_index}")


def read_shard_checkpoint(
    source,
    *,
    family: str,
    partition: Partition,
    model_meta: dict,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Load and validate a sharded snapshot for this exact run shape.

    ``source`` is a file, a directory, or a :class:`CheckpointStore`.
    Raises :class:`CheckpointError` when the snapshot's kind, family,
    shard count, partition or model hyper-parameters disagree.
    """
    header, arrays = load_npz(resolve_resume_path(source))
    if header.get("kind") != SHARD_CKPT_KIND:
        raise CheckpointError(
            f"checkpoint kind {header.get('kind')!r} is not a sharded "
            f"pre-training snapshot ({SHARD_CKPT_KIND!r})"
        )
    if header.get("family") != family:
        raise CheckpointError(
            f"checkpoint holds a {header.get('family')!r} model, expected {family!r}"
        )
    require_shard_count(header, partition.n_shards)
    if Partition.from_meta(header["partition"]) != partition:
        raise CheckpointError(
            "checkpoint partition disagrees with this run's layer sizes"
        )
    if header.get("model") != model_meta:
        raise CheckpointError(
            "checkpoint model hyper-parameters disagree with this run"
        )
    return header, arrays
