"""Wrap model shards for the serving tier.

Each :class:`~repro.shard.shards.ModelShard` becomes one
:class:`~repro.serve.registry.ServableModel` whose forward pass is the
shard's :meth:`partial_output`; the
:class:`~repro.cluster.shardrouter.ShardRouter` scatters a request to
every shard servable and gathers the partial outputs (mean for MLP
classifier shards, unit-order concat for stack code layers).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.serve.registry import ServableModel
from repro.shard.shards import KIND_MLP, ModelShard

__all__ = ["shard_servables", "gather_outputs"]


def shard_servables(
    shards: Sequence[ModelShard], name: str = "sharded"
) -> List[ServableModel]:
    """One servable per shard, named ``<name>-shard<k>``."""
    servables: List[ServableModel] = []
    for shard in shards:
        sv = ServableModel(f"{name}-shard{shard.index}", shard.model)
        sv._forward = shard.partial_output
        servables.append(sv)
    return servables


def gather_outputs(
    shards: Sequence[ModelShard],
    outputs: Sequence,
) -> np.ndarray:
    """Combine per-shard partial outputs into one full-width answer.

    ``outputs[k]`` is shard ``k``'s partial output, or ``None`` when
    that shard's leg was lost (degraded mode).  MLP shards each emit a
    complete probability vector, so the gather is the mean of the legs
    that answered; stack shards emit disjoint slices of the code layer,
    so missing legs zero-fill — the dropout-decoupling approximation.
    """
    live = [(k, out) for k, out in enumerate(outputs) if out is not None]
    if not live:
        raise ValueError("no shard outputs to gather")
    shard0 = shards[0]
    part = shard0.partition
    if shard0.kind == KIND_MLP:
        acc = np.zeros_like(np.asarray(live[0][1], dtype=np.float64))
        for _, out in live:
            acc += np.asarray(out, dtype=np.float64)
        acc /= len(live)
        return acc
    if len(live) == len(outputs):
        # Shard k's slice is Partition.bounds(top, k): contiguous and
        # ascending in k, so shard order is unit order.
        return np.concatenate(outputs, axis=-1, dtype=np.float64)
    top = len(part.layer_sizes) - 1
    first = np.asarray(live[0][1], dtype=np.float64)
    full = np.zeros(first.shape[:-1] + (part.layer_sizes[top],), dtype=np.float64)
    for k, out in live:
        lo, hi = part.bounds(top, k)
        full[..., lo:hi] = np.asarray(out, dtype=np.float64)
    return full
