"""Dropout-decoupled model parallelism (*Partitioning Large Scale Deep
Belief Networks Using Dropout*, PAPERS.md).

``repro.shard`` splits a :class:`~repro.nn.mlp.DeepNetwork`,
:class:`~repro.nn.stacked.StackedAutoencoder` or
:class:`~repro.nn.stacked.DeepBeliefNetwork` into N
:class:`~repro.shard.shards.ModelShard`\\ s.  Each shard is the full
model under a structural dropout mask that zeroes every other shard's
units, so shards train on the ordinary fused kernels and serve
independently; cross-shard weights only decay, and a lost shard at
serving time is a dropout approximation rather than an error.

Layering: this package sits on :mod:`repro.nn` and
:mod:`repro.runtime`; it must not import :mod:`repro.train`,
:mod:`repro.workloads` or :mod:`repro.bench` (enforced by
``tools/check_layering.py``).  The serving integration lives in
:mod:`repro.cluster.shardrouter`; sharded pre-training is
:func:`repro.nn.sharded.sharded_pretrain`, the stack's own greedy
cascade over shards stepped by :class:`repro.train.ShardedTrainStep`;
the shard bench is :mod:`repro.bench.shardbench`.
"""

from repro.shard.checkpoint import (
    SHARD_CKPT_KIND,
    load_shard_state,
    read_shard_checkpoint,
    save_shard_checkpoint,
    shard_state_arrays,
)
from repro.shard.partition import Partition
from repro.shard.servables import gather_outputs, shard_servables
from repro.shard.shards import CrossBlock, ModelShard, merge, partition

__all__ = [
    "Partition",
    "CrossBlock",
    "ModelShard",
    "partition",
    "merge",
    "shard_servables",
    "gather_outputs",
    "SHARD_CKPT_KIND",
    "shard_state_arrays",
    "load_shard_state",
    "save_shard_checkpoint",
    "read_shard_checkpoint",
]
