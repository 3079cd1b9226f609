"""Sharded greedy pre-training: the stack's own cascade, over N shards.

:func:`sharded_pretrain` is the model-parallel counterpart of
:meth:`~repro.nn.stacked._GreedyStack.pretrain`, with every block split
into dropout-decoupled shards (*Partitioning Large Scale Deep Belief
Networks Using Dropout*, PAPERS.md).  It runs the stack's one greedy
block loop, :meth:`~repro.nn.stacked._GreedyStack._cascade`, and
supplies only what differs from a full-width run:

* each block is initialised full-width from the same RNG draws the
  unsharded run consumes, then split into per-shard diagonal sub-blocks
  plus decay-only :class:`~repro.shard.shards.CrossBlock`\\ s;
* the shards' block steps train in lockstep through one
  :class:`~repro.train.ShardedTrainStep` (all shards see the same
  shuffle), which advances each shard's cross decay after its update and
  every ``exchange_every`` updates runs the exchange behind the
  ``shard.exchange`` fault site: the replicated first-block visible bias
  is re-synced from shard 0;
* snapshots use the shard format of :mod:`repro.shard.checkpoint`;
* at the end the shards merge back into the stack's full-width blocks.

:mod:`repro.nn` does not import this module, so ``import repro`` stays
free of :mod:`repro.shard`; ``repro.sharded_pretrain`` resolves lazily.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.stacked import DeepBeliefNetwork, StackedAutoencoder, _Cascade
from repro.shard.checkpoint import (
    load_shard_state,
    read_shard_checkpoint,
    save_shard_checkpoint,
)
from repro.shard.partition import Partition
from repro.shard.shards import (
    KIND_DBN,
    KIND_SAE,
    ModelShard,
    _make_sub_stack,
    merge,
    partition_rbm_block,
    partition_sae_block,
)
from repro.train.batches import batch_bounds
from repro.train.shardstep import ShardedTrainStep

__all__ = ["sharded_pretrain"]


class _ShardedCascade(_Cascade):
    """The cascade's models are the shards' sub-stacks."""

    def __init__(self, stack, n_shards: int, exchange_every: int):
        super().__init__(stack)
        self.kind = KIND_SAE if isinstance(stack, StackedAutoencoder) else KIND_DBN
        sizes = stack.layer_sizes
        self.part = Partition(sizes, n_shards, partitioned=range(1, len(sizes)))
        meta = stack._ckpt_model_meta()
        self.shards: List[ModelShard] = [
            ModelShard(k, self.part, self.kind,
                       _make_sub_stack(stack, self.part, k, self.kind), [], meta)
            for k in range(n_shards)
        ]
        self.models = [shard.model for shard in self.shards]
        self.exchange_every = int(exchange_every)

    def place(self, index: int, block) -> None:
        split = partition_sae_block if self.kind == KIND_SAE else partition_rbm_block
        for shard in self.shards:
            sub_block, cross = split(block, self.part, index + 1, shard.index)
            shard.model.blocks.append(sub_block)
            shard.cross.extend(cross)

    def loop_step(self, index: int, steps: list, first_epoch: int):
        spec = self.stack.layer_specs[index]
        step = ShardedTrainStep(
            steps,
            exchange=self._sync_replicated_bias if self.exchange_every > 0 else None,
            exchange_every=self.exchange_every,
            after_apply=[
                (lambda s=shard: s.apply_cross_decay(spec.learning_rate, block_index=index))
                for shard in self.shards
            ],
        )
        if first_epoch and self.exchange_every > 0:
            # The uninterrupted run's counters carry across epochs within
            # a block; re-seed them so exchange timing stays identical.
            n_batches = len(batch_bounds(step.n_examples(), spec.batch_size))
            step.updates_applied = first_epoch * n_batches
            step.exchanges = step.updates_applied // self.exchange_every
        return step

    def _sync_replicated_bias(self, update: int) -> None:
        """Copy shard 0's replicated first-block visible bias (SAE ``b2``,
        RBM ``b``) onto every other shard.

        Only the first block's visible layer is unpartitioned, so only
        that bias exists as a full copy per shard and drifts between
        exchanges.
        """
        name = "b2" if self.kind == KIND_SAE else "b"
        source = getattr(self.shards[0].model.blocks[0], name)
        for shard in self.shards[1:]:
            np.copyto(getattr(shard.model.blocks[0], name), source)

    def finish(self) -> None:
        self.stack.blocks = merge(self.shards).blocks

    # -- snapshots -------------------------------------------------------
    def save(self, store, state: dict, arrays: dict, tag: str) -> None:
        save_shard_checkpoint(store, self.shards, **state, extra_arrays=arrays, tag=tag)

    def read(self, resume_from):
        return read_shard_checkpoint(
            resume_from, family=self.kind, partition=self.part,
            model_meta=self.stack._ckpt_model_meta(),
        )

    def restore(self, header: dict, arrays: dict, rngs) -> None:
        # Recreate the shard structures exactly as the original run did
        # (full-width init, then partition), then overwrite the bytes.
        stack = self.stack
        for j in range(int(header["block_index"]) + 1):
            self.place(j, stack._make_block(stack.layer_sizes[j], stack.layer_specs[j], rngs[2 * j]))
        load_shard_state(self.shards, arrays)


def sharded_pretrain(
    stack,
    x: np.ndarray,
    n_shards: int,
    *,
    engine=None,
    checkpoint=None,
    resume_from=None,
    exchange_every: int = 0,
    callbacks=None,
) -> List[ModelShard]:
    """Greedy layer-wise pre-training with the stack split into shards.

    ``stack`` is an *untrained* template (its hyper-parameters and seed
    define the run); on return it holds the merged full-width blocks
    (``stack.is_trained``) and the function returns the trained
    :class:`~repro.shard.shards.ModelShard` list.  With one shard the
    run is bit-identical to ``stack.pretrain(x)``.  ``exchange_every``
    > 0 re-syncs the replicated first-block bias from shard 0 every that
    many updates, behind the ``shard.exchange`` fault site.

    ``engine``, ``checkpoint``, ``resume_from`` and ``callbacks`` follow
    :meth:`~repro.nn.stacked._GreedyStack.pretrain`: a resumed run is
    bit-identical at the same seed, hyper-parameters, shard count,
    execution mode and worker count (all validated).  While the run is
    in progress block ``i`` lives in the shards
    (``shard.model.blocks[i]``); ``stack.blocks[i]`` is its merge.
    """
    if not isinstance(stack, (StackedAutoencoder, DeepBeliefNetwork)):
        raise ConfigurationError(
            f"sharded_pretrain expects a StackedAutoencoder or DeepBeliefNetwork, "
            f"got {type(stack).__name__}"
        )
    if stack.blocks:
        raise ConfigurationError(
            "stack already holds trained blocks; sharded_pretrain starts "
            "from scratch (partition() an already-trained stack instead)"
        )
    plan = _ShardedCascade(stack, n_shards, exchange_every)
    stack._cascade(
        plan, x, engine=engine, checkpoint=checkpoint, resume_from=resume_from,
        callbacks=callbacks,
    )
    return plan.shards
