"""Model shards: dropout-decoupled sub-models plus their cross blocks.

:func:`partition` splits a trained :class:`~repro.nn.mlp.DeepNetwork`,
:class:`~repro.nn.stacked.StackedAutoencoder` or
:class:`~repro.nn.stacked.DeepBeliefNetwork` into ``n_shards``
:class:`ModelShard`\\ s; :func:`merge` scatters them back into a model
whose parameters are byte-for-byte the originals.

The decomposition follows *Partitioning Large Scale Deep Belief Networks
Using Dropout*: shard ``k`` is the full model under the structural keep
mask that zeroes every other shard's units.  Under that mask the data
gradient of a cross-shard weight (a weight whose row **and** column are
masked on opposite sides) is exactly ``±0.0`` — a sum of products with a
zeroed activation — so cross weights receive *decay-only* updates.  Each
shard therefore carries:

* a **sub-model** of the same class holding the diagonal blocks (its own
  rows × its own columns), trained through the ordinary fused
  ``gradients_into`` hot path, and
* a list of :class:`CrossBlock`\\ s holding the off-diagonal weights it
  owns, advanced by :meth:`ModelShard.apply_cross_decay` with the exact
  floating-point op order of the full model's update (so sharded
  training stays within 1e-10 of the masked-model oracle).

Bias ownership: a bias on a partitioned layer is sliced; a bias on a
replicated layer (the MLP head's ``b``, the first SAE block's decoder
``b2``, the first RBM's visible ``b``) is fully copied onto every shard
and trains there independently — shard 0 is authoritative on merge, and
the periodic exchange re-syncs the copies during sharded training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.autoencoder import SparseAutoencoder
from repro.nn.mlp import DeepNetwork
from repro.nn.rbm import RBM
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from repro.runtime.linalg import axpy_into
from repro.shard.partition import Partition

__all__ = ["CrossBlock", "ModelShard", "partition", "merge"]

KIND_MLP = "mlp"
KIND_SAE = "sae"
KIND_DBN = "dbn"


def _asc(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


@dataclass
class CrossBlock:
    """An off-diagonal weight block owned by one shard.

    ``values`` is the shard's contiguous working copy of the full
    parameter's ``[rows × cols]`` sub-matrix; under the shard's mask its
    data gradient is exactly zero, so per update it only decays (MLP and
    SAE families) or stays frozen (RBM contrastive divergence has no
    weight decay).
    """

    block_index: int
    name: str
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    decay: float
    _scratch: Optional[np.ndarray] = field(default=None, repr=False)

    def scratch(self) -> np.ndarray:
        if self._scratch is None or self._scratch.shape != self.values.shape:
            self._scratch = np.empty_like(self.values)
        return self._scratch

    def decay_mul_sub(self, learning_rate: float) -> None:
        """MLP-style decay: ``t = λ·v; t *= lr; v -= t`` (matches the
        fused path's ``np.multiply`` + subtract)."""
        if self.decay == 0.0:
            return
        t = self.scratch()
        np.multiply(self.values, self.decay, out=t)
        np.multiply(t, learning_rate, out=t)
        self.values -= t

    def decay_axpy(self, learning_rate: float) -> None:
        """SAE-style decay via the same BLAS ``axpy`` kernel the fused
        block update uses (FMA behaviour included)."""
        if self.decay == 0.0:
            return
        t = self.scratch()
        np.multiply(self.values, self.decay, out=t)
        axpy_into(t, self.values, -learning_rate)


class ModelShard:
    """One dropout-decoupled partition of a full model.

    Attributes
    ----------
    index, partition, kind:
        Which shard this is, the unit assignment, and the model family
        (``"mlp"``, ``"sae"`` or ``"dbn"``).
    model:
        A sub-model of the same class as the original, holding the
        diagonal blocks — train and serve it with the ordinary
        :mod:`repro.nn` / :mod:`repro.train` machinery.
    cross:
        The off-diagonal :class:`CrossBlock`\\ s this shard owns.
    """

    def __init__(
        self,
        index: int,
        partition: Partition,
        kind: str,
        model,
        cross: Sequence[CrossBlock],
        model_meta: Optional[dict] = None,
    ):
        if kind not in (KIND_MLP, KIND_SAE, KIND_DBN):
            raise ConfigurationError(f"unknown shard kind {kind!r}")
        if not 0 <= index < partition.n_shards:
            raise ConfigurationError(
                f"shard index {index} out of range for {partition.n_shards}"
            )
        self.index = int(index)
        self.partition = partition
        self.kind = kind
        self.model = model
        self.cross: List[CrossBlock] = list(cross)
        self.model_meta = dict(model_meta or {})

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.partition.n_shards

    def units(self, layer: int) -> np.ndarray:
        return self.partition.units(layer, self.index)

    def keep_mask(self, layer: int) -> np.ndarray:
        return self.partition.keep_mask(layer, self.index)

    def structural_masks(self) -> List[np.ndarray]:
        """The {0, 1} masks that, applied as ``dropout_masks`` on the
        *full* model, reproduce this shard's computation exactly —
        one per maskable layer (MLP hidden layers / stack block outputs).
        """
        sizes = self.partition.layer_sizes
        if self.kind == KIND_MLP:
            layers = range(1, len(sizes) - 1)
        else:
            layers = range(1, len(sizes))
        return [self.keep_mask(li) for li in layers]

    # ------------------------------------------------------------------
    def apply_cross_decay(self, learning_rate: float, block_index: Optional[int] = None) -> None:
        """Advance the cross blocks by one update at ``learning_rate``.

        ``block_index`` restricts the decay to one block's cross weights
        — during greedy pre-training only the block currently in
        training moves, so earlier blocks' cross weights must hold still
        exactly like the full model's frozen layers do.
        """
        for cb in self.cross:
            if block_index is not None and cb.block_index != block_index:
                continue
            if self.kind == KIND_MLP:
                cb.decay_mul_sub(learning_rate)
            elif self.kind == KIND_SAE:
                cb.decay_axpy(learning_rate)
            # KIND_DBN: contrastive divergence has no weight decay — frozen.

    def partial_output(self, x: np.ndarray) -> np.ndarray:
        """This shard's serving output for a batch.

        MLP shards emit a full-width probability vector (each shard is a
        complete dropout-masked predictor; the router averages them);
        stack shards emit their slice of the code layer (the router
        concatenates in unit order).
        """
        if self.kind == KIND_MLP:
            return self.model.predict_proba(x)
        return self.model.transform(x)

    def __repr__(self) -> str:
        return (
            f"ModelShard(index={self.index}/{self.n_shards}, kind={self.kind!r}, "
            f"cross={len(self.cross)})"
        )


# ----------------------------------------------------------------------
# block-level partition/merge (shared by whole-model API and the sharded
# pre-training driver, which partitions one freshly-initialised block at
# a time)
# ----------------------------------------------------------------------

def partition_sae_block(
    block: SparseAutoencoder,
    part: Partition,
    layer: int,
    shard: int,
) -> tuple:
    """Split one SAE block; ``layer`` is the index of its *hidden* layer.

    Returns ``(sub_block, cross_blocks)``.  The encoder ``w1`` keeps the
    shard's hidden rows; the decoder ``w2`` keeps the shard's hidden
    columns.  For blocks above the first, the visible side (the previous
    layer) is partitioned too, leaving four off-diagonal blocks —
    ``w1[rows, other_cols]`` and ``w2[other_rows, cols]`` — that decay
    under the mask but never see data gradient.
    """
    units = part.units(layer, shard)
    prev = part.units(layer - 1, shard)
    sub = SparseAutoencoder(
        len(prev),
        len(units),
        cost=block.cost,
        output_activation=block.output_activation,
        hidden_activation=block.hidden_activation,
    )
    sub.w1 = _asc(block.w1[np.ix_(units, prev)])
    sub.b1 = _asc(block.b1[units])
    sub.w2 = _asc(block.w2[np.ix_(prev, units)])
    sub.b2 = _asc(block.b2[prev])  # a fresh copy, whole when replicated

    cross: List[CrossBlock] = []
    if part.is_partitioned(layer - 1):
        other = np.setdiff1d(np.arange(part.layer_sizes[layer - 1]), prev)
        if other.size:
            decay = block.cost.weight_decay
            cross.append(
                CrossBlock(layer - 1, "w1", units.copy(), other, _asc(block.w1[np.ix_(units, other)]), decay)
            )
            cross.append(
                CrossBlock(layer - 1, "w2", other.copy(), units.copy(), _asc(block.w2[np.ix_(other, units)]), decay)
            )
    return sub, cross


def partition_rbm_block(
    block: RBM,
    part: Partition,
    layer: int,
    shard: int,
) -> tuple:
    """Split one RBM; ``layer`` indexes its hidden layer.  Cross blocks
    are frozen (CD-k carries no weight decay)."""
    units = part.units(layer, shard)
    prev = part.units(layer - 1, shard)
    sub = RBM(len(prev), len(units))
    sub.w = _asc(block.w[np.ix_(units, prev)])
    sub.c = _asc(block.c[units])
    sub.b = _asc(block.b[prev])  # a fresh copy, whole when replicated

    cross: List[CrossBlock] = []
    if part.is_partitioned(layer - 1):
        other = np.setdiff1d(np.arange(part.layer_sizes[layer - 1]), prev)
        if other.size:
            cross.append(
                CrossBlock(layer - 1, "w", units.copy(), other, _asc(block.w[np.ix_(units, other)]), 0.0)
            )
    return sub, cross


def scatter_sae_block(full: SparseAutoencoder, shards, blocks, cross_lists, part: Partition, layer: int) -> None:
    """Write per-shard SAE sub-blocks (+ cross) back into ``full``."""
    for shard_index, sub in enumerate(blocks):
        units = part.units(layer, shard_index)
        prev = part.units(layer - 1, shard_index)
        full.w1[np.ix_(units, prev)] = sub.w1
        full.b1[units] = sub.b1
        full.w2[np.ix_(prev, units)] = sub.w2
        if part.is_partitioned(layer - 1):
            full.b2[prev] = sub.b2
        elif shard_index == 0:
            full.b2[:] = sub.b2
    for cross in cross_lists:
        for cb in cross:
            if cb.block_index != layer - 1:
                continue
            target = full.w1 if cb.name == "w1" else full.w2
            target[np.ix_(cb.rows, cb.cols)] = cb.values


def scatter_rbm_block(full: RBM, shards, blocks, cross_lists, part: Partition, layer: int) -> None:
    """Write per-shard RBM sub-blocks (+ cross) back into ``full``."""
    for shard_index, sub in enumerate(blocks):
        units = part.units(layer, shard_index)
        prev = part.units(layer - 1, shard_index)
        full.w[np.ix_(units, prev)] = sub.w
        full.c[units] = sub.c
        if part.is_partitioned(layer - 1):
            full.b[prev] = sub.b
        elif shard_index == 0:
            full.b[:] = sub.b
    for cross in cross_lists:
        for cb in cross:
            if cb.block_index == layer - 1:
                full.w[np.ix_(cb.rows, cb.cols)] = cb.values


# ----------------------------------------------------------------------
# whole-model partition / merge
# ----------------------------------------------------------------------

def partition(model, n_shards: int) -> List[ModelShard]:
    """Split a trained model into ``n_shards`` :class:`ModelShard`\\ s.

    ``merge(partition(model, n))`` reconstructs ``model`` exactly, for
    any ``n`` every partitioned layer can accommodate.
    """
    if isinstance(model, DeepNetwork):
        return _partition_mlp(model, n_shards)
    if isinstance(model, StackedAutoencoder):
        return _partition_stack(model, n_shards, KIND_SAE)
    if isinstance(model, DeepBeliefNetwork):
        return _partition_stack(model, n_shards, KIND_DBN)
    raise ConfigurationError(
        f"cannot partition {type(model).__name__}; expected DeepNetwork, "
        "StackedAutoencoder or DeepBeliefNetwork"
    )


def merge(shards: Sequence[ModelShard]):
    """Reassemble the full model from a complete set of shards."""
    shards = _check_shard_set(shards)
    if shards[0].kind == KIND_MLP:
        return _merge_mlp(shards)
    return _merge_stack(shards)


def _check_shard_set(shards: Sequence[ModelShard]) -> List[ModelShard]:
    if not shards:
        raise ConfigurationError("cannot merge an empty shard list")
    shards = sorted(shards, key=lambda s: s.index)
    part = shards[0].partition
    kind = shards[0].kind
    if len(shards) != part.n_shards:
        raise ConfigurationError(
            f"need all {part.n_shards} shards to merge, got {len(shards)}"
        )
    for i, s in enumerate(shards):
        if s.index != i:
            raise ConfigurationError(f"duplicate or missing shard index {i}")
        if s.partition != part or s.kind != kind:
            raise ConfigurationError("shards disagree on partition or kind")
    return shards


# -- MLP ----------------------------------------------------------------

def _partition_mlp(model: DeepNetwork, n_shards: int) -> List[ModelShard]:
    sizes = model.layer_sizes
    if len(sizes) < 3:
        raise ConfigurationError("need at least one hidden layer to shard an MLP")
    part = Partition(sizes, n_shards, partitioned=range(1, len(sizes) - 1))
    meta = {
        "head": model.head,
        "weight_decay": model.weight_decay,
    }
    hidden_activation = model.layers[0].activation
    shards: List[ModelShard] = []
    for k in range(n_shards):
        sub = DeepNetwork(
            part.shard_layer_sizes(k),
            hidden_activation=hidden_activation,
            head=model.head,
            weight_decay=model.weight_decay,
        )
        cross: List[CrossBlock] = []
        for j, (layer, sub_layer) in enumerate(zip(model.layers, sub.layers)):
            out_units = part.units(j + 1, k)
            in_units = part.units(j, k)
            sub_layer.w = _asc(layer.w[np.ix_(out_units, in_units)])
            sub_layer.b = _asc(layer.b[out_units])
            if part.is_partitioned(j) and part.is_partitioned(j + 1):
                other = np.setdiff1d(np.arange(sizes[j]), in_units)
                if other.size:
                    cross.append(
                        CrossBlock(
                            j, "w", out_units.copy(), other,
                            _asc(layer.w[np.ix_(out_units, other)]),
                            model.weight_decay,
                        )
                    )
        shards.append(ModelShard(k, part, KIND_MLP, sub, cross, meta))
    return shards


def _merge_mlp(shards: List[ModelShard]) -> DeepNetwork:
    part = shards[0].partition
    meta = shards[0].model_meta
    full = DeepNetwork(
        part.layer_sizes,
        hidden_activation=shards[0].model.layers[0].activation,
        head=meta["head"],
        weight_decay=meta["weight_decay"],
    )
    for shard in shards:
        for j, (layer, sub_layer) in enumerate(zip(full.layers, shard.model.layers)):
            out_units = part.units(j + 1, shard.index)
            in_units = part.units(j, shard.index)
            layer.w[np.ix_(out_units, in_units)] = sub_layer.w
            if part.is_partitioned(j + 1):
                layer.b[out_units] = sub_layer.b
            elif shard.index == 0:
                # replicated head bias: shard 0 is authoritative
                layer.b[:] = sub_layer.b
        for cb in shard.cross:
            full.layers[cb.block_index].w[np.ix_(cb.rows, cb.cols)] = cb.values
    return full


# -- greedy stacks ------------------------------------------------------

def _partition_stack(model, n_shards: int, kind: str) -> List[ModelShard]:
    if not model.is_trained:
        raise ConfigurationError(
            "stack has not been pre-trained yet; use repro.nn.sharded."
            "sharded_pretrain to train shards from scratch"
        )
    sizes = model.layer_sizes
    part = Partition(sizes, n_shards, partitioned=range(1, len(sizes)))
    meta = model._ckpt_model_meta()
    shards: List[ModelShard] = []
    for k in range(n_shards):
        sub = _make_sub_stack(model, part, k, kind)
        cross: List[CrossBlock] = []
        sub.blocks = []
        for i, block in enumerate(model.blocks):
            if kind == KIND_SAE:
                sub_block, cbs = partition_sae_block(block, part, i + 1, k)
            else:
                sub_block, cbs = partition_rbm_block(block, part, i + 1, k)
            sub.blocks.append(sub_block)
            cross.extend(cbs)
        shards.append(ModelShard(k, part, kind, sub, cross, meta))
    return shards


def _shard_specs(model, part: Partition, shard: int) -> List[LayerSpec]:
    return [
        LayerSpec(
            n_hidden=part.width(i + 1, shard),
            learning_rate=spec.learning_rate,
            epochs=spec.epochs,
            batch_size=spec.batch_size,
        )
        for i, spec in enumerate(model.layer_specs)
    ]


def _make_sub_stack(model, part: Partition, shard: int, kind: str):
    specs = _shard_specs(model, part, shard)
    if kind == KIND_SAE:
        return StackedAutoencoder(model.n_visible, specs, cost=model.cost)
    return DeepBeliefNetwork(model.n_visible, specs, cd_k=model.cd_k)


def _merge_stack(shards: List[ModelShard]):
    part = shards[0].partition
    kind = shards[0].kind
    meta = shards[0].model_meta
    specs = [LayerSpec(**s) for s in meta["layer_specs"]]
    if kind == KIND_SAE:
        full = StackedAutoencoder(meta["n_visible"], specs, cost=shards[0].model.cost)
    else:
        full = DeepBeliefNetwork(meta["n_visible"], specs, cd_k=meta["cd_k"])
    n_blocks = len(shards[0].model.blocks)
    for s in shards:
        if len(s.model.blocks) != n_blocks:
            raise ConfigurationError("shards disagree on trained block count")
    full.blocks = []
    for i in range(n_blocks):
        full_block = _empty_full_block(full, part, i, kind)
        blocks = [s.model.blocks[i] for s in shards]
        cross_lists = [s.cross for s in shards]
        if kind == KIND_SAE:
            scatter_sae_block(full_block, shards, blocks, cross_lists, part, i + 1)
        else:
            scatter_rbm_block(full_block, shards, blocks, cross_lists, part, i + 1)
        full.blocks.append(full_block)
    return full


def _empty_full_block(full, part: Partition, index: int, kind: str):
    n_in = part.layer_sizes[index]
    n_hidden = part.layer_sizes[index + 1]
    if kind == KIND_SAE:
        template = full
        return SparseAutoencoder(
            n_in,
            n_hidden,
            cost=template.cost,
        )
    return RBM(n_in, n_hidden)
