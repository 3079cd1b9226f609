"""Serial runs against hand-rolled loops over the direct kernels.

A run with no engine trains through a W=1 engine whose only RNG stream is
the shuffle generator.  These oracles are the historical serial loops,
written out: one ``epoch_order`` per epoch, then the fused kernel (CD-k
drawing from that same generator) and ``apply_update`` on one workspace.
The runs must match them byte for byte.
"""

import numpy as np
import pytest

from repro.nn.autoencoder import SparseAutoencoder
from repro.nn.cost import SparseAutoencoderCost
from repro.nn.finetune import finetune
from repro.nn.mlp import DeepNetwork, one_hot
from repro.nn.rbm import RBM
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from repro.runtime.workspace import Workspace
from repro.train.batches import batch_bounds, epoch_order
from repro.utils.rng import as_generator, spawn_generators

# 50 rows: every epoch ends on a ragged batch.
SPECS = [LayerSpec(9, 0.1, epochs=2, batch_size=16), LayerSpec(6, 0.2, epochs=3, batch_size=12)]
SEED = 11


@pytest.fixture
def x(digits_25):
    return np.ascontiguousarray(digits_25[:50])


def _mean(values):
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _oracle_stack(x, make_block, update, metric, transform):
    """The greedy cascade: ``(blocks, per-block epoch metrics)``."""
    rngs = spawn_generators(SEED, 2 * len(SPECS))
    blocks, errors, current, n_in = [], [], x, x.shape[1]
    for i, spec in enumerate(SPECS):
        block, shuffle, ws = make_block(n_in, spec, rngs[2 * i]), rngs[2 * i + 1], Workspace()
        per_epoch = []
        for _ in range(spec.epochs):
            order = epoch_order(current.shape[0], shuffle)
            losses = [
                update(block, current[order[lo:hi]], spec, shuffle, ws)
                for lo, hi in batch_bounds(current.shape[0], spec.batch_size)
            ]
            per_epoch.append(metric(block, current, losses))
        blocks.append(block)
        errors.append(per_epoch)
        current, n_in = transform(block, current), spec.n_hidden
    return blocks, errors


def _bits_equal(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_sae_pretrain_matches_direct_kernels(x):
    cost = SparseAutoencoderCost(weight_decay=1e-3, sparsity_target=0.1, sparsity_weight=0.3)

    def update(block, batch, spec, _shuffle, ws):
        loss, grads = block.gradients_into(batch, ws)
        block.apply_update(grads, spec.learning_rate, workspace=ws)
        return loss

    blocks, errors = _oracle_stack(
        x,
        lambda n_in, spec, rng: SparseAutoencoder(n_in, spec.n_hidden, cost=cost, seed=rng),
        update,
        lambda block, data, _losses: float(block.reconstruction_error(data)),
        lambda block, data: block.encode(data),
    )
    stack = StackedAutoencoder(x.shape[1], SPECS, cost=cost, seed=SEED).pretrain(x)
    assert stack.layer_errors == errors
    for ran, oracle in zip(stack.blocks, blocks):
        for name in ("w1", "b1", "w2", "b2"):
            assert _bits_equal(getattr(ran, name), getattr(oracle, name))


@pytest.mark.parametrize("cd_k", [1, 2])
def test_dbn_pretrain_matches_direct_kernels(x, cd_k):
    v = (x > 0.5).astype(np.float64)

    def update(block, batch, spec, shuffle, ws):
        stats = block.contrastive_divergence(batch, k=cd_k, rng=shuffle, workspace=ws)
        block.apply_update(stats, spec.learning_rate, workspace=ws)
        return stats.reconstruction_error

    blocks, errors = _oracle_stack(
        v,
        lambda n_in, spec, rng: RBM(n_in, spec.n_hidden, seed=rng),
        update,
        lambda _block, _data, losses: _mean(losses),
        lambda block, data: block.transform(data),
    )
    dbn = DeepBeliefNetwork(v.shape[1], SPECS, cd_k=cd_k, seed=SEED).pretrain(v)
    assert dbn.layer_errors == errors
    for ran, oracle in zip(dbn.blocks, blocks):
        for name in ("w", "b", "c"):
            assert _bits_equal(getattr(ran, name), getattr(oracle, name))


def test_finetune_matches_direct_kernels(x):
    labels = np.arange(x.shape[0]) % 10
    layer_sizes = [x.shape[1], 12, 10]

    oracle = DeepNetwork(layer_sizes, head="softmax", weight_decay=1e-3, seed=4)
    targets = one_hot(labels, 10)
    rng, ws = as_generator(SEED), Workspace()
    losses, accuracy = [], []
    for _ in range(3):
        order = epoch_order(x.shape[0], rng)
        for lo, hi in batch_bounds(x.shape[0], 16):
            idx = order[lo:hi]
            loss, grads = oracle.gradients_into(x[idx], targets[idx], ws)
            oracle.apply_update(grads, 0.3, workspace=ws)
            losses.append(loss)
        accuracy.append(float(oracle.accuracy(x, labels)))

    net = DeepNetwork(layer_sizes, head="softmax", weight_decay=1e-3, seed=4)
    result = finetune(net, x, labels, learning_rate=0.3, batch_size=16, epochs=3, seed=SEED)
    assert result.losses == losses
    assert result.train_accuracy == accuracy
    for ran, want in zip(net.layers, oracle.layers):
        assert _bits_equal(ran.w, want.w) and _bits_equal(ran.b, want.b)
