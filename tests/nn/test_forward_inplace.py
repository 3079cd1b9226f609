"""Full-dataset forward passes run in place on their GEMM results.

``encode``, the RBM conditionals and ``DeepNetwork._forward`` add the
bias and apply the activation on the array the GEMM returned, so they
must still equal the textbook "GEMM + bias → fresh array → sigmoid"
formulas bit for bit, and never touch their input.  The SAE epoch metric
reduces its residual by one BLAS dot, so it matches the two-pass cost
only to rounding, and must fit in a fixed number of dataset-sized
arrays.  The greedy cascades skip the data transform after the last
block, whose output nothing reads.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nn.sharded import sharded_pretrain
from repro.nn.autoencoder import SparseAutoencoder
from repro.nn.cost import SparseAutoencoderCost
from repro.nn.mlp import DeepNetwork
from repro.nn.rbm import RBM
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from tests.properties.test_property_mathx_inplace import two_branch_sigmoid

M, N_VISIBLE, N_HIDDEN = 37, 24, 16


def _data(shape, seed=0, scale=4.0):
    return np.random.default_rng(seed).normal(0.0, scale, shape)


def _trained_sae(**kwargs) -> SparseAutoencoder:
    sae = SparseAutoencoder(N_VISIBLE, N_HIDDEN, seed=3, **kwargs)
    # push the weights off their small init so the sigmoid sees both tails
    sae.w1 *= 40.0
    sae.b1 += _data(N_HIDDEN, seed=4)
    sae.w2 *= 40.0
    sae.b2 += _data(N_VISIBLE, seed=5)
    return sae


def _trained_rbm() -> RBM:
    rbm = RBM(N_VISIBLE, N_HIDDEN, seed=6)
    rbm.w = _data(rbm.w.shape, seed=7)
    rbm.b = _data(N_VISIBLE, seed=8)
    rbm.c = _data(N_HIDDEN, seed=9)
    return rbm


def _old_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _old_activation(name, z):
    return {"sigmoid": two_branch_sigmoid, "tanh": np.tanh, "identity": np.asarray}[name](z)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBitIdenticalToAllocatingFormulas:
    def test_sae_encode(self):
        sae = _trained_sae()
        x = _data((M, N_VISIBLE))
        before = x.copy()
        want = two_branch_sigmoid(x @ sae.w1.T + sae.b1)
        assert_bitwise(sae.encode(x), want)
        assert_bitwise(x, before)

    @pytest.mark.parametrize("output", ["sigmoid", "identity"])
    def test_sae_decode_and_reconstruct(self, output):
        sae = _trained_sae(output_activation=output)
        x = _data((M, N_VISIBLE))
        before = x.copy()
        hidden = two_branch_sigmoid(x @ sae.w1.T + sae.b1)
        want = _old_activation(output, hidden @ sae.w2.T + sae.b2)
        assert_bitwise(sae.reconstruct(x), want)
        assert_bitwise(x, before)

    def test_rbm_transform_and_visible_probabilities(self):
        rbm = _trained_rbm()
        v = _data((M, N_VISIBLE))
        h = _data((M, N_HIDDEN), seed=1)
        v_before, h_before = v.copy(), h.copy()
        assert_bitwise(rbm.transform(v), two_branch_sigmoid(v @ rbm.w.T + rbm.c))
        assert_bitwise(rbm.visible_probabilities(h), two_branch_sigmoid(h @ rbm.w + rbm.b))
        assert_bitwise(v, v_before)
        assert_bitwise(h, h_before)

    @pytest.mark.parametrize(
        "hidden, head",
        [("sigmoid", "softmax"), ("sigmoid", "sigmoid"), ("tanh", "identity")],
    )
    def test_deep_network_predict_proba(self, hidden, head):
        net = DeepNetwork(
            [N_VISIBLE, N_HIDDEN, 12, 5], hidden_activation=hidden, head=head, seed=2
        )
        for k, layer in enumerate(net.layers):
            layer.w = layer.w * 30.0
            layer.b = _data(layer.b.shape, seed=10 + k)
        x = _data((M, N_VISIBLE))
        before = x.copy()
        cur = x
        for i, layer in enumerate(net.layers):
            z = cur @ layer.w.T + layer.b
            if i == net.n_layers - 1:
                cur = _old_softmax(z) if head == "softmax" else _old_activation(head, z)
            else:
                cur = _old_activation(hidden, z)
        assert_bitwise(net.predict_proba(x), cur)
        assert_bitwise(x, before)


class TestReconstructionError:
    @pytest.mark.parametrize("output", ["sigmoid", "identity"])
    def test_matches_two_pass_cost(self, output):
        sae = _trained_sae(output_activation=output, cost=SparseAutoencoderCost())
        x = _data((M, N_VISIBLE), scale=1.0)
        before = x.copy()
        want = sae.cost.reconstruction(sae.reconstruct(x), x)
        got = sae.reconstruction_error(x)
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert_bitwise(x, before)

    def test_peak_memory_is_bounded_by_three_dataset_arrays(self):
        # the pretrain_sae first block: 3000 patches, 576 -> 400
        m, n_visible, n_hidden = 3000, 576, 400
        x = np.random.default_rng(0).standard_normal((m, n_visible))
        sae = SparseAutoencoder(n_visible, n_hidden, seed=1)
        sae.reconstruction_error(x)  # warm-up: BLAS and allocator caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            sae.reconstruction_error(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 8 * m * (n_hidden + 2 * n_visible)
        assert peak < bound, f"peak {peak} bytes >= {bound} (one code + two recon arrays)"


def _stack(kind):
    specs = [LayerSpec(n, learning_rate=0.05, epochs=1, batch_size=10) for n in (12, 8, 4)]
    if kind == "sae":
        return StackedAutoencoder(N_VISIBLE, specs, seed=0)
    return DeepBeliefNetwork(N_VISIBLE, specs, seed=0)


class TestLastBlockTransformSkipped:
    @pytest.mark.parametrize("kind", ["sae", "dbn"])
    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_three_layer_cascade_transforms_twice_per_model(self, monkeypatch, kind, n_shards):
        stack = _stack(kind)
        x = np.random.default_rng(1).random((30, N_VISIBLE))
        if kind == "dbn":
            x = (x < 0.5).astype(np.float64)
        calls = []
        original = type(stack)._block_transform

        def counting(self, block, data):
            calls.append(block.n_visible)
            return original(self, block, data)

        monkeypatch.setattr(type(stack), "_block_transform", counting)
        if n_shards is None:
            stack.pretrain(x)
            assert calls == [N_VISIBLE, 12]
        else:
            sharded_pretrain(stack, x, n_shards)
            # each shard's sub-stack feeds its two upper blocks, never past the top
            assert len(calls) == 2 * n_shards
        assert len(stack.blocks) == 3
