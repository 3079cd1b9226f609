"""Seeded equivalence tests: fused (workspace) kernels vs reference.

The reference allocating implementations are kept as the numerical
oracle; every fused ``*_into`` / workspace-backed path must agree to
within 1e-10 across batch sizes, layer widths and activations (ISSUE
acceptance criterion — in practice agreement is ~1e-13 or bitwise).
"""

import numpy as np
import pytest

from repro.nn.autoencoder import SparseAutoencoder
from repro.nn.cost import SparseAutoencoderCost
from repro.nn.mlp import DeepNetwork, one_hot
from repro.nn.rbm import RBM
from repro.runtime.workspace import Workspace

TOL = 1e-10

SHAPES = [(1, 8, 5), (16, 32, 12), (64, 96, 48)]


def _max_sae_diff(ref, fused):
    loss_ref, g_ref = ref
    loss_fused, g_fused = fused
    return max(
        abs(loss_ref - loss_fused),
        float(np.max(np.abs(g_ref.w1 - g_fused.w1))),
        float(np.max(np.abs(g_ref.b1 - g_fused.b1))),
        float(np.max(np.abs(g_ref.w2 - g_fused.w2))),
        float(np.max(np.abs(g_ref.b2 - g_fused.b2))),
    )


class TestAutoencoderFusedGradients:
    @pytest.mark.parametrize("batch,n_visible,n_hidden", SHAPES)
    def test_matches_reference_across_shapes(self, batch, n_visible, n_hidden):
        x = np.random.default_rng(batch).random((batch, n_visible))
        sae = SparseAutoencoder(n_visible, n_hidden, seed=7)
        ws = Workspace()
        assert _max_sae_diff(sae.gradients(x), sae.gradients_into(x, ws)) <= TOL

    @pytest.mark.parametrize(
        "hidden,output,sparsity",
        [
            ("sigmoid", "sigmoid", 0.0),
            ("sigmoid", "sigmoid", 3.0),
            ("sigmoid", "identity", 0.0),
            ("tanh", "identity", 0.0),
            ("tanh", "tanh", 0.0),
        ],
    )
    def test_matches_reference_across_activations(self, hidden, output, sparsity):
        cost = SparseAutoencoderCost(
            weight_decay=1e-3, sparsity_target=0.05, sparsity_weight=sparsity
        )
        sae = SparseAutoencoder(
            20, 9, cost=cost, hidden_activation=hidden,
            output_activation=output, seed=3,
        )
        x = np.random.default_rng(0).random((13, 20))
        ws = Workspace()
        assert _max_sae_diff(sae.gradients(x), sae.gradients_into(x, ws)) <= TOL

    def test_repeated_calls_reuse_buffers_and_stay_exact(self):
        sae = SparseAutoencoder(24, 10, seed=5)
        ws = Workspace()
        gen = np.random.default_rng(1)
        for _ in range(4):
            x = gen.random((8, 24))
            assert _max_sae_diff(sae.gradients(x), sae.gradients_into(x, ws)) <= TOL
        assert ws.misses > 0 and ws.hits > ws.misses

    def test_apply_update_matches_reference(self):
        import copy

        x = np.random.default_rng(2).random((10, 15))
        ref = SparseAutoencoder(15, 6, seed=9)
        fused = copy.deepcopy(ref)
        ws = Workspace()
        _, g_ref = ref.gradients(x)
        _, g_fused = fused.gradients_into(x, ws)
        ref.apply_update(g_ref, 0.1)
        fused.apply_update(g_fused, 0.1, workspace=ws)
        for a, b in ((ref.w1, fused.w1), (ref.b1, fused.b1),
                     (ref.w2, fused.w2), (ref.b2, fused.b2)):
            assert float(np.max(np.abs(a - b))) <= TOL


class TestRBMFusedCD:
    @pytest.mark.parametrize("batch,n_visible,n_hidden", SHAPES)
    @pytest.mark.parametrize("k,sample_visible", [(1, False), (2, True)])
    def test_matches_reference(self, batch, n_visible, n_hidden, k, sample_visible):
        x = (np.random.default_rng(0).random((batch, n_visible)) < 0.5).astype(float)
        rbm = RBM(n_visible, n_hidden, seed=4)
        ws = Workspace()
        s_ref = rbm.contrastive_divergence(
            x, k=k, rng=np.random.default_rng(11), sample_visible=sample_visible
        )
        s_fused = rbm.contrastive_divergence(
            x, k=k, rng=np.random.default_rng(11),
            sample_visible=sample_visible, workspace=ws,
        )
        assert float(np.max(np.abs(s_ref.grad_w - s_fused.grad_w))) <= TOL
        assert float(np.max(np.abs(s_ref.grad_b - s_fused.grad_b))) <= TOL
        assert float(np.max(np.abs(s_ref.grad_c - s_fused.grad_c))) <= TOL
        assert abs(
            s_ref.reconstruction_error - s_fused.reconstruction_error
        ) <= TOL

    def test_gibbs_chain_is_bitwise_identical(self):
        # Sampling compares rand < p, so the chain must be *bit*-exact or
        # sample flips would blow the gradient equivalence up to O(1/m).
        x = (np.random.default_rng(5).random((32, 40)) < 0.5).astype(float)
        rbm = RBM(40, 17, seed=6)
        ws = Workspace()
        s_ref = rbm.contrastive_divergence(x, k=3, rng=np.random.default_rng(2))
        s_fused = rbm.contrastive_divergence(
            x, k=3, rng=np.random.default_rng(2), workspace=ws
        )
        assert s_ref.reconstruction_error == s_fused.reconstruction_error

    def test_apply_update_matches_reference(self):
        import copy

        x = (np.random.default_rng(1).random((12, 20)) < 0.5).astype(float)
        ref = RBM(20, 8, seed=3)
        fused = copy.deepcopy(ref)
        ws = Workspace()
        stats = ref.contrastive_divergence(x, rng=np.random.default_rng(0))
        ref.apply_update(stats, 0.05)
        fused.apply_update(stats, 0.05, workspace=ws)
        assert float(np.max(np.abs(ref.w - fused.w))) <= TOL
        assert float(np.max(np.abs(ref.b - fused.b))) <= TOL
        assert float(np.max(np.abs(ref.c - fused.c))) <= TOL


class TestDeepNetworkFusedGradients:
    @pytest.mark.parametrize("head", ["softmax", "sigmoid", "identity"])
    @pytest.mark.parametrize("batch", [1, 7, 33])
    def test_matches_reference(self, head, batch):
        rng = np.random.default_rng(batch)
        net = DeepNetwork([12, 9, 4], head=head, weight_decay=1e-3, seed=8)
        x = rng.random((batch, 12))
        if head == "softmax":
            targets = one_hot(rng.integers(0, 4, size=batch), 4)
        else:
            targets = rng.random((batch, 4))
        ws = Workspace()
        loss_ref, g_ref = net.gradients(x, targets)
        loss_fused, g_fused = net.gradients_into(x, targets, ws)
        assert abs(loss_ref - loss_fused) <= TOL
        for (gw_r, gb_r), (gw_f, gb_f) in zip(g_ref, g_fused):
            assert float(np.max(np.abs(gw_r - gw_f))) <= TOL
            assert float(np.max(np.abs(gb_r - gb_f))) <= TOL

    def test_apply_update_matches_reference(self):
        import copy

        rng = np.random.default_rng(0)
        ref = DeepNetwork([10, 6, 3], head="softmax", seed=2)
        fused = copy.deepcopy(ref)
        x = rng.random((9, 10))
        targets = one_hot(rng.integers(0, 3, size=9), 3)
        ws = Workspace()
        _, g_ref = ref.gradients(x, targets)
        _, g_fused = fused.gradients_into(x, targets, ws)
        ref.apply_update(g_ref, 0.2)
        fused.apply_update(g_fused, 0.2, workspace=ws)
        for lr_, lf in zip(ref.layers, fused.layers):
            assert float(np.max(np.abs(lr_.w - lf.w))) <= TOL
            assert float(np.max(np.abs(lr_.b - lf.b))) <= TOL


class TestFlatViewMode:
    def test_flat_loss_and_grad_matches_legacy(self):
        x = np.random.default_rng(3).random((11, 14))
        legacy = SparseAutoencoder(14, 6, seed=1)
        view = SparseAutoencoder(14, 6, seed=1)
        view.enable_flat_views()
        theta = legacy.get_flat_parameters()
        l_ref, g_ref = legacy.flat_loss_and_grad(theta, x)
        l_view, g_view = view.flat_loss_and_grad(theta, x)
        assert abs(l_ref - l_view) <= TOL
        assert float(np.max(np.abs(g_ref - g_view))) <= TOL

    def test_view_mode_with_workspace_and_grad_out(self):
        x = np.random.default_rng(4).random((9, 14))
        legacy = SparseAutoencoder(14, 6, seed=1)
        view = SparseAutoencoder(14, 6, seed=1)
        view.enable_flat_views()
        ws = Workspace()
        theta = legacy.get_flat_parameters()
        grad_out = np.empty_like(theta)
        l_ref, g_ref = legacy.flat_loss_and_grad(theta, x)
        l_view, g_view = view.flat_loss_and_grad(
            theta, x, workspace=ws, grad_out=grad_out
        )
        assert g_view is grad_out
        assert abs(l_ref - l_view) <= TOL
        assert float(np.max(np.abs(g_ref - g_view))) <= TOL

    def test_successive_grads_are_independent_arrays(self):
        # L-BFGS keeps old gradients (y = g_new - g_old); the view-mode
        # fast path must not hand back the same mutable buffer twice.
        x = np.random.default_rng(5).random((8, 14))
        sae = SparseAutoencoder(14, 6, seed=1)
        sae.enable_flat_views()
        theta = sae.get_flat_parameters()
        _, g1 = sae.flat_loss_and_grad(theta, x)
        g1_snapshot = g1.copy()
        _, g2 = sae.flat_loss_and_grad(theta + 0.01, x)
        assert float(np.max(np.abs(g1 - g1_snapshot))) == 0.0
        assert g1 is not g2

    def test_get_flat_parameters_out_variant(self):
        sae = SparseAutoencoder(14, 6, seed=1)
        out = np.empty(sae.n_parameters)
        res = sae.get_flat_parameters(out=out)
        assert res is out
        np.testing.assert_array_equal(out, sae.get_flat_parameters())


def _bits(arrays):
    return [np.ascontiguousarray(a).view(np.uint64) for a in arrays]


class TestOutArrays:
    """``out=`` holds exactly the bits the workspace buffers would."""

    @pytest.mark.parametrize("k,sample_visible", [(1, False), (1, True), (2, False)])
    @pytest.mark.parametrize("rows", [32, 13])  # full and ragged batch
    @pytest.mark.parametrize("masked", [False, True])
    def test_rbm_contrastive_divergence(self, k, sample_visible, rows, masked):
        rbm = RBM(24, 10, seed=3)
        gen = np.random.default_rng(4)
        v = (gen.random((rows, 24)) < 0.5).astype(np.float64)
        masks = {}
        if masked:
            masks = {
                "hidden_mask": (gen.random(10) < 0.7).astype(np.float64),
                "visible_mask": (gen.random(24) < 0.8).astype(np.float64),
            }
            v *= masks["visible_mask"]

        def run(out):
            return rbm.contrastive_divergence(
                v, k=k, rng=np.random.default_rng(5), sample_visible=sample_visible,
                workspace=Workspace(), out=out, **masks,
            )

        ref = run(None)
        out = [np.empty_like(p) for p in rbm.parameters()]
        got = run(out)
        assert got.grad_w is out[0] and got.grad_b is out[1] and got.grad_c is out[2]
        for a, b in zip(_bits([ref.grad_w, ref.grad_b, ref.grad_c]), _bits(out)):
            assert np.array_equal(a, b)
        assert got.reconstruction_error == ref.reconstruction_error

    def test_rbm_out_needs_a_workspace(self):
        from repro.errors import ConfigurationError

        rbm = RBM(6, 3, seed=0)
        with pytest.raises(ConfigurationError, match="workspace"):
            rbm.contrastive_divergence(
                np.ones((2, 6)), out=[np.empty_like(p) for p in rbm.parameters()]
            )

    @pytest.mark.parametrize("head", ["softmax", "sigmoid"])
    @pytest.mark.parametrize("rows", [33, 7])  # full and ragged batch
    @pytest.mark.parametrize("dropout", [False, True])
    def test_mlp_gradients_into(self, head, rows, dropout):
        rng = np.random.default_rng(rows)
        net = DeepNetwork([12, 9, 6, 4], head=head, weight_decay=1e-3, seed=8)
        x = rng.random((rows, 12))
        if head == "softmax":
            targets = one_hot(rng.integers(0, 4, size=rows), 4)
        else:
            targets = rng.random((rows, 4))
        masks = net.sample_dropout_masks(0.3, rng=1) if dropout else None
        loss_ref, g_ref = net.gradients_into(x, targets, Workspace(), dropout_masks=masks)
        ref = [a.copy() for pair in g_ref for a in pair]
        out = [np.empty_like(p) for p in net.parameters()]
        loss, grads = net.gradients_into(
            x, targets, Workspace(), dropout_masks=masks, out=out
        )
        assert loss == loss_ref
        assert all(a is b for a, b in zip([a for pair in grads for a in pair], out))
        for a, b in zip(_bits(ref), _bits(out)):
            assert np.array_equal(a, b)
