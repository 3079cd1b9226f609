"""Determinism under schedule perturbation.

The engine's contract — shard *i* → worker *i* → stream *i*, reduction in
worker-index order — promises results independent of how the OS actually
interleaves the threads.  These tests *force* different interleavings
with seeded jitter at the fault sites and assert bit-equality.

The fast subset runs in tier 1; the heavier sweeps are ``tier2``/``slow``.
"""

import numpy as np
import pytest

from repro.nn.autoencoder import SparseAutoencoder
from repro.nn.cost import SparseAutoencoderCost
from repro.nn.mlp import DeepNetwork, one_hot
from repro.nn.rbm import RBM
from repro.runtime.executor import ParallelGradientEngine
from repro.testing.faults import FaultPlan, inject

TOL = 1e-10  # parallel-vs-serial equivalence bound (reduction order differs)


def _sae(seed=0):
    cost = SparseAutoencoderCost(
        weight_decay=1e-3, sparsity_target=0.05, sparsity_weight=3.0
    )
    return SparseAutoencoder(16, 9, cost=cost, seed=seed)


def _sae_grad_tuple(grads):
    return (grads.w1.copy(), grads.b1.copy(), grads.w2.copy(), grads.b2.copy())


def _assert_bit_equal(runs, names):
    first = runs[0]
    for other in runs[1:]:
        for a, b, name in zip(first, other, names):
            assert np.array_equal(a, b), f"{name} differs across jitter seeds"


class TestFastPerturbation:
    def test_sae_gradients_bit_stable_across_jitter_seeds(self):
        model = _sae()
        x = np.random.default_rng(1).random((31, model.n_visible))
        loss_ref, g_ref = model.gradients(x)
        runs, losses = [], []
        for jitter_seed in range(3):
            with inject(FaultPlan.perturb(seed=jitter_seed, jitter_s=0.002)):
                with ParallelGradientEngine(3, blas_threads=None) as eng:
                    loss, grads = eng.gradients(model, x)
            runs.append(_sae_grad_tuple(grads))
            losses.append(loss)
        _assert_bit_equal(runs, ("w1", "b1", "w2", "b2"))
        assert len(set(losses)) == 1
        assert abs(losses[0] - loss_ref) <= TOL
        assert max(float(np.abs(a - b).max())
                   for a, b in zip(runs[0], _sae_grad_tuple(g_ref))) <= TOL

    def test_cd_gradients_bit_stable_across_jitter_seeds(self):
        # CD is stochastic: bit-stability additionally proves the
        # shard→stream binding survives perturbed schedules.
        rbm = RBM(12, 7, seed=5)
        v = (np.random.default_rng(2).random((24, 12)) < 0.4).astype(np.float64)
        runs = []
        for jitter_seed in range(3):
            with inject(FaultPlan.perturb(seed=jitter_seed, jitter_s=0.002)):
                with ParallelGradientEngine(3, blas_threads=None, seed=99) as eng:
                    stats = eng.cd_gradients(rbm, v)
            runs.append((stats.grad_w.copy(), stats.grad_b.copy(),
                         stats.grad_c.copy()))
        _assert_bit_equal(runs, ("grad_w", "grad_b", "grad_c"))

    def test_supervised_gradients_bit_stable_across_jitter_seeds(self):
        net = DeepNetwork([16, 10, 4], seed=3)
        rng = np.random.default_rng(4)
        x = rng.random((26, 16))
        t = one_hot(rng.integers(0, 4, size=26), 4)
        runs = []
        for jitter_seed in range(3):
            with inject(FaultPlan.perturb(seed=jitter_seed, jitter_s=0.002)):
                with ParallelGradientEngine(3, blas_threads=None) as eng:
                    _, grads = eng.supervised_gradients(net, x, t)
            runs.append(tuple(gw.copy() for gw, _ in grads)
                        + tuple(gb.copy() for _, gb in grads))
        _assert_bit_equal(runs, tuple(f"g{i}" for i in range(len(runs[0]))))


@pytest.mark.tier2
@pytest.mark.slow
class TestStressPerturbation:
    N_REPEATS = 10

    def test_sae_many_seeds_and_workers(self):
        model = _sae(seed=8)
        x = np.random.default_rng(9).random((57, model.n_visible))
        _, g_ref = model.gradients(x)
        ref = _sae_grad_tuple(g_ref)
        for n_workers in (2, 3, 4):
            runs = []
            for jitter_seed in range(self.N_REPEATS):
                with inject(FaultPlan.perturb(seed=jitter_seed, jitter_s=0.005)):
                    with ParallelGradientEngine(n_workers, blas_threads=None) as eng:
                        _, grads = eng.gradients(model, x)
                runs.append(_sae_grad_tuple(grads))
            _assert_bit_equal(runs, ("w1", "b1", "w2", "b2"))
            assert max(float(np.abs(a - b).max())
                       for a, b in zip(runs[0], ref)) <= TOL

    def test_cd_training_trajectory_bit_stable(self):
        # Whole multi-step CD trajectories (not just one gradient) must be
        # bit-identical under perturbation at a fixed worker count.
        v = (np.random.default_rng(10).random((48, 12)) < 0.4).astype(np.float64)

        def run(jitter_seed):
            rbm = RBM(12, 7, seed=5)
            with inject(FaultPlan.perturb(seed=jitter_seed, jitter_s=0.004)):
                with ParallelGradientEngine(3, blas_threads=None, seed=42) as eng:
                    for _ in range(6):
                        stats = eng.cd_gradients(rbm, v)
                        rbm.w += 0.05 * stats.grad_w
                        rbm.b += 0.05 * stats.grad_b
                        rbm.c += 0.05 * stats.grad_c
            return rbm.w.copy(), rbm.b.copy(), rbm.c.copy()

        runs = [run(seed) for seed in range(self.N_REPEATS)]
        _assert_bit_equal(runs, ("w", "b", "c"))
