"""Allocation-regression tests: the fused hot path must not allocate.

After a warm-up step populates the workspace arena, the workspace is
frozen (so any buffer miss raises) and ``tracemalloc`` watches further
training steps.  The peak traced allocation must stay far below one
batch- or weight-sized array — catching any reintroduced temporary, not
just gross leaks.  NumPy array data goes through the traced allocator,
so a single accidental ``a * b`` on the hot path fails the test.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nn.autoencoder import SparseAutoencoder
from repro.nn.mlp import DeepNetwork, one_hot
from repro.nn.rbm import RBM
from repro.runtime.workspace import Workspace
from repro.train.loop import ModelStep

BATCH, N_VISIBLE, N_HIDDEN = 32, 128, 48

#: One (BATCH, N_VISIBLE) float64 batch is ~32 KiB and the weight matrix
#: is ~48 KiB; anything array-sized on the hot path trips this ceiling.
#: Small slack absorbs interpreter noise (frames, ints, tracemalloc's
#: own bookkeeping) without masking a real temporary.
PEAK_CEILING_BYTES = 16 * 1024


def _measure_steady_state_peak(step, warmup=3, steps=5) -> int:
    for _ in range(warmup):
        step()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for _ in range(steps):
            step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestZeroAllocationSteadyState:
    def test_sae_training_step(self):
        x = np.random.default_rng(0).random((BATCH, N_VISIBLE))
        sae = SparseAutoencoder(N_VISIBLE, N_HIDDEN, seed=1)
        ws = Workspace(name="alloc-test-sae")

        def step():
            _, grads = sae.gradients_into(x, ws)
            sae.apply_update(grads, 0.01, workspace=ws)

        step()
        ws.freeze()  # a buffer miss is now a hard error, not a silent alloc
        peak = _measure_steady_state_peak(step)
        assert peak < PEAK_CEILING_BYTES, f"hot path allocated {peak} bytes"

    def test_rbm_training_step(self):
        x = (np.random.default_rng(0).random((BATCH, N_VISIBLE)) < 0.5).astype(
            np.float64
        )
        rbm = RBM(N_VISIBLE, N_HIDDEN, seed=2)
        ws = Workspace(name="alloc-test-rbm")
        gen = np.random.default_rng(3)

        def step():
            stats = rbm.contrastive_divergence(x, rng=gen, workspace=ws)
            rbm.apply_update(stats, 0.01, workspace=ws)

        step()
        ws.freeze()
        peak = _measure_steady_state_peak(step)
        assert peak < PEAK_CEILING_BYTES, f"hot path allocated {peak} bytes"

    def test_mlp_training_step(self):
        rng = np.random.default_rng(0)
        net = DeepNetwork([N_VISIBLE, N_HIDDEN, 10], head="softmax", seed=4)
        x = rng.random((BATCH, N_VISIBLE))
        targets = one_hot(rng.integers(0, 10, size=BATCH), 10)
        ws = Workspace(name="alloc-test-mlp")

        def step():
            _, grads = net.gradients_into(x, targets, ws)
            net.apply_update(grads, 0.01, workspace=ws)

        step()
        ws.freeze()
        peak = _measure_steady_state_peak(step)
        assert peak < PEAK_CEILING_BYTES, f"hot path allocated {peak} bytes"

    @pytest.mark.parametrize("kind", ["sae", "rbm", "mlp"])
    def test_w1_engine_step(self, kind):
        # The serial training step: one W=1 engine call, then apply_update
        # through the engine's coordinator workspace.
        rng = np.random.default_rng(0)
        x = rng.random((BATCH, N_VISIBLE))
        if kind == "sae":
            model, data = SparseAutoencoder(N_VISIBLE, N_HIDDEN, seed=1), x
        elif kind == "rbm":
            model, data = RBM(N_VISIBLE, N_HIDDEN, seed=2), (x < 0.5).astype(np.float64)
        else:
            model = DeepNetwork([N_VISIBLE, N_HIDDEN, 10], head="softmax", seed=4)
            data = (x, one_hot(rng.integers(0, 10, size=BATCH), 10))
        train = ModelStep(model, data, 0.01, rng=np.random.default_rng(3))
        batch = train.load(np.arange(BATCH))

        def step():
            _, grads = train.compute(batch)
            train.apply(grads)

        step()
        train.engine.coordinator_workspace.freeze()
        for slot in train.engine._inline:
            slot.workspace.freeze()
        peak = _measure_steady_state_peak(step)
        assert peak < PEAK_CEILING_BYTES, f"engine step allocated {peak} bytes"

    def test_reference_path_does_allocate(self):
        # Sanity check that the methodology can see allocations at all:
        # the reference kernels must trip the same ceiling the fused
        # kernels stay under.
        x = np.random.default_rng(0).random((BATCH, N_VISIBLE))
        sae = SparseAutoencoder(N_VISIBLE, N_HIDDEN, seed=1)

        def step():
            _, grads = sae.gradients(x)
            sae.apply_update(grads, 0.01)

        peak = _measure_steady_state_peak(step)
        assert peak > PEAK_CEILING_BYTES
