"""Restricted Boltzmann Machine with contrastive divergence (paper §II.B.2).

Binary-binary RBM over visible units v and hidden units h with energy

    E(v, h) = −bᵀv − cᵀh − hᵀWv                        (Eq. 7)

conditionals

    p(vᵢ=1|h) = s(bᵢ + Wᵀ⋅ᵢ h)                          (Eq. 8)
    p(hⱼ=1|v) = s(cⱼ + Wⱼ⋅ v)                           (Eq. 9)

and the CD-k weight update (Eq. 13 for k=1)

    ΔW = η(⟨vh⟩_data − ⟨vh⟩_sample).

The Gibbs chain follows Hinton's practical guide: hidden states are sampled
binary; the reconstruction and final statistics use probabilities
(mean-field) to reduce sampling noise, with a switch to sample everything
when exact CD semantics are wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.init import normal_init, zeros_init
from repro.runtime.linalg import HAVE_BLAS, axpy_into, gemm_into
from repro.utils.mathx import logistic_log1pexp, sigmoid_into
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_int, check_matrix_shapes, check_positive


@dataclass
class CDStatistics:
    """Sufficient statistics of one contrastive-divergence evaluation.

    ``grad_*`` follow the *ascent* convention of Eqs. 10–12 (they point in
    the direction of increasing log-likelihood); trainers add
    ``learning_rate * grad`` (Eq. 13).
    """

    grad_w: np.ndarray
    grad_b: np.ndarray  # visible biases
    grad_c: np.ndarray  # hidden biases
    reconstruction_error: float

    def norm(self) -> float:
        """Euclidean norm over all gradient components."""
        return float(
            np.sqrt(
                np.sum(self.grad_w**2)
                + np.sum(self.grad_b**2)
                + np.sum(self.grad_c**2)
            )
        )


class RBM:
    """Binary-binary Restricted Boltzmann Machine.

    Parameters
    ----------
    n_visible, n_hidden:
        Layer widths.  ``W`` has shape (n_hidden, n_visible), matching
        Eq. 9's ``Wv``.
    weight_scale:
        Std-dev of the Gaussian weight init (Hinton's guide: 0.01).
    seed:
        Reproducible initialisation and Gibbs sampling.
    """

    def __init__(
        self,
        n_visible: int,
        n_hidden: int,
        weight_scale: float = 0.01,
        seed: SeedLike = None,
    ):
        self.n_visible = check_int(n_visible, "n_visible", minimum=1)
        self.n_hidden = check_int(n_hidden, "n_hidden", minimum=1)
        check_positive(weight_scale, "weight_scale")
        self._rng = as_generator(seed)
        self.w = normal_init(self.n_visible, self.n_hidden, weight_scale, self._rng)
        self.b = zeros_init(self.n_visible)  # visible bias
        self.c = zeros_init(self.n_hidden)  # hidden bias

    # ------------------------------------------------------------------
    # conditionals (Eqs. 8-9), batch vectorised — the paper's Eqs. 14-15;
    # bias add and sigmoid run in place on each GEMM result
    # ------------------------------------------------------------------
    def hidden_preactivation(self, v: np.ndarray) -> np.ndarray:
        """Wv + c per row — the shared input of Eqs. 7, 9 and the free energy."""
        v = check_matrix_shapes(v, self.n_visible, "v")
        pre = v @ self.w.T
        pre += self.c
        return pre

    def hidden_probabilities(self, v: np.ndarray) -> np.ndarray:
        """p(h=1|v) for a batch of visibles (Eq. 9 / vector Eq. 15)."""
        pre = self.hidden_preactivation(v)
        return sigmoid_into(pre, pre)

    def visible_probabilities(self, h: np.ndarray) -> np.ndarray:
        """p(v=1|h) for a batch of hiddens (Eq. 8 / vector Eq. 14)."""
        h = check_matrix_shapes(h, self.n_hidden, "h")
        pre = h @ self.w
        pre += self.b
        return sigmoid_into(pre, pre)

    def sample_hidden(self, v: np.ndarray, rng=None) -> Tuple[np.ndarray, np.ndarray]:
        """Sample binary hidden states; returns (probabilities, samples)."""
        gen = self._rng if rng is None else as_generator(rng)
        probs = self.hidden_probabilities(v)
        return probs, (gen.random(probs.shape) < probs).astype(np.float64)

    def sample_visible(self, h: np.ndarray, rng=None) -> Tuple[np.ndarray, np.ndarray]:
        """Sample binary visible states; returns (probabilities, samples)."""
        gen = self._rng if rng is None else as_generator(rng)
        probs = self.visible_probabilities(h)
        return probs, (gen.random(probs.shape) < probs).astype(np.float64)

    # ------------------------------------------------------------------
    # energies
    # ------------------------------------------------------------------
    def energy(self, v: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Joint energy E(v, h) per row (Eq. 7).

        Since hᵀWv + hᵀc = Σⱼ hⱼ·(Wv + c)ⱼ, both bilinear terms fuse into
        one row-wise dot with the hidden pre-activation already provided by
        :meth:`hidden_preactivation` — one GEMM instead of two matrix
        products plus a separate bias term.
        """
        v = check_matrix_shapes(v, self.n_visible, "v")
        h = check_matrix_shapes(h, self.n_hidden, "h")
        return -(v @ self.b) - np.einsum("ij,ij->i", h, self.hidden_preactivation(v))

    def free_energy(self, v: np.ndarray) -> np.ndarray:
        """F(v) = −bᵀv − Σⱼ log(1 + exp(cⱼ + Wⱼ·v)), per row.

        Monotone tracking quantity: CD training should (noisily) lower the
        free energy of the training data.
        """
        v = check_matrix_shapes(v, self.n_visible, "v")
        pre = self.hidden_preactivation(v)
        return -(v @ self.b) - logistic_log1pexp(pre).sum(axis=1)

    def log_partition_exact(self) -> float:
        """Exact log Z by enumerating all visible configurations.

        Exponential in ``n_visible`` — test-sized models only (≤ ~16 units).
        Summing over hiddens analytically keeps it 2^n_visible, not
        2^(n_visible+n_hidden).
        """
        if self.n_visible > 20:
            raise ValueError("exact partition function is intractable beyond 20 visibles")
        n = self.n_visible
        configs = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(
            np.float64
        )
        from repro.utils.mathx import log_sum_exp

        return float(log_sum_exp(-self.free_energy(configs)))

    # ------------------------------------------------------------------
    # contrastive divergence (Eqs. 10-13)
    # ------------------------------------------------------------------
    def contrastive_divergence(
        self,
        v0: np.ndarray,
        k: int = 1,
        rng=None,
        sample_visible: bool = False,
        workspace=None,
        hidden_mask: Optional[np.ndarray] = None,
        visible_mask: Optional[np.ndarray] = None,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> CDStatistics:
        """CD-k sufficient statistics for a mini-batch ``v0``.

        Parameters
        ----------
        k:
            Number of Gibbs steps (the paper uses k=1).
        sample_visible:
            When True the reconstruction is sampled binary instead of the
            mean-field probabilities (Hinton's guide recommends
            probabilities; exact-CD tests use samples).
        workspace:
            A :class:`repro.runtime.workspace.Workspace`: the whole chain
            (GEMMs, sigmoids, sampling, statistics) then runs through
            preallocated buffers with zero steady-state allocations and a
            bit-identical Gibbs chain (same RNG stream, same comparisons).
            The returned statistics alias workspace buffers — apply or copy
            them before the next call.
        hidden_mask, visible_mask:
            Per-unit ``{0, 1}`` float keep-masks (the shard partitioner's
            structural dropout).  Every conditional probability is
            multiplied by its layer's mask, so a dropped unit's probability
            is 0, it never samples on, and it contributes nothing to the
            statistics.  ``v0`` is expected to respect ``visible_mask``.
            The Gibbs chain still draws uniforms for *all* units, keeping
            the stream layout independent of the mask.
        out:
            With ``workspace``: the arrays ``(grad_w, grad_b, grad_c)``, in
            :meth:`parameters` order, that receive the statistics in place
            of workspace buffers (same arithmetic); the returned statistics
            alias them.
        """
        v0 = check_matrix_shapes(v0, self.n_visible, "v0")
        k = check_int(k, "k", minimum=1)
        gen = self._rng if rng is None else as_generator(rng)
        if workspace is not None:
            return self._contrastive_divergence_fused(
                v0, k, gen, sample_visible, workspace, hidden_mask, visible_mask,
                out,
            )
        if out is not None:
            raise ConfigurationError("contrastive_divergence(out=) needs a workspace")
        m = v0.shape[0]

        h0_probs = self.hidden_probabilities(v0)
        if hidden_mask is not None:
            h0_probs = h0_probs * hidden_mask
        h_samples = (gen.random(h0_probs.shape) < h0_probs).astype(np.float64)
        vk = v0
        hk_probs = h0_probs
        for _ in range(k):
            v_probs = self.visible_probabilities(h_samples)
            if visible_mask is not None:
                v_probs = v_probs * visible_mask
            if sample_visible:
                vk = (gen.random(v_probs.shape) < v_probs).astype(np.float64)
            else:
                vk = v_probs
            hk_probs = self.hidden_probabilities(vk)
            if hidden_mask is not None:
                hk_probs = hk_probs * hidden_mask
            h_samples = (gen.random(hk_probs.shape) < hk_probs).astype(np.float64)

        # positive/negative phase statistics, normalised by batch size
        grad_w = (h0_probs.T @ v0 - hk_probs.T @ vk) / m
        grad_b = (v0 - vk).mean(axis=0)
        grad_c = (h0_probs - hk_probs).mean(axis=0)
        err = float(np.mean(np.sum((v0 - vk) ** 2, axis=1)))
        return CDStatistics(grad_w, grad_b, grad_c, err)

    def _contrastive_divergence_fused(
        self, v0: np.ndarray, k: int, gen, sample_visible: bool, ws,
        hidden_mask: Optional[np.ndarray] = None,
        visible_mask: Optional[np.ndarray] = None,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> CDStatistics:
        """Workspace-backed CD-k: every kernel writes through ``out=``.

        Mirrors the reference path operation for operation (same RNG draw
        order, same ``<`` comparisons, same reduction order) so a seeded
        run produces bit-identical statistics while allocating nothing
        after warm-up.
        """
        if not v0.flags["C_CONTIGUOUS"]:
            v0 = np.ascontiguousarray(v0)
        m = v0.shape[0]
        nv, nh = self.n_visible, self.n_hidden

        h0 = ws.buf("rbm.h0", (m, nh))
        hk = ws.buf("rbm.hk", (m, nh))
        hs = ws.buf("rbm.hs", (m, nh))
        vk = ws.buf("rbm.vk", (m, nv))
        rand_h = ws.buf("rbm.rand_h", (m, nh))
        scr_h = ws.buf("rbm.scr_h", (m, nh))
        scr_v = ws.buf("rbm.scr_v", (m, nv))
        hm_full = (
            None if hidden_mask is None
            else ws.broadcast("rbm.hmask_full", hidden_mask, (m, nh))
        )
        vm_full = (
            None if visible_mask is None
            else ws.broadcast("rbm.vmask_full", visible_mask, (m, nv))
        )

        # bias rows materialised once per call: same-shape adds skip the
        # temporary NumPy allocates for broadcast operands
        c_full = ws.broadcast("rbm.c_full", self.c, (m, nh))
        b_full = ws.broadcast("rbm.b_full", self.b, (m, nv))

        # positive phase: p(h|v0), binary samples
        np.dot(v0, self.w.T, out=h0)
        h0 += c_full
        sigmoid_into(h0, h0, scratch=scr_h)
        if hm_full is not None:
            h0 *= hm_full
        gen.random(out=rand_h)
        np.less(rand_h, h0, out=hs)           # bool result cast into float64

        for _ in range(k):
            np.dot(hs, self.w, out=vk)
            vk += b_full
            sigmoid_into(vk, vk, scratch=scr_v)
            if vm_full is not None:
                vk *= vm_full
            if sample_visible:
                rand_v = ws.buf("rbm.rand_v", (m, nv))
                gen.random(out=rand_v)
                np.less(rand_v, vk, out=vk)
            np.dot(vk, self.w.T, out=hk)
            hk += c_full
            sigmoid_into(hk, hk, scratch=scr_h)
            if hm_full is not None:
                hk *= hm_full
            gen.random(out=rand_h)
            np.less(rand_h, hk, out=hs)

        if out is None:
            out = (
                ws.buf("rbm.grad_w", (nh, nv)),
                ws.buf("rbm.grad_b", (nv,)),
                ws.buf("rbm.grad_c", (nh,)),
            )
        grad_w, grad_b, grad_c = out
        # positive phase, then the negative phase *accumulated* into the
        # same buffer by a β=1 GEMM — one output array, no subtract pass
        scr_w = None if HAVE_BLAS else ws.buf("rbm.scr_w", (nh, nv))
        gemm_into(h0.T, v0, grad_w, alpha=1.0 / m)
        gemm_into(hk.T, vk, grad_w, alpha=-1.0 / m, beta=1.0, scratch=scr_w)

        diff_v = ws.buf("rbm.diff_v", (m, nv))
        np.subtract(v0, vk, out=diff_v)
        np.mean(diff_v, axis=0, out=grad_b)

        diff_h = ws.buf("rbm.diff_h", (m, nh))
        np.subtract(h0, hk, out=diff_h)
        np.mean(diff_h, axis=0, out=grad_c)

        np.multiply(diff_v, diff_v, out=diff_v)
        row_err = ws.buf("rbm.row_err", (m,))
        np.sum(diff_v, axis=1, out=row_err)
        err = float(np.mean(row_err))
        return CDStatistics(grad_w, grad_b, grad_c, err)

    def apply_update(
        self, stats: CDStatistics, learning_rate: float, workspace=None
    ) -> None:
        """In-place ascent step Δθ = η·grad (Eq. 13 / vector Eqs. 16–18).

        With ``workspace`` the scaled-gradient temporaries come from the
        arena, keeping the update allocation-free.
        """
        if workspace is None:
            self.w += learning_rate * stats.grad_w
            self.b += learning_rate * stats.grad_b
            self.c += learning_rate * stats.grad_c
            return
        for name, param, grad in (
            ("rbm.upd_w", self.w, stats.grad_w),
            ("rbm.upd_b", self.b, stats.grad_b),
            ("rbm.upd_c", self.c, stats.grad_c),
        ):
            scr = None if HAVE_BLAS else workspace.buf(name, param.shape)
            axpy_into(grad, param, learning_rate, scratch=scr)

    # ------------------------------------------------------------------
    # shard protocol of the data-parallel gradient engines
    # (repro.runtime.executor.ParallelGradientEngine.gradients)
    # ------------------------------------------------------------------
    shard_kind = "rbm"

    def parameters(self) -> List[np.ndarray]:
        """The trainable arrays (W, b, c); CD statistics share their shapes."""
        return [self.w, self.b, self.c]

    def bind_parameters(self, arrays: Sequence[np.ndarray]) -> None:
        """Adopt ``arrays`` (in :meth:`parameters` order) without copying."""
        self.w, self.b, self.c = arrays

    def batch_widths(self) -> Tuple[int]:
        return (self.n_visible,)

    def shard_gradients(
        self, workspace, out, v0, pre=None, rng=None, k: int = 1,
        sample_visible: bool = False,
    ) -> float:
        """CD-k on one shard, its Gibbs chain drawn from ``rng``, into ``out``."""
        return self.contrastive_divergence(
            v0, k=k, rng=rng, sample_visible=sample_visible, workspace=workspace,
            out=out,
        ).reconstruction_error

    @staticmethod
    def shard_result(loss: float, grads) -> CDStatistics:
        return CDStatistics(*grads, loss)

    # ------------------------------------------------------------------
    def transform(self, v: np.ndarray) -> np.ndarray:
        """Feature extraction: p(h=1|v), the DBN's layer-to-layer mapping."""
        return self.hidden_probabilities(v)

    def reconstruct(self, v: np.ndarray) -> np.ndarray:
        """One mean-field down-up pass (for monitoring reconstruction)."""
        return self.visible_probabilities(self.hidden_probabilities(v))

    def copy(self) -> "RBM":
        """Deep copy with identical parameters (fresh RNG stream)."""
        clone = RBM(self.n_visible, self.n_hidden)
        clone.w = self.w.copy()
        clone.b = self.b.copy()
        clone.c = self.c.copy()
        return clone

    def __repr__(self) -> str:
        return f"RBM(n_visible={self.n_visible}, n_hidden={self.n_hidden})"
