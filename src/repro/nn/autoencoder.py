"""Sparse Autoencoder (paper §II.B.1, Eqs. 1–6).

A three-layer network: visible → hidden → reconstruction,

    y = s(W₁x + b₁)            (Eq. 1, encode)
    z = s'(W₂y + b₂)           (Eq. 2, decode; s' may be linear)

trained to minimise :class:`repro.nn.cost.SparseAutoencoderCost` by
back-propagation.  All array math is mini-batch vectorised: rows are
examples, so the forward pass is two GEMMs and the backward pass four —
exactly the operations the paper hands to MKL on the coprocessor.

The gradient includes the KL-sparsity correction, where the mean hidden
activation ρ̂ is computed over the mini-batch (the CS294A convention the
paper follows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.activations import Activation, Sigmoid, get_activation
from repro.nn.cost import SparseAutoencoderCost
from repro.nn.init import uniform_fanin_init, zeros_init
from repro.runtime.linalg import HAVE_BLAS, axpy_into, dot_self, gemm_into
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_int, check_matrix_shapes


@dataclass
class AutoencoderGradients:
    """Container for one gradient evaluation (∂J/∂W₁, ∂J/∂b₁, ∂J/∂W₂, ∂J/∂b₂)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __iter__(self):
        """The four arrays in :meth:`SparseAutoencoder.parameters` order."""
        return iter((self.w1, self.b1, self.w2, self.b2))

    def scaled(self, factor: float) -> "AutoencoderGradients":
        """Return a copy with every component multiplied by ``factor``."""
        return AutoencoderGradients(
            self.w1 * factor, self.b1 * factor, self.w2 * factor, self.b2 * factor
        )

    def norm(self) -> float:
        """Euclidean norm over all components (used for convergence checks)."""
        return float(
            np.sqrt(
                np.sum(self.w1**2)
                + np.sum(self.b1**2)
                + np.sum(self.w2**2)
                + np.sum(self.b2**2)
            )
        )


class SparseAutoencoder:
    """The paper's Sparse Autoencoder building block.

    Parameters
    ----------
    n_visible, n_hidden:
        Layer widths.  The output layer always has ``n_visible`` units.
    cost:
        Objective hyper-parameters (λ, ρ, β).  Defaults to a mild weight
        decay with the sparsity penalty switched off.
    output_activation:
        ``"sigmoid"`` for data in [0, 1] (digit images) or ``"identity"``
        for real-valued patches (natural images).
    seed:
        Reproducible weight initialisation.
    """

    def __init__(
        self,
        n_visible: int,
        n_hidden: int,
        cost: Optional[SparseAutoencoderCost] = None,
        output_activation="sigmoid",
        hidden_activation="sigmoid",
        seed: SeedLike = None,
    ):
        self.n_visible = check_int(n_visible, "n_visible", minimum=1)
        self.n_hidden = check_int(n_hidden, "n_hidden", minimum=1)
        self.cost = cost if cost is not None else SparseAutoencoderCost()
        self.hidden_activation: Activation = get_activation(hidden_activation)
        self.output_activation: Activation = get_activation(output_activation)
        if self.cost.sparsity_weight > 0 and not isinstance(
            self.hidden_activation, Sigmoid
        ):
            raise ConfigurationError(
                "the KL sparsity penalty assumes sigmoid hidden units"
            )
        rng = as_generator(seed)
        self.w1 = uniform_fanin_init(self.n_visible, self.n_hidden, rng)
        self.b1 = zeros_init(self.n_hidden)
        self.w2 = uniform_fanin_init(self.n_hidden, self.n_visible, rng)
        self.b2 = zeros_init(self.n_visible)

    # ------------------------------------------------------------------
    # forward passes: bias add and activation run in place on each GEMM
    # result, so a layer costs one output array and no temporaries
    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray) -> np.ndarray:
        """Hidden representation y = s(W₁x + b₁) for a batch (Eq. 1)."""
        x = check_matrix_shapes(x, self.n_visible, "x")
        hidden = x @ self.w1.T
        hidden += self.b1
        return self.hidden_activation.forward_into(hidden, hidden)

    def decode(self, y: np.ndarray) -> np.ndarray:
        """Reconstruction z = s'(W₂y + b₂) for a batch of codes (Eq. 2)."""
        y = check_matrix_shapes(y, self.n_hidden, "y")
        recon = y @ self.w2.T
        recon += self.b2
        return self.output_activation.forward_into(recon, recon)

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        """Full encode→decode round trip."""
        return self.decode(self.encode(x))

    def reconstruction_error(self, x: np.ndarray) -> float:
        """Mean squared reconstruction error of the current parameters.

        The full-dataset epoch metric: ½ mean_i ‖zⁱ − xⁱ‖² as in
        :meth:`SparseAutoencoderCost.reconstruction`, with the residual
        formed in place on the reconstruction and reduced by one BLAS dot.
        The code is dropped as soon as the decoder GEMM has read it.
        """
        x = check_matrix_shapes(x, self.n_visible, "x")
        diff = self.encode(x) @ self.w2.T
        diff += self.b2
        self.output_activation.forward_into(diff, diff)
        diff -= x
        return 0.5 * dot_self(diff) / x.shape[0]

    # ------------------------------------------------------------------
    # objective and gradient
    # ------------------------------------------------------------------
    def loss(self, x: np.ndarray) -> float:
        """Total objective J(W, b, ρ) evaluated on batch ``x`` (Eq. 5)."""
        x = check_matrix_shapes(x, self.n_visible, "x")
        hidden = self.encode(x)
        recon = self.decode(hidden)
        rho_hat = hidden.mean(axis=0)
        return self.cost.total(recon, x, self.w1, self.w2, rho_hat)

    def _masked_rho(self, rho_hat: np.ndarray, hidden_mask) -> np.ndarray:
        """ρ̂ with dropped units pinned to the sparsity target.

        ``KL(ρ‖ρ)`` and its derivative are exactly ``0.0``, so pinning a
        masked unit's mean activation to ρ removes it from both the
        sparsity loss and the sparsity delta without a special code path
        (a dropped unit's ρ̂ is 0, where the KL term would blow up).
        """
        return np.where(hidden_mask == 0.0, self.cost.sparsity_target, rho_hat)

    def gradients(
        self,
        x: np.ndarray,
        hidden_mask: Optional[np.ndarray] = None,
        visible_mask: Optional[np.ndarray] = None,
    ) -> Tuple[float, AutoencoderGradients]:
        """Back-propagation gradient of the objective on batch ``x``.

        Returns ``(loss, grads)``.  The four GEMMs here (two forward, the
        delta back-projection, and the two outer-product weight gradients)
        are the kernels the paper's Fig. 6-style dependency analysis
        schedules on the coprocessor.

        ``hidden_mask`` / ``visible_mask`` are per-unit float keep-masks
        (``{0, 1}`` for the shard partitioner's structural dropout):
        ``y = mask ⊙ s(W₁x + b₁)``, ``z = mask ⊙ s'(W₂y + b₂)``.  Units
        with mask 0 contribute nothing to any gradient, and masked hidden
        units are excluded from the KL sparsity term (their ρ̂ would be 0).
        With a ``visible_mask`` the input ``x`` is expected to be masked
        the same way.
        """
        x = check_matrix_shapes(x, self.n_visible, "x")
        m = x.shape[0]

        # forward (raw activations kept for the derivative under a mask)
        hidden_raw = self.hidden_activation.forward(x @ self.w1.T + self.b1)
        hidden = hidden_raw if hidden_mask is None else hidden_raw * hidden_mask
        recon_raw = self.output_activation.forward(hidden @ self.w2.T + self.b2)
        recon = recon_raw if visible_mask is None else recon_raw * visible_mask
        rho_hat = hidden.mean(axis=0)
        rho_eff = rho_hat if hidden_mask is None else self._masked_rho(rho_hat, hidden_mask)
        loss = self.cost.total(recon, x, self.w1, self.w2, rho_eff)

        # output deltas: δ₃ = (z − x) ⊙ mask ⊙ s'(z)
        delta3 = (recon - x) * self.output_activation.grad_from_output(recon_raw)
        if visible_mask is not None:
            delta3 = delta3 * visible_mask

        # hidden deltas: δ₂ = (δ₃W₂ + sparsity term) ⊙ mask ⊙ s'(y)
        back = delta3 @ self.w2
        sparse_term = self.cost.sparsity_delta(rho_eff)  # per-unit, batch mean
        pre = back + sparse_term
        if hidden_mask is not None:
            pre = pre * hidden_mask
        delta2 = pre * self.hidden_activation.grad_from_output(hidden_raw)

        grad_w2 = delta3.T @ hidden / m + self.cost.weight_decay * self.w2
        grad_b2 = delta3.mean(axis=0)
        grad_w1 = delta2.T @ x / m + self.cost.weight_decay * self.w1
        grad_b1 = delta2.mean(axis=0)
        return loss, AutoencoderGradients(grad_w1, grad_b1, grad_w2, grad_b2)

    def mean_hidden_into(
        self, x: np.ndarray, workspace, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Batch-mean hidden activation ρ̂ through workspace buffers.

        The first phase of the data-parallel sparsity protocol
        (:class:`repro.runtime.executor.ParallelGradientEngine`): each
        worker computes its shard's ρ̂ here, the shard means are combined
        into the global batch mean, and :meth:`gradients_into` is then
        called with that global ρ̂ so the KL penalty sees the same
        statistics a serial full-batch step would.
        """
        ws = workspace
        x = check_matrix_shapes(x, self.n_visible, "x")
        if not x.flags["C_CONTIGUOUS"]:
            x = np.ascontiguousarray(x)
        m = x.shape[0]
        h = self.n_hidden
        hidden = ws.buf("sae.hidden", (m, h))
        scr_h = ws.buf("sae.scr_h", (m, h))
        np.dot(x, self.w1.T, out=hidden)
        hidden += ws.broadcast("sae.b1_full", self.b1, (m, h))
        self.hidden_activation.forward_into(hidden, hidden, scratch=scr_h)
        if out is None:
            out = ws.buf("sae.rho", (h,))
        np.mean(hidden, axis=0, out=out)
        return out

    def gradients_into(
        self,
        x: np.ndarray,
        workspace,
        out: Optional[AutoencoderGradients] = None,
        rho_hat: Optional[np.ndarray] = None,
        hidden_mask: Optional[np.ndarray] = None,
        visible_mask: Optional[np.ndarray] = None,
    ) -> Tuple[float, AutoencoderGradients]:
        """Fused, zero-allocation variant of :meth:`gradients` (paper §IV.B).

        Every GEMM runs ``np.dot(..., out=)`` into buffers from
        ``workspace`` (:class:`repro.runtime.workspace.Workspace`), every
        element-wise map runs in place, and the loss terms are reduced
        through scratch buffers — after one warm-up call the step performs
        no array allocations.  Results match :meth:`gradients` (the
        reference oracle) to machine precision.

        ``out`` receives the gradients; when omitted they live in workspace
        buffers that are *overwritten by the next call*, so apply them (or
        copy) before re-invoking.

        ``rho_hat`` optionally *overrides* the batch-mean hidden activation
        used by the KL sparsity penalty.  Data-parallel workers pass the
        global batch mean here (combined from per-shard
        :meth:`mean_hidden_into` results) so that shard gradients reduce to
        exactly the serial full-batch gradient.

        ``hidden_mask`` / ``visible_mask`` follow the :meth:`gradients`
        contract (per-unit float keep-masks); the masked copies live in
        dedicated workspace buffers so the masked path is allocation-free
        in steady state too.
        """
        ws = workspace
        x = check_matrix_shapes(x, self.n_visible, "x")
        if not x.flags["C_CONTIGUOUS"]:
            x = np.ascontiguousarray(x)
        m = x.shape[0]
        h, v = self.n_hidden, self.n_visible
        if out is None:
            out = AutoencoderGradients(
                ws.buf("sae.grad_w1", (h, v)),
                ws.buf("sae.grad_b1", (h,)),
                ws.buf("sae.grad_w2", (v, h)),
                ws.buf("sae.grad_b2", (v,)),
            )

        hidden_raw = ws.buf("sae.hidden", (m, h))
        scr_h = ws.buf("sae.scr_h", (m, h))
        np.dot(x, self.w1.T, out=hidden_raw)
        hidden_raw += ws.broadcast("sae.b1_full", self.b1, (m, h))
        self.hidden_activation.forward_into(hidden_raw, hidden_raw, scratch=scr_h)
        if hidden_mask is None:
            hidden = hidden_raw
        else:
            hm_full = ws.broadcast("sae.hmask_full", hidden_mask, (m, h))
            hidden = ws.buf("sae.hidden_m", (m, h))
            np.multiply(hidden_raw, hm_full, out=hidden)

        recon_raw = ws.buf("sae.recon", (m, v))
        scr_v = ws.buf("sae.scr_v", (m, v))
        np.dot(hidden, self.w2.T, out=recon_raw)
        recon_raw += ws.broadcast("sae.b2_full", self.b2, (m, v))
        self.output_activation.forward_into(recon_raw, recon_raw, scratch=scr_v)
        if visible_mask is None:
            recon = recon_raw
        else:
            vm_full = ws.broadcast("sae.vmask_full", visible_mask, (m, v))
            recon = ws.buf("sae.recon_m", (m, v))
            np.multiply(recon_raw, vm_full, out=recon)

        rho = ws.buf("sae.rho", (h,))
        if rho_hat is None:
            np.mean(hidden, axis=0, out=rho)
        else:
            np.copyto(rho, rho_hat)
        if hidden_mask is not None:
            # dropped units pinned to the target: KL(ρ‖ρ) ≡ 0, so they
            # vanish from both the sparsity loss and the sparsity delta
            zero_h = ws.buf("sae.hmask_zero", (h,), bool)
            np.equal(hidden_mask, 0.0, out=zero_h)
            np.copyto(rho, self.cost.sparsity_target, where=zero_h)

        diff = ws.buf("sae.diff", (m, v))
        np.subtract(recon, x, out=diff)

        # loss: single-pass BLAS reductions, no temporaries
        loss = 0.5 * dot_self(diff) / m
        loss += 0.5 * self.cost.weight_decay * (dot_self(self.w1) + dot_self(self.w2))
        rho_scr1 = ws.buf("sae.rho_scr1", (h,))
        rho_scr2 = ws.buf("sae.rho_scr2", (h,))
        loss += self.cost.sparsity(rho, out=rho_scr1, scratch=rho_scr2)

        # δ₃ = (z − x) ⊙ mask ⊙ s'(z), fused into ``diff``
        self.output_activation.mul_grad_into(diff, recon_raw, scratch=scr_v)
        if visible_mask is not None:
            diff *= vm_full
        delta3 = diff

        # weight-shaped scratch is only materialised for the non-BLAS fallback
        scr_w1 = None if HAVE_BLAS else ws.buf("sae.scr_w1", (h, v))
        scr_w2 = None if HAVE_BLAS else ws.buf("sae.scr_w2", (v, h))

        gemm_into(delta3.T, hidden, out.w2, alpha=1.0 / m)
        axpy_into(self.w2, out.w2, self.cost.weight_decay, scratch=scr_w2)
        np.mean(delta3, axis=0, out=out.b2)

        # δ₂ = (δ₃W₂ + sparsity term) ⊙ mask ⊙ s'(y), fused into ``back``
        back = ws.buf("sae.back", (m, h))
        np.dot(delta3, self.w2, out=back)
        if self.cost.sparsity_weight > 0.0:
            self.cost.sparsity_delta(rho, out=rho_scr1, scratch=rho_scr2)
            back += ws.broadcast("sae.rho_full", rho_scr1, (m, h))
        if hidden_mask is not None:
            back *= hm_full
        self.hidden_activation.mul_grad_into(back, hidden_raw, scratch=scr_h)
        delta2 = back

        gemm_into(delta2.T, x, out.w1, alpha=1.0 / m)
        axpy_into(self.w1, out.w1, self.cost.weight_decay, scratch=scr_w1)
        np.mean(delta2, axis=0, out=out.b1)
        return loss, out

    def apply_update(
        self, grads: AutoencoderGradients, learning_rate: float, workspace=None
    ) -> None:
        """In-place gradient-descent step (the paper's vectorised Eqs. 16–18).

        With ``workspace`` the scaled-gradient temporaries come from the
        arena, keeping the update allocation-free.
        """
        if workspace is None:
            self.w1 -= learning_rate * grads.w1
            self.b1 -= learning_rate * grads.b1
            self.w2 -= learning_rate * grads.w2
            self.b2 -= learning_rate * grads.b2
            return
        for name, param, grad in (
            ("sae.upd_w1", self.w1, grads.w1),
            ("sae.upd_b1", self.b1, grads.b1),
            ("sae.upd_w2", self.w2, grads.w2),
            ("sae.upd_b2", self.b2, grads.b2),
        ):
            scr = None if HAVE_BLAS else workspace.buf(name, param.shape)
            axpy_into(grad, param, -learning_rate, scratch=scr)

    # ------------------------------------------------------------------
    # shard protocol of the data-parallel gradient engines
    # (repro.runtime.executor.ParallelGradientEngine.gradients)
    # ------------------------------------------------------------------
    shard_kind = "sae"

    def parameters(self) -> List[np.ndarray]:
        """The trainable arrays (W₁, b₁, W₂, b₂); gradients share their shapes."""
        return [self.w1, self.b1, self.w2, self.b2]

    def bind_parameters(self, arrays: Sequence[np.ndarray]) -> None:
        """Adopt ``arrays`` (in :meth:`parameters` order) without copying."""
        self.w1, self.b1, self.w2, self.b2 = arrays

    def batch_widths(self) -> Tuple[int]:
        return (self.n_visible,)

    def prepass_shape(self) -> Optional[Tuple[int]]:
        """ρ̂'s shape while the KL penalty needs the batch-global hidden mean."""
        return (self.n_hidden,) if self.cost.sparsity_weight > 0.0 else None

    def shard_prepass(self, workspace, out: np.ndarray, x: np.ndarray) -> None:
        """Phase A of the two-phase sparsity protocol: the shard's ρ̂."""
        self.mean_hidden_into(x, workspace, out=out)

    def shard_gradients(self, workspace, out, x, pre=None, rng=None) -> float:
        """Phase B: the shard's gradient at the global ρ̂ ``pre``, into ``out``."""
        loss, _ = self.gradients_into(
            x, workspace, out=AutoencoderGradients(*out), rho_hat=pre
        )
        return loss

    @staticmethod
    def shard_result(loss: float, grads) -> Tuple[float, AutoencoderGradients]:
        if not isinstance(grads, AutoencoderGradients):
            grads = AutoencoderGradients(*grads)
        return loss, grads

    # ------------------------------------------------------------------
    # flat-parameter interface for batch optimizers (L-BFGS / CG, §III)
    # ------------------------------------------------------------------
    @property
    def n_parameters(self) -> int:
        """Total number of scalar parameters."""
        return (
            self.w1.size + self.b1.size + self.w2.size + self.b2.size
        )

    @property
    def uses_flat_views(self) -> bool:
        """True when parameters are views into one flat vector."""
        return getattr(self, "_flat_theta", None) is not None

    def _flat_blocks(self, vec: np.ndarray) -> "AutoencoderGradients":
        """(W₁, b₁, W₂, b₂)-shaped views into a flat vector (no copies)."""
        h, v = self.n_hidden, self.n_visible
        idx = 0
        w1 = vec[idx : idx + h * v].reshape(h, v)
        idx += h * v
        b1 = vec[idx : idx + h]
        idx += h
        w2 = vec[idx : idx + v * h].reshape(v, h)
        idx += v * h
        b2 = vec[idx : idx + v]
        return AutoencoderGradients(w1, b1, w2, b2)

    def enable_flat_views(self) -> "SparseAutoencoder":
        """Re-home (W₁, b₁, W₂, b₂) as views into one flat vector.

        Afterwards :meth:`set_flat_parameters` copies *into* that vector in
        place (no per-block ``.copy()``), :meth:`get_flat_parameters`
        supports ``out=``, and :meth:`flat_loss_and_grad` skips the
        save/restore round trip entirely — the parameter-churn fix for
        L-BFGS/CG callbacks.  Idempotent.
        """
        if self.uses_flat_views:
            return self
        theta = self.get_flat_parameters()
        views = self._flat_blocks(theta)
        self._flat_theta = theta
        self.w1, self.b1, self.w2, self.b2 = views.w1, views.b1, views.w2, views.b2
        self._flat_grad = np.empty_like(theta)
        self._flat_grad_views = self._flat_blocks(self._flat_grad)
        return self

    def get_flat_parameters(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Concatenate (W₁, b₁, W₂, b₂) into one vector.

        Returns a fresh copy, or fills and returns ``out`` without
        allocating when provided.
        """
        if out is None:
            return np.concatenate(
                [self.w1.ravel(), self.b1.ravel(), self.w2.ravel(), self.b2.ravel()]
            )
        if out.shape != (self.n_parameters,):
            raise ConfigurationError(
                f"out must have shape ({self.n_parameters},), got {out.shape}"
            )
        if self.uses_flat_views:
            np.copyto(out, self._flat_theta)
        else:
            blocks = self._flat_blocks(out)
            np.copyto(blocks.w1, self.w1)
            np.copyto(blocks.b1, self.b1)
            np.copyto(blocks.w2, self.w2)
            np.copyto(blocks.b2, self.b2)
        return out

    def set_flat_parameters(self, theta: np.ndarray) -> None:
        """Load parameters from a flat vector produced by an optimizer.

        In flat-view mode (:meth:`enable_flat_views`) this is a single
        in-place copy; otherwise each block is copied out separately.
        """
        theta = np.asarray(theta, dtype=np.float64).ravel()
        if theta.size != self.n_parameters:
            raise ConfigurationError(
                f"flat parameter vector has {theta.size} entries, "
                f"model needs {self.n_parameters}"
            )
        if self.uses_flat_views:
            np.copyto(self._flat_theta, theta)
            return
        blocks = self._flat_blocks(theta)
        self.w1 = blocks.w1.copy()
        self.b1 = blocks.b1.copy()
        self.w2 = blocks.w2.copy()
        self.b2 = blocks.b2.copy()

    def flat_loss_and_grad(
        self,
        theta: np.ndarray,
        x: np.ndarray,
        workspace=None,
        grad_out: Optional[np.ndarray] = None,
    ):
        """(loss, flat gradient) at parameters ``theta`` — optimizer callback.

        Default mode saves and restores the current parameters around the
        evaluation (the model is left untouched).  In flat-view mode the
        model simply *adopts* ``theta`` — no save/restore copies — and the
        gradient is assembled into flat storage directly; with ``workspace``
        the whole evaluation is allocation-free apart from the returned
        vector.  Pass ``grad_out`` to control where the gradient lands
        (callers that keep gradients across iterations, like L-BFGS's
        history, must hand in distinct buffers or copy).
        """
        if self.uses_flat_views:
            np.copyto(self._flat_theta, np.asarray(theta, dtype=np.float64).ravel())
            if workspace is not None:
                loss, _ = self.gradients_into(x, workspace, out=self._flat_grad_views)
            else:
                loss, g = self.gradients(x)
                np.copyto(self._flat_grad_views.w1, g.w1)
                np.copyto(self._flat_grad_views.b1, g.b1)
                np.copyto(self._flat_grad_views.w2, g.w2)
                np.copyto(self._flat_grad_views.b2, g.b2)
            if grad_out is None:
                return loss, self._flat_grad.copy()
            np.copyto(grad_out, self._flat_grad)
            return loss, grad_out
        saved = self.get_flat_parameters()
        try:
            self.set_flat_parameters(theta)
            loss, g = self.gradients(x)
        finally:
            self.set_flat_parameters(saved)
        flat = np.concatenate([g.w1.ravel(), g.b1.ravel(), g.w2.ravel(), g.b2.ravel()])
        return loss, flat

    def copy(self) -> "SparseAutoencoder":
        """Deep copy with identical parameters and hyper-parameters."""
        clone = SparseAutoencoder(
            self.n_visible,
            self.n_hidden,
            cost=self.cost,
            output_activation=self.output_activation,
            hidden_activation=self.hidden_activation,
        )
        clone.w1 = self.w1.copy()
        clone.b1 = self.b1.copy()
        clone.w2 = self.w2.copy()
        clone.b2 = self.b2.copy()
        return clone

    def __repr__(self) -> str:
        return (
            f"SparseAutoencoder(n_visible={self.n_visible}, n_hidden={self.n_hidden}, "
            f"beta={self.cost.sparsity_weight}, rho={self.cost.sparsity_target})"
        )
