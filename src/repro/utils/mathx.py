"""Numerically stable elementwise math used throughout the networks.

The paper's networks are sigmoid-activated (Eqs. 1, 8, 9) with a
KL-divergence sparsity penalty (Eq. 6).  Naive formulas overflow in
``exp`` or take ``log(0)``; the versions here are stable over the full
float64 range, which matters because gradient checking drives parameters
far from their initialised scale.
"""

from __future__ import annotations

import numpy as np

# Smallest probability we allow inside log() terms.  Chosen so that
# log(_EPS) is finite and KL terms stay bounded during early training when
# hidden units saturate.
_EPS = 1e-12


def sigmoid(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Stable logistic function ``1 / (1 + exp(-x))`` (paper Eq. 1's ``s``).

    Allocates the result (and one scratch array) and runs
    :func:`sigmoid_into`; with ``out`` it writes there instead, and ``out``
    may alias ``x``.
    """
    x = np.asarray(x)
    if out is None:
        out = np.empty_like(x, dtype=np.float64)
    return sigmoid_into(x, out)


def sigmoid_into(
    x: np.ndarray, out: np.ndarray, scratch: np.ndarray = None
) -> np.ndarray:
    """Fused in-place sigmoid: the one forward kernel (paper §IV.B).

    Computes ``exp(min(x, 0)) / (1 + exp(-|x|))`` in seven element-wise
    passes.  Neither ``exp`` ever sees a positive argument, so nothing
    overflows; for x ≥ 0 the numerator is exactly 1 and for x < 0 both
    exponentials are ``exp(x)``, so the values are bitwise those of the
    textbook two-branch form ``1/(1+exp(-x))`` | ``exp(x)/(1+exp(x))``
    without its select.  ``out`` may alias ``x``.  ``scratch`` (float64,
    shaped like ``x``) holds the numerator; when omitted it is allocated,
    so steady-state-zero-allocation callers pass a workspace buffer.
    """
    x = np.asarray(x)
    if scratch is None:
        scratch = np.empty(x.shape, dtype=np.float64)
    np.minimum(x, 0.0, out=scratch)    # read x before out may overwrite it
    np.exp(scratch, out=scratch)       # exp(min(x, 0))
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)               # t = exp(-|x|)
    out += 1.0
    np.divide(scratch, out, out=out)
    return out


def sigmoid_grad(activation: np.ndarray) -> np.ndarray:
    """Derivative of the sigmoid *expressed in terms of its output* a·(1−a).

    Backprop (paper §II.B.1) only ever has the activation in hand, so this
    form avoids recomputing the forward pass.
    """
    a = np.asarray(activation)
    return a * (1.0 - a)


def logistic_log1pexp(
    x: np.ndarray, out: np.ndarray = None, scratch: np.ndarray = None
) -> np.ndarray:
    """Stable ``log(1 + exp(x))`` (softplus), used for RBM free energy.

    With ``out`` every pass runs in place (``out`` may alias ``x``);
    ``scratch`` must then match ``x``'s shape or is allocated.  Values are
    bitwise identical to the allocating form for finite inputs.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        return np.where(x > 0, x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    if scratch is None:
        scratch = np.empty(x.shape, dtype=np.float64)
    np.abs(x, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    np.log1p(scratch, out=scratch)     # log1p(exp(-|x|))
    np.maximum(x, 0.0, out=out)        # max(x, 0) == where(x > 0, x, 0)
    out += scratch
    return out


def kl_bernoulli(
    rho: float, rho_hat: np.ndarray, out: np.ndarray = None, scratch: np.ndarray = None
) -> np.ndarray:
    """Elementwise KL(ρ‖ρ̂) between Bernoulli means (paper Eq. 6).

    With ``out`` (and optional same-shape ``scratch``) no temporaries are
    allocated; values match the allocating form bitwise.
    """
    rho_hat = np.asarray(rho_hat, dtype=np.float64)
    if out is None:
        clipped = np.clip(rho_hat, _EPS, 1.0 - _EPS)
        return rho * np.log(rho / clipped) + (1.0 - rho) * np.log(
            (1.0 - rho) / (1.0 - clipped)
        )
    if scratch is None:
        scratch = np.empty(rho_hat.shape, dtype=np.float64)
    np.clip(rho_hat, _EPS, 1.0 - _EPS, out=out)       # ρ̂ clipped
    np.divide(rho, out, out=scratch)
    np.log(scratch, out=scratch)
    scratch *= rho                                     # ρ·log(ρ/ρ̂)
    np.subtract(1.0, out, out=out)                     # 1 − ρ̂
    np.divide(1.0 - rho, out, out=out)
    np.log(out, out=out)
    out *= 1.0 - rho                                   # (1−ρ)·log((1−ρ)/(1−ρ̂))
    out += scratch
    return out


def kl_bernoulli_grad(
    rho: float, rho_hat: np.ndarray, out: np.ndarray = None, scratch: np.ndarray = None
) -> np.ndarray:
    """∂KL(ρ‖ρ̂)/∂ρ̂ — the sparsity term injected into backprop deltas.

    Same ``out``/``scratch`` contract as :func:`kl_bernoulli`.
    """
    rho_hat = np.asarray(rho_hat, dtype=np.float64)
    if out is None:
        clipped = np.clip(rho_hat, _EPS, 1.0 - _EPS)
        return -rho / clipped + (1.0 - rho) / (1.0 - clipped)
    if scratch is None:
        scratch = np.empty(rho_hat.shape, dtype=np.float64)
    np.clip(rho_hat, _EPS, 1.0 - _EPS, out=scratch)
    np.divide(-rho, scratch, out=out)                  # −ρ/ρ̂
    np.subtract(1.0, scratch, out=scratch)
    np.divide(1.0 - rho, scratch, out=scratch)
    out += scratch
    return out


def log_sum_exp(x: np.ndarray, axis=None) -> np.ndarray:
    """Stable ``log(sum(exp(x)))`` for exact partition functions in tests."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)
