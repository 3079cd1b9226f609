"""Deep feed-forward network with full back-propagation.

The pay-off of the paper's pre-training (Fig. 1) is a deep network whose
layers are initialised from the unsupervised blocks and then fine-tuned
supervised.  :class:`DeepNetwork` is that network: arbitrary depth,
sigmoid/tanh/linear hidden layers, and either a linear/sigmoid
regression head (squared error) or a softmax classification head
(cross-entropy).

The implementation is batch-vectorised exactly like the building blocks:
each layer is one GEMM + one element-wise map, so the timing model's
kernel vocabulary covers fine-tuning too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.activations import Activation, get_activation
from repro.nn.init import uniform_fanin_init, zeros_init
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_matrix_shapes


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Integer labels → one-hot rows."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ConfigurationError(f"labels must be 1-D, got ndim={labels.ndim}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ConfigurationError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


@dataclass
class Layer:
    """One dense layer: weights (n_out × n_in), bias, activation."""

    w: np.ndarray
    b: np.ndarray
    activation: Activation

    @property
    def n_in(self) -> int:
        return self.w.shape[1]

    @property
    def n_out(self) -> int:
        return self.w.shape[0]


class DeepNetwork:
    """A feed-forward network of dense sigmoid-style layers.

    Parameters
    ----------
    layer_sizes:
        ``[n_in, h1, …, n_out]``.
    hidden_activation:
        Activation of every hidden layer.
    head:
        ``"softmax"`` — classification with cross-entropy loss;
        ``"sigmoid"`` / ``"identity"`` — regression with squared error.
    weight_decay:
        L2 penalty on all weight matrices (biases excluded).
    seed:
        Reproducible initialisation.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hidden_activation="sigmoid",
        head: str = "softmax",
        weight_decay: float = 1e-4,
        seed: SeedLike = None,
    ):
        if len(layer_sizes) < 2:
            raise ConfigurationError("need at least [n_in, n_out]")
        if any(int(s) < 1 for s in layer_sizes):
            raise ConfigurationError(f"layer sizes must be >= 1: {layer_sizes}")
        if head not in ("softmax", "sigmoid", "identity"):
            raise ConfigurationError(
                f"head must be 'softmax', 'sigmoid' or 'identity', got {head!r}"
            )
        if weight_decay < 0:
            raise ConfigurationError("weight_decay must be >= 0")
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.head = head
        self.weight_decay = float(weight_decay)
        hidden = get_activation(hidden_activation)
        rng = as_generator(seed)
        self.layers: List[Layer] = []
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            self.layers.append(
                Layer(
                    w=uniform_fanin_init(n_in, n_out, rng),
                    b=zeros_init(n_out),
                    activation=hidden,
                )
            )
        # The output layer's activation is the head (softmax applied in loss).
        if head != "softmax":
            self.layers[-1].activation = get_activation(head)

    # ------------------------------------------------------------------
    @property
    def n_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_out(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @classmethod
    def from_pretrained_stack(
        cls,
        stack,
        n_classes: int,
        weight_decay: float = 1e-4,
        seed: SeedLike = None,
    ) -> "DeepNetwork":
        """Build a classifier from a pre-trained stack (Fig. 1's pay-off).

        Hidden layers copy the stack's encoder weights (SAE blocks use
        (W₁, b₁); RBM blocks use (W, c)); a randomly-initialised softmax
        layer is appended.
        """
        if not getattr(stack, "blocks", None):
            raise ConfigurationError("stack has not been pre-trained")
        sizes = list(stack.layer_sizes) + [int(n_classes)]
        net = cls(sizes, head="softmax", weight_decay=weight_decay, seed=seed)
        for layer, block in zip(net.layers, stack.blocks):
            if hasattr(block, "w1"):  # SparseAutoencoder
                layer.w = block.w1.copy()
                layer.b = block.b1.copy()
            elif hasattr(block, "c"):  # RBM
                layer.w = block.w.copy()
                layer.b = block.c.copy()
            else:  # pragma: no cover - defensive
                raise ConfigurationError(f"unknown block type {type(block).__name__}")
        return net

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def _check_dropout_masks(self, dropout_masks) -> None:
        if dropout_masks is None:
            return
        if len(dropout_masks) != self.n_layers - 1:
            raise ConfigurationError(
                f"dropout_masks needs one entry per hidden layer "
                f"({self.n_layers - 1}), got {len(dropout_masks)}"
            )

    def sample_dropout_masks(
        self, dropout: float, rng: SeedLike = None
    ) -> List[np.ndarray]:
        """Inverted-dropout masks, one per hidden layer.

        Each mask is a per-unit float vector with entries in
        ``{0, 1/(1-dropout)}``: kept units carry the inverse-keep scale at
        train time, so the evaluation forward pass needs no rescaling.
        """
        if not 0.0 <= dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {dropout}")
        gen = as_generator(rng)
        keep = 1.0 - dropout
        masks = []
        for size in self.layer_sizes[1:-1]:
            mask = (gen.random(size) < keep).astype(np.float64)
            mask /= keep
            masks.append(mask)
        return masks

    def _forward(
        self,
        x: np.ndarray,
        dropout_masks: Optional[Sequence[np.ndarray]] = None,
        collect_fed: bool = False,
    ):
        """All layer activations, input first; softmax head returns
        probabilities as the last entry.

        ``dropout_masks`` — one float mask per *hidden* layer, shaped
        ``(n_units,)`` (per-unit, broadcast over the batch) or
        ``(m, n_units)`` — multiplies that layer's activation before it
        feeds the next layer.  The stored activations stay unmasked (the
        backward pass needs them for the activation derivative); with
        ``collect_fed`` the masked values actually propagated are returned
        as a second list.
        """
        self._check_dropout_masks(dropout_masks)
        activations = [x]
        fed = [x]
        cur = x
        for i, layer in enumerate(self.layers):
            z = cur @ layer.w.T
            z += layer.b
            if self.head == "softmax" and i == self.n_layers - 1:
                out = softmax(z)
            else:
                out = layer.activation.forward_into(z, z)
            activations.append(out)
            if dropout_masks is not None and i < self.n_layers - 1:
                cur = out * dropout_masks[i]
            else:
                cur = out
            fed.append(cur)
        if collect_fed:
            return activations, fed
        return activations

    def predict_proba(
        self,
        x: np.ndarray,
        dropout: float = 0.0,
        rng: SeedLike = None,
        training: bool = False,
        dropout_masks: Optional[Sequence[np.ndarray]] = None,
    ) -> np.ndarray:
        """Network outputs (class probabilities for the softmax head).

        ``dropout`` uses inverted scaling: with ``training=True`` fresh
        masks with entries ``{0, 1/(1-dropout)}`` are sampled from ``rng``;
        at evaluation time (the default) dropout is a no-op — no output
        rescaling is needed because the scale was paid during training.
        Pass ``dropout_masks`` to pin the masks explicitly (fixed-mask
        parity tests, shard keep-masks).
        """
        x = check_matrix_shapes(x, self.n_in, "x")
        if dropout_masks is None and training and dropout > 0.0:
            dropout_masks = self.sample_dropout_masks(dropout, rng)
        return self._forward(x, dropout_masks)[-1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax class labels (softmax head) or raw outputs otherwise."""
        proba = self.predict_proba(x)
        if self.head == "softmax":
            return np.argmax(proba, axis=1)
        return proba

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy against integer labels."""
        if self.head != "softmax":
            raise ConfigurationError("accuracy requires the softmax head")
        return float(np.mean(self.predict(x) == np.asarray(labels)))

    # ------------------------------------------------------------------
    # loss + gradients
    # ------------------------------------------------------------------
    def loss(self, x: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss + L2 penalty.  ``targets`` is one-hot / real-valued
        rows matching ``n_out`` (use :func:`one_hot` for labels)."""
        x = check_matrix_shapes(x, self.n_in, "x")
        targets = check_matrix_shapes(targets, self.n_out, "targets")
        out = self._forward(x)[-1]
        m = x.shape[0]
        if self.head == "softmax":
            data_loss = -float(np.sum(targets * np.log(np.clip(out, 1e-12, None)))) / m
        else:
            diff = out - targets
            data_loss = 0.5 * float(np.sum(diff * diff)) / m
        decay = 0.5 * self.weight_decay * sum(float(np.sum(l.w * l.w)) for l in self.layers)
        return data_loss + decay

    def gradients(
        self,
        x: np.ndarray,
        targets: np.ndarray,
        dropout_masks: Optional[Sequence[np.ndarray]] = None,
    ):
        """(loss, [(dW, db) per layer]) by back-propagation.

        For the softmax head the output delta is the classic ``p − t``;
        for regression heads it is ``(out − t)·s'(out)``.

        With ``dropout_masks`` the forward pass feeds masked activations
        (see :meth:`_forward`) and the backward pass routes each layer's
        delta through the same mask, so a unit dropped forward contributes
        nothing backward either.
        """
        x = check_matrix_shapes(x, self.n_in, "x")
        targets = check_matrix_shapes(targets, self.n_out, "targets")
        m = x.shape[0]
        activations, fed = self._forward(x, dropout_masks, collect_fed=True)
        out = activations[-1]

        if self.head == "softmax":
            loss = -float(np.sum(targets * np.log(np.clip(out, 1e-12, None)))) / m
            delta = (out - targets) / m
        else:
            diff = out - targets
            loss = 0.5 * float(np.sum(diff * diff)) / m
            delta = diff * self.layers[-1].activation.grad_from_output(out) / m
        loss += 0.5 * self.weight_decay * sum(
            float(np.sum(l.w * l.w)) for l in self.layers
        )

        grads: List[Tuple[np.ndarray, np.ndarray]] = [None] * self.n_layers
        for i in range(self.n_layers - 1, -1, -1):
            layer = self.layers[i]
            a_prev = fed[i]
            grads[i] = (
                delta.T @ a_prev + self.weight_decay * layer.w,
                delta.sum(axis=0),
            )
            if i > 0:
                back = delta @ layer.w
                if dropout_masks is not None:
                    back = back * dropout_masks[i - 1]
                delta = back * self.layers[i - 1].activation.grad_from_output(
                    activations[i]
                )
        return loss, grads

    def gradients_into(
        self,
        x: np.ndarray,
        targets: np.ndarray,
        workspace,
        dropout_masks: Optional[Sequence[np.ndarray]] = None,
        out: Optional[Sequence[np.ndarray]] = None,
    ):
        """Fused, zero-allocation variant of :meth:`gradients` (paper §IV.B).

        All GEMMs run ``np.dot(..., out=)`` into ``workspace`` buffers and
        the element-wise maps (softmax, activations, deltas) run in place;
        after one warm-up call per batch shape the step allocates nothing.
        Produces bit-identical losses and gradients to :meth:`gradients`,
        which stays as the reference oracle.  The returned gradient arrays
        alias workspace buffers — apply them before the next call.

        ``dropout_masks`` follows the :meth:`gradients` contract; masked
        activations land in dedicated workspace buffers, so the dropout
        path stays allocation-free in steady state too.

        ``out`` (arrays in :meth:`parameters` order: W₀, b₀, W₁, b₁, …)
        receives the gradients in place of the workspace buffers, with the
        same arithmetic; the returned pairs then alias it.
        """
        ws = workspace
        self._check_dropout_masks(dropout_masks)
        x = check_matrix_shapes(x, self.n_in, "x")
        targets = check_matrix_shapes(targets, self.n_out, "targets")
        if not x.flags["C_CONTIGUOUS"]:
            x = np.ascontiguousarray(x)
        m = x.shape[0]

        def drop_full(i: int, n_out: int) -> np.ndarray:
            mk = dropout_masks[i]
            if mk.ndim == 1:
                return ws.broadcast(f"mlp.drop{i}_full", mk, (m, n_out))
            return mk

        # forward, one buffer per layer (kept for the backward pass);
        # with dropout the masked copy actually fed onward lives in its
        # own buffer so the unmasked activation survives for the backward
        # derivative
        activations = [x]
        fed = [x]
        cur = x
        for i, layer in enumerate(self.layers):
            a = ws.buf(f"mlp.a{i}", (m, layer.n_out))
            np.dot(cur, layer.w.T, out=a)
            # broadcast operands materialised full-shape: same-shape adds
            # avoid the temporary NumPy allocates when broadcasting
            a += ws.broadcast(f"mlp.b{i}_full", layer.b, (m, layer.n_out))
            if self.head == "softmax" and i == self.n_layers - 1:
                red = ws.buf("mlp.rowred", (m, 1))
                np.max(a, axis=1, keepdims=True, out=red)
                a -= ws.broadcast("mlp.rowred_full", red, (m, layer.n_out))
                np.exp(a, out=a)
                np.sum(a, axis=1, keepdims=True, out=red)
                a /= ws.broadcast("mlp.rowred_full", red, (m, layer.n_out))
            else:
                scr = ws.buf(f"mlp.scr{i}", (m, layer.n_out))
                layer.activation.forward_into(a, a, scratch=scr)
            activations.append(a)
            if dropout_masks is not None and i < self.n_layers - 1:
                f = ws.buf(f"mlp.fed{i}", (m, layer.n_out))
                np.multiply(a, drop_full(i, layer.n_out), out=f)
                cur = f
            else:
                cur = a
            fed.append(cur)
        y = activations[-1]

        # loss and output delta
        last = self.n_layers - 1
        scr_out = ws.buf(f"mlp.scr{last}", (m, self.n_out))
        delta = ws.buf(f"mlp.delta{last}", (m, self.n_out))
        if self.head == "softmax":
            np.clip(y, 1e-12, None, out=scr_out)
            np.log(scr_out, out=scr_out)
            scr_out *= targets
            loss = -float(np.sum(scr_out)) / m
            np.subtract(y, targets, out=delta)
            delta /= m
        else:
            np.subtract(y, targets, out=delta)
            np.multiply(delta, delta, out=scr_out)
            loss = 0.5 * float(np.sum(scr_out)) / m
            self.layers[-1].activation.mul_grad_into(delta, y, scratch=scr_out)
            delta /= m
        decay_sum = 0
        for i, layer in enumerate(self.layers):
            scr_w = ws.buf(f"mlp.scr_w{i}", layer.w.shape)
            np.multiply(layer.w, layer.w, out=scr_w)
            decay_sum += float(np.sum(scr_w))
        loss += 0.5 * self.weight_decay * decay_sum

        # backward
        grads: List[Tuple[np.ndarray, np.ndarray]] = [None] * self.n_layers
        for i in range(self.n_layers - 1, -1, -1):
            layer = self.layers[i]
            if out is None:
                gw = ws.buf(f"mlp.gw{i}", layer.w.shape)
                gb = ws.buf(f"mlp.gb{i}", (layer.n_out,))
            else:
                gw, gb = out[2 * i], out[2 * i + 1]
            np.dot(delta.T, fed[i], out=gw)
            scr_w = ws.buf(f"mlp.scr_w{i}", layer.w.shape)
            np.multiply(layer.w, self.weight_decay, out=scr_w)
            gw += scr_w
            np.sum(delta, axis=0, out=gb)
            grads[i] = (gw, gb)
            if i > 0:
                back = ws.buf(f"mlp.delta{i - 1}", (m, layer.n_in))
                np.dot(delta, layer.w, out=back)
                if dropout_masks is not None:
                    back *= drop_full(i - 1, layer.n_in)
                self.layers[i - 1].activation.mul_grad_into(
                    back, activations[i], scratch=ws.buf(f"mlp.scr{i - 1}", back.shape)
                )
                delta = back
        return loss, grads

    def apply_update(self, grads, learning_rate: float, workspace=None) -> None:
        """In-place gradient-descent step.

        With ``workspace`` the scaled-gradient temporaries come from the
        arena, keeping the update allocation-free.
        """
        if workspace is None:
            for layer, (dw, db) in zip(self.layers, grads):
                layer.w -= learning_rate * dw
                layer.b -= learning_rate * db
            return
        for i, (layer, (dw, db)) in enumerate(zip(self.layers, grads)):
            scr_w = workspace.buf(f"mlp.upd_w{i}", layer.w.shape)
            np.multiply(dw, learning_rate, out=scr_w)
            layer.w -= scr_w
            scr_b = workspace.buf(f"mlp.upd_b{i}", layer.b.shape)
            np.multiply(db, learning_rate, out=scr_b)
            layer.b -= scr_b

    # ------------------------------------------------------------------
    # shard protocol of the data-parallel gradient engines
    # (repro.runtime.executor.ParallelGradientEngine.gradients)
    # ------------------------------------------------------------------
    shard_kind = "mlp"

    def parameters(self) -> List[np.ndarray]:
        """The trainable arrays, layer by layer: W₀, b₀, W₁, b₁, …"""
        return [a for layer in self.layers for a in (layer.w, layer.b)]

    def bind_parameters(self, arrays: Sequence[np.ndarray]) -> None:
        """Adopt ``arrays`` (in :meth:`parameters` order) without copying."""
        for layer, w, b in zip(self.layers, arrays[0::2], arrays[1::2]):
            layer.w, layer.b = w, b

    def batch_widths(self) -> Tuple[int, int]:
        return (self.n_in, self.n_out)

    def shard_gradients(self, workspace, out, x, targets, pre=None, rng=None) -> float:
        """Back-propagation on one shard, its gradients written into ``out``."""
        loss, _ = self.gradients_into(x, targets, workspace, out=out)
        return loss

    @staticmethod
    def shard_result(loss: float, grads) -> Tuple[float, List[Tuple[np.ndarray, np.ndarray]]]:
        return loss, list(zip(grads[0::2], grads[1::2]))

    # ------------------------------------------------------------------
    # flat interface (shared with the batch optimizers)
    # ------------------------------------------------------------------
    @property
    def n_parameters(self) -> int:
        return sum(l.w.size + l.b.size for l in self.layers)

    def get_flat_parameters(self) -> np.ndarray:
        return np.concatenate(
            [np.concatenate([l.w.ravel(), l.b.ravel()]) for l in self.layers]
        )

    def set_flat_parameters(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64).ravel()
        if theta.size != self.n_parameters:
            raise ConfigurationError(
                f"flat vector has {theta.size} entries, model needs {self.n_parameters}"
            )
        idx = 0
        for layer in self.layers:
            w_size = layer.w.size
            layer.w = theta[idx : idx + w_size].reshape(layer.w.shape).copy()
            idx += w_size
            b_size = layer.b.size
            layer.b = theta[idx : idx + b_size].copy()
            idx += b_size

    def flat_loss_and_grad(self, theta: np.ndarray, x: np.ndarray, targets: np.ndarray):
        """Optimizer callback: (loss, flat grad) at parameters ``theta``."""
        saved = self.get_flat_parameters()
        try:
            self.set_flat_parameters(theta)
            loss, grads = self.gradients(x, targets)
        finally:
            self.set_flat_parameters(saved)
        flat = np.concatenate(
            [np.concatenate([dw.ravel(), db.ravel()]) for dw, db in grads]
        )
        return loss, flat

    # ------------------------------------------------------------------
    # model parallelism (repro.shard)
    # ------------------------------------------------------------------
    def partition(self, n_shards: int):
        """Split into ``n_shards`` dropout-decoupled :class:`ModelShard`\\ s.

        Delegates to :func:`repro.shard.partition` (imported lazily so the
        model substrate carries no hard dependency on the shard layer);
        :func:`repro.shard.merge` reconstructs this network exactly.
        """
        from repro.shard.shards import partition as _partition

        return _partition(self, n_shards)

    def __repr__(self) -> str:
        return f"DeepNetwork(layer_sizes={self.layer_sizes}, head={self.head!r})"
