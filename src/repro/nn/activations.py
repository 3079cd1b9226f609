"""Activation functions as small strategy objects.

The paper uses the logistic sigmoid throughout (the ``s`` of Eq. 1 and the
conditionals of Eqs. 8–9).  ``Identity`` and ``Tanh`` are provided for the
linear-decoder autoencoder variant commonly used on natural-image patches
(real-valued inputs are not well modelled by a sigmoid output layer).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.mathx import sigmoid, sigmoid_into


class Activation:
    """Interface: ``forward`` maps pre-activations, ``grad_from_output`` maps
    activations to the local derivative used by back-propagation.

    The ``*_into`` variants are the fused hot-path forms (paper §IV.B):
    they write through preallocated buffers and perform no allocations.
    ``scratch`` (float64) matches the operand shape; activations that
    don't need it ignore it.
    """

    name: str = "abstract"

    def forward(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_from_output(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward_into(self, z, out, scratch=None) -> np.ndarray:
        """In-place forward pass; ``out`` may alias ``z``."""
        raise NotImplementedError

    def mul_grad_into(self, delta, a, scratch=None) -> np.ndarray:
        """``delta *= s'(a)`` in place, using ``scratch`` for s'(a)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Sigmoid(Activation):
    """Logistic sigmoid; derivative a·(1−a)."""

    name = "sigmoid"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return sigmoid(z)

    def grad_from_output(self, a: np.ndarray) -> np.ndarray:
        return a * (1.0 - a)

    def forward_into(self, z, out, scratch=None) -> np.ndarray:
        return sigmoid_into(z, out, scratch=scratch)

    def mul_grad_into(self, delta, a, scratch=None) -> np.ndarray:
        if scratch is None:
            scratch = np.empty(np.shape(a), dtype=np.float64)
        np.subtract(1.0, a, out=scratch)
        scratch *= a
        delta *= scratch
        return delta


class Identity(Activation):
    """Linear output unit (Gaussian visible layer / linear decoder)."""

    name = "identity"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=np.float64)

    def grad_from_output(self, a: np.ndarray) -> np.ndarray:
        return np.ones_like(a)

    def forward_into(self, z, out, scratch=None) -> np.ndarray:
        if out is not z:
            np.copyto(out, z)
        return out

    def mul_grad_into(self, delta, a, scratch=None) -> np.ndarray:
        return delta  # s'(a) ≡ 1


class Tanh(Activation):
    """Hyperbolic tangent; derivative 1−a²."""

    name = "tanh"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.tanh(z)

    def grad_from_output(self, a: np.ndarray) -> np.ndarray:
        return 1.0 - a * a

    def forward_into(self, z, out, scratch=None) -> np.ndarray:
        return np.tanh(z, out=out)

    def mul_grad_into(self, delta, a, scratch=None) -> np.ndarray:
        if scratch is None:
            scratch = np.empty(np.shape(a), dtype=np.float64)
        np.multiply(a, a, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        delta *= scratch
        return delta


_REGISTRY = {cls.name: cls for cls in (Sigmoid, Identity, Tanh)}


def get_activation(spec) -> Activation:
    """Coerce a name or instance into an :class:`Activation`."""
    if isinstance(spec, Activation):
        return spec
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]()
        except KeyError:
            raise ConfigurationError(
                f"unknown activation {spec!r}; choose from {sorted(_REGISTRY)}"
            ) from None
    raise ConfigurationError(f"cannot interpret {spec!r} as an activation")
