"""Mini-batch shuffling and iteration for :class:`~repro.train.loop.TrainLoop`.

Before the :mod:`repro.train` refactor this logic existed twice with
identical RNG semantics: ``repro.nn.stacked._minibatches`` and the
inline ``rng.permutation`` loops of the :mod:`repro.core` trainers.
Both consumed **exactly one** ``Generator.permutation`` call per epoch
and then took contiguous slices of the shuffled order, so collapsing
them here is bit-preserving at any fixed seed (pinned by
``tests/train/test_batches.py``).

Every path that trains through the loop shuffles here; the five paths
outside it that draw their own ``permutation`` are named in
:mod:`repro.train.loop`.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import ConfigurationError


def epoch_order(n_examples: int, rng: np.random.Generator) -> np.ndarray:
    """The epoch's shuffled example order — one ``permutation`` draw."""
    if n_examples < 1:
        raise ConfigurationError(f"n_examples must be >= 1, got {n_examples}")
    return rng.permutation(n_examples)


def batch_bounds(n_examples: int, batch_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` bounds covering ``n_examples`` rows.

    Every batch is full-size except a possible ragged tail — the paper's
    mini-batch split of a staged chunk.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    return [
        (start, min(start + batch_size, n_examples))
        for start in range(0, n_examples, batch_size)
    ]


def iter_batch_indices(
    n_examples: int, batch_size: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Yield one epoch of shuffled mini-batch index arrays.

    Equivalent to the historical ``x[order[start:start+batch_size]]``
    pattern: the caller applies the yielded indices to its arrays.
    """
    order = epoch_order(n_examples, rng)
    for start, stop in batch_bounds(n_examples, batch_size):
        yield order[start:stop]


def iter_minibatches(
    x: np.ndarray, batch_size: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Yield shuffled mini-batches of ``x`` for one epoch (row gather)."""
    for idx in iter_batch_indices(x.shape[0], batch_size, rng):
        yield x[idx]
