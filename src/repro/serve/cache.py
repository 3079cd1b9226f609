"""Feature cache: LRU memoisation of forward passes.

Encoder workloads are read-heavy and repetitive — the same item (image,
document, user vector) is featurised many times.  Caching the encoded
output turns a GEMM-bound request into a dictionary lookup, exactly the
kind of memory/compute trade the paper makes when it keeps parameters
resident on the device across chunks.

Keys are the exact payload bytes (shape + dtype + contents), so the
cache is only consulted for bit-identical inputs; no tolerance matching.
:func:`payload_bytes` is the one definition of those bytes: the cache
and the cluster router's routing key (:func:`repro.cluster.router.payload_key`)
both use it.  A caller that validated the shape and dtype up front, as
the serving engine and the router do, builds :func:`key_prefix` once:
the engine appends ``payload.tobytes()`` per request, which gives the
same bytes, and the router continues the prefix's CRC over the
payload's buffer, which gives the same digest.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError


def key_prefix(shape: Sequence[int], dtype) -> bytes:
    """The shape/dtype head of the key bytes of every payload with this
    shape and dtype."""
    return str((tuple(int(n) for n in shape), np.dtype(dtype).str)).encode()


def payload_bytes(payload: np.ndarray) -> bytes:
    """A payload's exact key bytes: shape, dtype, then its contents in C
    order.  Views and copies with equal shape, dtype and contents give
    equal bytes."""
    payload = np.ascontiguousarray(payload)
    return key_prefix(payload.shape, payload.dtype) + payload.tobytes()


class FeatureCache:
    """Bounded LRU cache from input vectors to forward-pass outputs.

    The cache counts only what happens inside it, its ``evictions``.
    Hits and misses are counted once, by the caller that looked up:
    :class:`~repro.serve.engine.ServingEngine` adds each lookup to its
    ``metrics.cache_hits`` or ``metrics.cache_misses``.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ConfigurationError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self.evictions = 0

    def get(self, payload: np.ndarray) -> Optional[np.ndarray]:
        """Cached result for ``payload``, refreshing its recency."""
        return self.lookup(payload_bytes(payload))

    def put(self, payload: np.ndarray, value: np.ndarray) -> None:
        """Insert/update an entry, evicting the least recently used."""
        self.store(payload_bytes(payload), value)

    def lookup(self, key: bytes) -> Optional[np.ndarray]:
        """:meth:`get` by the payload's :func:`payload_bytes`."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def store(self, key: bytes, value: np.ndarray) -> None:
        """:meth:`put` by the payload's :func:`payload_bytes`."""
        self._entries[key] = np.asarray(value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FeatureCache(entries={len(self)}/{self.max_entries}, "
            f"evictions={self.evictions})"
        )
