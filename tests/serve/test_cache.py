"""Tests for repro.serve.cache — the LRU feature cache."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve.cache import FeatureCache, key_prefix, payload_bytes


class TestFeatureCache:
    def test_miss_then_hit(self):
        cache = FeatureCache()
        x = np.array([1.0, 2.0, 3.0])
        assert cache.get(x) is None
        cache.put(x, np.array([9.0]))
        np.testing.assert_array_equal(cache.get(x), [9.0])
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_exact_bytes_keying(self):
        cache = FeatureCache()
        cache.put(np.array([1.0, 2.0]), np.array([0.0]))
        assert cache.get(np.array([1.0, 2.0 + 1e-12])) is None

    def test_key_bytes_are_shape_dtype_then_contents(self):
        x = np.arange(6.0).reshape(2, 3)
        assert payload_bytes(x) == b"((2, 3), '<f8')" + x.tobytes()
        assert payload_bytes(np.asfortranarray(x)) == payload_bytes(x)
        assert payload_bytes(x[:, ::2]) == key_prefix((2, 2), np.float64) + x[:, ::2].tobytes()
        assert payload_bytes(x.astype(">f8")) != payload_bytes(x)

    def test_lookup_and_store_share_entries_with_get_and_put(self):
        cache = FeatureCache()
        x = np.array([1.0, 2.0])
        cache.store(key_prefix((2,), np.float64) + x.tobytes(), np.array([7.0]))
        np.testing.assert_array_equal(cache.get(x), [7.0])
        cache.put(x, np.array([8.0]))
        np.testing.assert_array_equal(cache.lookup(payload_bytes(x)), [8.0])
        assert len(cache) == 1 and cache.hits == 2

    def test_shape_distinguished(self):
        cache = FeatureCache()
        cache.put(np.zeros(4), np.array([1.0]))
        assert cache.get(np.zeros((2, 2))) is None

    def test_lru_eviction_order(self):
        cache = FeatureCache(max_entries=2)
        a, b, c = np.array([1.0]), np.array([2.0]), np.array([3.0])
        cache.put(a, a)
        cache.put(b, b)
        cache.get(a)  # refresh a; b is now least recent
        cache.put(c, c)
        assert cache.get(b) is None
        assert cache.get(a) is not None
        assert cache.evictions == 1

    def test_put_existing_updates_without_evicting(self):
        cache = FeatureCache(max_entries=1)
        x = np.array([1.0])
        cache.put(x, np.array([1.0]))
        cache.put(x, np.array([2.0]))
        np.testing.assert_array_equal(cache.get(x), [2.0])
        assert cache.evictions == 0

    def test_clear(self):
        cache = FeatureCache()
        cache.put(np.zeros(2), np.ones(1))
        cache.clear()
        assert len(cache) == 0

    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            FeatureCache(max_entries=0)
