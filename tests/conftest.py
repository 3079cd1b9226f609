"""Shared fixtures for the test suite."""

from __future__ import annotations

import glob
import os
import threading
import time

import numpy as np
import pytest

from repro.data.synth_digits import digit_dataset
from repro.nn.autoencoder import SparseAutoencoder
from repro.nn.cost import SparseAutoencoderCost
from repro.nn.rbm import RBM


def _live_nondaemon_threads():
    return {
        t for t in threading.enumerate() if t.is_alive() and not t.daemon
    }


@pytest.fixture(autouse=True)
def _thread_leak_guard():
    """Fail any test that leaks a live non-daemon thread.

    The chaos suite kills workers mid-task on purpose; this guard proves
    every executor/prefetcher still tears down cleanly afterwards.  A
    short grace window lets threads that are already unblocking finish
    their join.
    """
    before = _live_nondaemon_threads()
    yield
    deadline = time.monotonic() + 2.0
    leaked = _live_nondaemon_threads() - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.02)
        leaked = _live_nondaemon_threads() - before
    if leaked:
        pytest.fail(
            "test leaked non-daemon thread(s): "
            + ", ".join(sorted(t.name for t in leaked))
        )


def _repro_shm_segments():
    """Names of live repro-owned POSIX shared-memory segments."""
    from repro.runtime.procexec import SHM_PREFIX

    if not os.path.isdir("/dev/shm"):  # non-POSIX-shm platform: nothing to scan
        return set()
    return {
        os.path.basename(p) for p in glob.glob(f"/dev/shm/{SHM_PREFIX}-*")
    }


@pytest.fixture(autouse=True)
def _shm_leak_guard():
    """Fail any test that orphans a repro shared-memory segment.

    The process engine names every segment ``repro-shm-<pid>-<run>-<i>``,
    so the guard can scan /dev/shm without false positives from other
    software.  A grace window covers engines whose teardown (worker join
    + unlink) is still finishing when the test body returns.
    """
    before = _repro_shm_segments()
    yield
    deadline = time.monotonic() + 2.0
    leaked = _repro_shm_segments() - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.02)
        leaked = _repro_shm_segments() - before
    if leaked:
        pytest.fail(
            "test leaked shared-memory segment(s): " + ", ".join(sorted(leaked))
        )


_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _root_trace_files():
    return {
        p for p in glob.glob(os.path.join(_REPO_ROOT, "*.jsonl"))
    }


@pytest.fixture(autouse=True)
def _stray_trace_guard():
    """Fail any test that drops a trace file in the repo root.

    Trace-producing code (``trace-gen``, ``Trace.save``) must write to
    tmp_path in tests; a stray ``*.jsonl`` in the checkout would get
    committed by accident and silently become someone's baseline.  The
    guard deletes the leak so one sloppy test doesn't cascade.
    """
    before = _root_trace_files()
    yield
    leaked = _root_trace_files() - before
    if leaked:
        for path in leaked:
            os.remove(path)
        pytest.fail(
            "test left stray trace file(s) in the repo root: "
            + ", ".join(sorted(os.path.basename(p) for p in leaked))
        )


@pytest.fixture
def rng():
    """A deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def threaded_dispatch(monkeypatch):
    """Dispatch every multi-shard thread-engine call to the slot threads.

    The test shapes all sit below ``AUTO_SERIAL_CUTOFF``, where the engine
    runs its shards on the calling thread; a cutoff of 0 sends them to the
    workers instead, so one test body covers both dispatch paths.
    """
    from repro.runtime import executor

    monkeypatch.setattr(executor, "AUTO_SERIAL_CUTOFF", 0)


@pytest.fixture
def digits_25():
    """Small flattened digit dataset: 64 examples of 5x5 images in [0,1]."""
    x, _ = digit_dataset(64, size=5, seed=7)
    return x


@pytest.fixture
def digits_64():
    """Flattened digit dataset: 128 examples of 8x8 images in [0,1]."""
    x, _ = digit_dataset(128, size=8, seed=11)
    return x


@pytest.fixture
def small_ae():
    """A 25→9 sparse autoencoder with the sparsity penalty active."""
    cost = SparseAutoencoderCost(
        weight_decay=1e-3, sparsity_target=0.1, sparsity_weight=0.5
    )
    return SparseAutoencoder(25, 9, cost=cost, seed=3)


@pytest.fixture
def small_rbm():
    """A 12→7 RBM for functional tests."""
    return RBM(12, 7, seed=5)


@pytest.fixture
def binary_batch(rng):
    """A 40x12 binary matrix for RBM training tests."""
    return (rng.random((40, 12)) < 0.4).astype(np.float64)
