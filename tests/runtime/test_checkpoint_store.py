"""Tests for repro.runtime.checkpoint.CheckpointStore — naming, pruning, reopening."""

import numpy as np

from repro.runtime.checkpoint import CheckpointStore


def _save(store, i):
    return store.save({"i": i}, {"a": np.array([float(i)])})


class TestCheckpointStore:
    def test_prefix_may_contain_a_dash(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2, prefix="run-a")
        paths = [_save(store, i) for i in range(3)]
        assert sorted(tmp_path.glob("*.npz")) == paths[1:]  # pruned to keep=2
        assert store.list() == paths[1:]
        assert store.latest() == paths[2]
        assert store.load_latest()[0]["i"] == 2

        reopened = CheckpointStore(tmp_path, keep=2, prefix="run-a")
        assert _save(reopened, 3).name == "run-a-000003.npz"
        assert [p.name for p in reopened.list()] == [
            "run-a-000002.npz", "run-a-000003.npz"
        ]

        assert CheckpointStore(tmp_path, prefix="run").list() == []
