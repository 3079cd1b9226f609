"""Sharded checkpoints: round-trip, shard-count tagging, cross-rejection."""

import numpy as np
import pytest

from repro.nn.stacked import LayerSpec, StackedAutoencoder
from repro.runtime.checkpoint import (
    CheckpointError,
    CheckpointStore,
    capture_rng,
    require_shard_count,
)
from repro.shard.checkpoint import (
    SHARD_CKPT_KIND,
    load_shard_state,
    read_shard_checkpoint,
    save_shard_checkpoint,
    shard_state_arrays,
)
from repro.shard.partition import Partition
from repro.shard.shards import partition
from repro.utils.rng import spawn_generators


@pytest.fixture()
def trained():
    x = np.random.default_rng(0).random((32, 12))
    model = StackedAutoencoder(
        12,
        [LayerSpec(10, epochs=1, batch_size=16), LayerSpec(8, epochs=1, batch_size=16)],
        seed=0,
    )
    model.pretrain(x)
    return model


def _save(store, shards, **overrides):
    rngs = spawn_generators(0, 4)
    kwargs = dict(
        block_index=1,
        epochs_done=1,
        rng_states=[capture_rng(g) for g in rngs],
        current_errors=[0.5],
        layer_errors=[[0.9, 0.5]],
    )
    kwargs.update(overrides)
    return save_shard_checkpoint(store, shards, **kwargs)


class TestStateArrays:
    def test_round_trip_restores_every_parameter(self, trained):
        shards = partition(trained, 2)
        arrays = {k: v.copy() for k, v in shard_state_arrays(shards).items()}
        for shard in shards:
            shard.model.blocks[0].w1 += 1.0
            shard.cross[0].values += 1.0
        load_shard_state(shards, arrays)
        again = shard_state_arrays(shards)
        for key, value in arrays.items():
            assert np.array_equal(value, again[key]), key

    def test_shape_mismatch_rejected(self, trained):
        shards = partition(trained, 2)
        arrays = dict(shard_state_arrays(shards))
        arrays["s0_w1_0"] = np.zeros((3, 3))
        with pytest.raises(CheckpointError, match="shape"):
            load_shard_state(shards, arrays)

    def test_missing_key_names_the_layout(self, trained):
        shards = partition(trained, 2)
        arrays = dict(shard_state_arrays(shards))
        del arrays["s1_b2_1"]
        with pytest.raises(CheckpointError, match="different shard layout"):
            load_shard_state(shards, arrays)


class TestHeaderValidation:
    def test_save_read_round_trip(self, trained, tmp_path):
        shards = partition(trained, 2)
        store = CheckpointStore(tmp_path)
        _save(store, shards)
        header, arrays = read_shard_checkpoint(
            store,
            family="sae",
            partition=shards[0].partition,
            model_meta=shards[0].model_meta,
        )
        assert header["kind"] == SHARD_CKPT_KIND
        assert header["n_shards"] == 2
        assert header["block_index"] == 1
        assert "s0_w1_0" in arrays

    def test_shard_count_mismatch_rejected(self, trained, tmp_path):
        """The tentpole contract: a 2-shard snapshot must refuse to feed a
        4-shard resume — repartitioning moves bytes between shards."""
        shards = partition(trained, 2)
        store = CheckpointStore(tmp_path)
        _save(store, shards)
        wrong = Partition(trained.layer_sizes, 4,
                          partitioned=range(1, len(trained.layer_sizes)))
        with pytest.raises(CheckpointError, match="shard"):
            read_shard_checkpoint(
                store, family="sae", partition=wrong,
                model_meta=shards[0].model_meta,
            )

    def test_family_mismatch_rejected(self, trained, tmp_path):
        shards = partition(trained, 2)
        store = CheckpointStore(tmp_path)
        _save(store, shards)
        with pytest.raises(CheckpointError, match="model"):
            read_shard_checkpoint(
                store, family="dbn", partition=shards[0].partition,
                model_meta=shards[0].model_meta,
            )

    def test_partition_layout_mismatch_rejected(self, trained, tmp_path):
        shards = partition(trained, 2)
        store = CheckpointStore(tmp_path)
        _save(store, shards)
        skewed = Partition(trained.layer_sizes, 2, partitioned=(1,))
        with pytest.raises(CheckpointError, match="partition"):
            read_shard_checkpoint(
                store, family="sae", partition=skewed,
                model_meta=shards[0].model_meta,
            )

    def test_model_meta_mismatch_rejected(self, trained, tmp_path):
        shards = partition(trained, 2)
        store = CheckpointStore(tmp_path)
        _save(store, shards)
        other = dict(shards[0].model_meta, n_visible=99)
        with pytest.raises(CheckpointError, match="hyper-parameters"):
            read_shard_checkpoint(
                store, family="sae", partition=shards[0].partition,
                model_meta=other,
            )

    def test_foreign_kind_rejected(self, trained, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"kind": "pretrain", "n_shards": 2}, {"x": np.zeros(3)})
        with pytest.raises(CheckpointError, match="kind"):
            read_shard_checkpoint(
                store, family="sae",
                partition=partition(trained, 2)[0].partition,
                model_meta=trained._ckpt_model_meta(),
            )


class TestRequireShardCount:
    def test_accepts_matching_count(self):
        require_shard_count({"n_shards": 4}, 4)

    def test_rejects_mismatch_and_absence(self):
        with pytest.raises(CheckpointError):
            require_shard_count({"n_shards": 2}, 4)
        with pytest.raises(CheckpointError):
            require_shard_count({}, 4)
