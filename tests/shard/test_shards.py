"""ModelShard: partition/merge round-trip and parity vs the masked oracle.

The load-bearing invariant of the whole subsystem: shard ``k`` of a
model is *exactly* the full model evaluated under shard ``k``'s
structural dropout masks, for the forward pass and for one full
training update (diagonal blocks trained, cross blocks decay-only).
Everything is compared bit-for-bit (zeroed terms contribute exact ±0.0
to the GEMM sums), so assertions use ``== 0.0``, not tolerances.
"""

import numpy as np
import pytest

from repro.bench.shardbench import (
    _max_abs,
    _mlp_forward_parity,
    _mlp_step_parity,
    _model_params,
    _rbm_step_parity,
    _sae_step_parity,
    _stack_forward_parity,
)
from repro.errors import ConfigurationError
from repro.nn.mlp import DeepNetwork
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from repro.shard.servables import gather_outputs
from repro.shard.shards import merge, partition

SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(0).random((32, 12))


@pytest.fixture(scope="module")
def sae(x):
    model = StackedAutoencoder(
        12,
        [LayerSpec(10, epochs=1, batch_size=16), LayerSpec(8, epochs=1, batch_size=16)],
        seed=0,
    )
    model.pretrain(x)
    return model


@pytest.fixture(scope="module")
def dbn(x):
    model = DeepBeliefNetwork(
        12,
        [LayerSpec(10, epochs=1, batch_size=16), LayerSpec(8, epochs=1, batch_size=16)],
        cd_k=1,
        seed=0,
    )
    model.pretrain((x > 0.5).astype(np.float64))
    return model


@pytest.fixture(scope="module")
def mlp():
    return DeepNetwork([12, 10, 8, 5], seed=0)


class TestRoundTrip:
    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_sae_partition_merge_is_identity(self, sae, n):
        rebuilt = merge(partition(sae, n))
        for a, b in zip(_model_params(sae), _model_params(rebuilt)):
            assert _max_abs(a, b) == 0.0

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_dbn_partition_merge_is_identity(self, dbn, n):
        rebuilt = merge(partition(dbn, n))
        for a, b in zip(_model_params(dbn), _model_params(rebuilt)):
            assert _max_abs(a, b) == 0.0

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_mlp_partition_merge_is_identity(self, mlp, n):
        rebuilt = merge(partition(mlp, n))
        for a, b in zip(_model_params(mlp), _model_params(rebuilt)):
            assert _max_abs(a, b) == 0.0

    def test_model_partition_method_delegates(self, sae, mlp):
        assert len(sae.partition(2)) == 2
        assert len(mlp.partition(2)) == 2

    def test_untrained_stack_is_rejected(self):
        empty = StackedAutoencoder(12, [LayerSpec(8, epochs=1, batch_size=16)], seed=0)
        with pytest.raises(ConfigurationError, match="sharded_pretrain"):
            partition(empty, 2)

    def test_incomplete_shard_set_rejected(self, sae):
        shards = partition(sae, 4)
        with pytest.raises(ConfigurationError):
            merge(shards[:-1])


class TestForwardParity:
    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_sae_shard_equals_masked_full_model(self, sae, x, n):
        assert _stack_forward_parity(sae, n, x) == 0.0

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_dbn_shard_equals_masked_full_model(self, dbn, x, n):
        assert _stack_forward_parity(dbn, n, (x > 0.5).astype(np.float64)) == 0.0

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_mlp_shard_equals_masked_full_model(self, mlp, x, n):
        assert _mlp_forward_parity(mlp, n, x) == 0.0

    def test_sharded_answer_differs_from_unmasked_model(self, sae, x):
        """The decoupled ensemble is an approximation of — not equal to —
        the unmasked full model; parity only holds against the masked
        oracle.  Guards against accidentally comparing the wrong thing."""
        shards = partition(sae, 2)
        gathered = gather_outputs(shards, [s.partial_output(x) for s in shards])
        assert _max_abs(gathered, sae.transform(x)) > 1e-6


class TestGather:
    """Stack shards' code slices: every leg present gathers in one
    concatenate, a lost leg's slice is zero-filled; both must equal a
    reference built slice by slice from ``Partition.bounds``."""

    @pytest.fixture(scope="class")
    def uneven(self, x):
        model = StackedAutoencoder(  # 7 code units over 3 shards: 3, 2, 2
            12,
            [LayerSpec(9, epochs=1, batch_size=16), LayerSpec(7, epochs=1, batch_size=16)],
            seed=0,
        )
        model.pretrain(x)
        return partition(model, 3)

    @staticmethod
    def _legs(shards, x, two_d):
        legs = [s.partial_output(x) for s in shards]
        return legs if two_d else [leg[0] for leg in legs]

    @staticmethod
    def _slice_by_slice(shards, legs):
        part = shards[0].partition
        top = len(part.layer_sizes) - 1
        shape = next(leg for leg in legs if leg is not None).shape[:-1]
        ref = np.zeros(shape + (part.layer_sizes[top],))
        for k, leg in enumerate(legs):
            if leg is not None:
                lo, hi = part.bounds(top, k)
                ref[..., lo:hi] = leg
        return ref

    @pytest.mark.parametrize("two_d", [True, False])
    def test_every_leg_present_matches_slice_reference_bit_for_bit(self, uneven, x, two_d):
        legs = self._legs(uneven, x, two_d)
        assert [leg.shape[-1] for leg in legs] == [3, 2, 2]
        got = gather_outputs(uneven, legs)
        ref = self._slice_by_slice(uneven, legs)
        assert got.shape == ref.shape and got.dtype == np.float64
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("two_d", [True, False])
    @pytest.mark.parametrize("lost", [0, 1, 2])
    def test_lost_leg_slice_is_zero_filled(self, uneven, x, lost, two_d):
        legs = self._legs(uneven, x, two_d)
        legs[lost] = None
        got = gather_outputs(uneven, legs)
        lo, hi = uneven[0].partition.bounds(2, lost)
        assert np.all(got[..., lo:hi] == 0.0)
        assert got.tobytes() == self._slice_by_slice(uneven, legs).tobytes()


class TestStepParity:
    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_sae_one_update_matches_masked_oracle(self, n):
        assert _sae_step_parity(n, seed=1) == 0.0

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_rbm_one_cd_update_matches_masked_oracle(self, n):
        assert _rbm_step_parity(n, seed=1) == 0.0

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_mlp_one_update_matches_masked_oracle(self, mlp, n):
        assert _mlp_step_parity(mlp, n, seed=1) == 0.0


class TestStructuralMasks:
    def test_stack_masks_cover_every_layer(self, sae):
        shard = partition(sae, 2)[0]
        masks = shard.structural_masks()
        assert len(masks) == len(sae.layer_specs)
        for mask, spec in zip(masks, sae.layer_specs):
            assert mask.shape == (spec.n_hidden,)
            assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_mlp_masks_cover_hidden_layers(self, mlp):
        shard = partition(mlp, 2)[1]
        masks = shard.structural_masks()
        assert len(masks) == len(mlp.layer_sizes) - 2
