"""Tests for repro.cluster.benchrun — schema, gates, baseline compare."""

from pathlib import Path

import pytest

from repro.bench import gate
from repro.bench.benches import CLUSTER
from repro.cluster.benchrun import (
    SCHEMA,
    drill_replica_config,
    replica_capacity_rps,
    run_cluster_bench,
    run_saturation_sweep,
)
from repro.errors import ConfigurationError


def gate_failures(report):
    failures, skipped = gate.gate(CLUSTER, report)
    assert skipped == []
    return failures


def fence_failures(report, baseline):
    failures, skipped = gate.compare(CLUSTER, report, baseline)
    assert skipped == []
    return failures


def saturation_row(n, speedup, p99_ratio=1.0):
    return {
        "kind": "saturation", "n_replicas": n, "rate_rps": 1e5,
        "offered": 1000, "completed": 900, "shed": 100, "failed": 0,
        "throughput_rps": 1e5 * speedup, "p99_ms": 2.0,
        "speedup_vs_1": speedup, "p99_ratio_vs_1": p99_ratio,
    }


def synthetic_report(
    scaling=3.5, p99_ratio=1.0, hedge_gain=2.0,
    swap_failed=0, kill_failed=0, deaths=1, scale_ups=2,
):
    return {
        "schema": SCHEMA,
        "seed": 0,
        "quick": True,
        "rows": [
            saturation_row(1, 1.0),
            saturation_row(4, scaling, p99_ratio),
            {"kind": "hedge", "n_replicas": 4, "slow_factor": 20.0,
             "offered": 500, "completed": 500, "failed": 0,
             "p99_off_ms": 50.0, "p99_on_ms": 50.0 / hedge_gain,
             "p99_gain": hedge_gain, "hedges_launched": 40, "hedges_won": 39},
            {"kind": "swap", "n_replicas": 2, "offered": 500, "completed": 500,
             "failed": swap_failed, "shed": 0, "swaps": 1, "drained": True,
             "old_version_retired": True, "post_swap_model": "drill@v2",
             "active_version": 2},
            {"kind": "kill", "n_replicas": 3, "victim": 1, "offered": 500,
             "completed": 500, "failed": kill_failed, "shed": 0,
             "deaths": deaths, "rerouted": 10, "replicas_final": 2},
            {"kind": "autoscale", "offered": 500, "completed": 480, "failed": 0,
             "scale_ups": scale_ups, "scale_downs": 1, "replicas_final": 1,
             "peak_replicas": 3},
        ],
    }


class TestValidation:
    def test_valid_report_passes(self):
        gate.validate(CLUSTER, synthetic_report())

    def test_wrong_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="schema"):
            gate.validate(CLUSTER, {"schema": "other/v9", "rows": [{}]})

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty 'rows'"):
            gate.validate(CLUSTER, {"schema": SCHEMA, "rows": []})

    def test_unknown_kind_rejected(self):
        report = synthetic_report()
        report["rows"][0]["kind"] = "mystery"
        with pytest.raises(ConfigurationError, match="unknown kind"):
            gate.validate(CLUSTER, report)

    def test_missing_key_rejected(self):
        report = synthetic_report()
        del report["rows"][2]["p99_gain"]
        with pytest.raises(ConfigurationError, match="p99_gain"):
            gate.validate(CLUSTER, report)

    def test_missing_drill_kind_rejected(self):
        report = synthetic_report()
        report["rows"] = [r for r in report["rows"] if r["kind"] != "autoscale"]
        with pytest.raises(ConfigurationError, match="autoscale"):
            gate.validate(CLUSTER, report)

    def test_roundtrip_through_disk(self, tmp_path):
        path = tmp_path / "bench.json"
        gate.write(CLUSTER, synthetic_report(), path)
        gate.validate(CLUSTER, gate.load(path))


class TestGates:
    def test_clean_report_passes(self):
        assert gate_failures(synthetic_report()) == []

    def test_scaling_floor(self):
        failures = gate_failures(synthetic_report(scaling=2.4))
        assert any("speedup" in f for f in failures)

    def test_p99_inflation(self):
        failures = gate_failures(synthetic_report(p99_ratio=1.5))
        assert any("p99_ratio_vs_1" in f for f in failures)

    def test_hedge_floor(self):
        failures = gate_failures(synthetic_report(hedge_gain=1.2))
        assert any("hedge" in f for f in failures)

    def test_swap_contract(self):
        failures = gate_failures(synthetic_report(swap_failed=3))
        assert failures == ["swap: failed 3, required == 0"]

    def test_kill_contract(self):
        failures = gate_failures(synthetic_report(kill_failed=1))
        assert failures == ["kill: failed 1, required == 0"]
        failures = gate_failures(synthetic_report(deaths=0))
        assert failures == ["kill: deaths 0, required == 1"]

    def test_autoscale_contract(self):
        failures = gate_failures(synthetic_report(scale_ups=0))
        assert any("autoscale" in f for f in failures)


class TestBaselineCompare:
    def test_no_regression(self):
        assert fence_failures(synthetic_report(), synthetic_report()) == []

    def test_scaling_regression_flagged(self):
        current = synthetic_report(scaling=2.0)
        failures = fence_failures(current, synthetic_report(scaling=3.5))
        assert any("saturation N=4: speedup_vs_1" in f for f in failures)

    def test_hedge_regression_flagged(self):
        current = synthetic_report(hedge_gain=1.0)
        failures = fence_failures(current, synthetic_report(hedge_gain=2.0))
        assert any("hedge: p99_gain" in f for f in failures)

    def test_within_allowance_passes(self):
        current = synthetic_report(scaling=3.0)
        assert fence_failures(current, synthetic_report(scaling=3.5)) == []


class TestRealDrillPlumbing:
    def test_capacity_is_positive_and_batch_bound(self, servable):
        capacity = replica_capacity_rps(servable)
        assert capacity > 0
        config = drill_replica_config(cache_entries=16)
        assert config.cache_entries == 16
        assert drill_replica_config().cache_entries == 0

    def test_tiny_saturation_sweep_shape(self, servable):
        rows = run_saturation_sweep(
            servable, replica_counts=(1, 2), duration_s=0.002, seed=0
        )
        assert [r["n_replicas"] for r in rows] == [1, 2]
        assert rows[0]["speedup_vs_1"] == 1.0
        assert rows[1]["completed"] > rows[0]["completed"]
        assert all(r["failed"] == 0 for r in rows)

    def test_saturation_rejects_bad_counts(self, servable):
        with pytest.raises(ConfigurationError):
            run_saturation_sweep(servable, replica_counts=())
        with pytest.raises(ConfigurationError):
            run_saturation_sweep(servable, replica_counts=(0, 2))


@pytest.mark.slow
class TestCommittedBaseline:
    def test_repo_baseline_is_current(self):
        """BENCH_cluster.json must equal a fresh --quick run exactly: every
        drill runs on the simulated clock."""
        baseline = gate.load(Path(__file__).resolve().parents[2] / "BENCH_cluster.json")
        fresh = run_cluster_bench(quick=True, seed=baseline["seed"])
        assert fresh["rows"] == baseline["rows"]
        assert fresh == baseline
