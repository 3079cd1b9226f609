"""shard-bench report plumbing: schema, gates, baseline regression fence."""

import copy

import pytest

from repro.bench import gate
from repro.bench.benches import SHARD
from repro.bench.shardbench import SCHEMA, run_parity_rows, run_pretrain_drill
from repro.errors import ConfigurationError


def gate_failures(report):
    failures, skipped = gate.gate(SHARD, report)
    assert skipped == []
    return failures


def fence_failures(report, baseline):
    failures, skipped = gate.compare(SHARD, report, baseline)
    assert skipped == []
    return failures


def _report():
    return {
        "schema": SCHEMA,
        "seed": 0,
        "quick": True,
        "rows": [
            {
                "kind": "parity", "family": "sae", "n_shards": 2,
                "forward_max_abs": 0.0, "step_max_abs": 0.0,
                "roundtrip_max_abs": 0.0,
            },
            {
                "kind": "pretrain", "family": "sae", "n_shards": 2,
                "exchange_every": 2, "dropout": 0.25, "snapshots": 4,
                "exchanges_expected": 6, "resume_max_abs": 0.0,
            },
            {
                "kind": "serving", "n_shards": 2, "offered": 100,
                "completed": 100, "failed": 0, "shed": 0, "degraded": 0,
                "p99_single_ms": 1.0, "p99_sharded_ms": 1.1,
                "p99_ratio": 1.1, "throughput_rps": 5000.0,
            },
            {
                "kind": "shard_kill", "n_shards": 2, "victim_shard": 1,
                "offered": 100, "completed": 100, "failed": 0, "shed": 0,
                "deaths": 1, "degraded_requests": 40, "degraded_legs": 40,
            },
        ],
    }


class TestValidate:
    def test_complete_report_passes(self):
        gate.validate(SHARD, _report())

    def test_wrong_schema_rejected(self):
        bad = dict(_report(), schema="cluster-bench/v1")
        with pytest.raises(ConfigurationError, match="schema"):
            gate.validate(SHARD, bad)

    def test_unknown_kind_rejected(self):
        bad = _report()
        bad["rows"].append({"kind": "mystery"})
        with pytest.raises(ConfigurationError, match="unknown kind"):
            gate.validate(SHARD, bad)

    def test_missing_key_rejected(self):
        bad = _report()
        del bad["rows"][0]["step_max_abs"]
        with pytest.raises(ConfigurationError, match="missing field 'step_max_abs'"):
            gate.validate(SHARD, bad)

    def test_missing_drill_kind_rejected(self):
        bad = _report()
        bad["rows"] = [r for r in bad["rows"] if r["kind"] != "shard_kill"]
        with pytest.raises(ConfigurationError, match="lacks row kinds"):
            gate.validate(SHARD, bad)

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigurationError, match="rows"):
            gate.validate(SHARD, {"schema": SCHEMA, "rows": []})


class TestGates:
    def test_clean_report_passes(self):
        assert gate_failures(_report()) == []

    def test_parity_breach_fails(self):
        bad = _report()
        bad["rows"][0]["step_max_abs"] = 1e-6
        failures = gate_failures(bad)
        assert any("step_max_abs" in f for f in failures)

    def test_resume_divergence_fails(self):
        bad = _report()
        bad["rows"][1]["resume_max_abs"] = 1e-3
        assert gate_failures(bad) == [
            "pretrain N=2: resume_max_abs 0.001, required <= 1e-10"
        ]

    def test_serving_failure_and_p99_gate(self):
        bad = _report()
        bad["rows"][2]["failed"] = 3
        bad["rows"][2]["p99_ratio"] = 2.0
        failures = gate_failures(bad)
        assert "serving N=2: failed 3, required == 0" in failures
        assert any("p99" in f for f in failures)

    def test_shard_kill_contract(self):
        bad = _report()
        bad["rows"][3]["degraded_requests"] = 0
        assert gate_failures(bad) == [
            "shard_kill N=2: degraded_requests 0, required >= 1"
        ]


class TestBaseline:
    def test_within_fence_passes(self):
        current = _report()
        base = copy.deepcopy(current)
        current["rows"][2]["p99_ratio"] = base["rows"][2]["p99_ratio"] * 1.1
        current["rows"][2]["throughput_rps"] = (
            base["rows"][2]["throughput_rps"] * 0.9
        )
        assert fence_failures(current, base) == []

    def test_p99_regression_caught(self):
        current = _report()
        base = copy.deepcopy(current)
        current["rows"][2]["p99_ratio"] = 2.0
        failures = fence_failures(current, base)
        assert any("p99" in f for f in failures)

    def test_throughput_regression_caught(self):
        current = _report()
        base = copy.deepcopy(current)
        current["rows"][2]["throughput_rps"] = 1000.0
        failures = fence_failures(current, base)
        assert any("throughput" in f for f in failures)


class TestRoundTrip:
    def test_write_then_load_then_validate(self, tmp_path):
        path = tmp_path / "report.json"
        gate.write(SHARD, _report(), path)
        gate.validate(SHARD, gate.load(path))

    def test_committed_artifact_is_valid_and_gated(self):
        from pathlib import Path

        artifact = Path(__file__).resolve().parents[2] / "BENCH_shard.json"
        report = gate.load(artifact)
        gate.validate(SHARD, report)
        assert gate_failures(report) == []


class TestLiveRows:
    def test_quick_parity_rows_are_exact(self):
        rows = run_parity_rows(shard_counts=(2,), seed=0, quick=True)
        assert {r["family"] for r in rows} == {"sae", "dbn", "mlp"}
        for row in rows:
            assert row["forward_max_abs"] == 0.0
            assert row["step_max_abs"] == 0.0
            assert row["roundtrip_max_abs"] == 0.0

    def test_quick_pretrain_drill_resumes_exactly(self):
        row = run_pretrain_drill(quick=True)
        assert row["resume_max_abs"] == 0.0
        assert row["snapshots"] >= 2
