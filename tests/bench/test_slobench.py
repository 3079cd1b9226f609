"""Tests for repro.bench.slobench — the workload SLO bench + its gates."""

import copy

import pytest

from repro.bench import gate
from repro.bench.benches import WORKLOADS
from repro.bench.slobench import (
    SCHEMA,
    TrainLoopDriver,
    demo_servable,
    run_trace,
    run_workloads_bench,
    scenario_for,
)
from repro.errors import ConfigurationError
from repro.workloads.patterns import PATTERNS, generate


@pytest.fixture(scope="module")
def quick_report():
    return run_workloads_bench(quick=True, seed=0)


class TestBenchRun:
    def test_covers_every_pattern(self, quick_report):
        assert quick_report["schema"] == SCHEMA
        assert quick_report["quick"] is True
        assert sorted(r["kind"] for r in quick_report["rows"]) == sorted(PATTERNS)

    def test_deterministic(self, quick_report):
        again = run_workloads_bench(quick=True, seed=0)
        assert again == quick_report  # bit-identical, every field

    def test_gates_pass_on_fresh_run(self, quick_report):
        assert gate.gate(WORKLOADS, quick_report) == ([], [])

    def test_mixed_pattern_trains(self, quick_report):
        mixed = next(r for r in quick_report["rows"]
                     if r["kind"] == "mixed_train_serve")
        assert mixed["train_steps"] >= 1
        assert mixed["train_failures"] == 0
        assert "train_contended" in mixed

    def test_cache_contract_split(self, quick_report):
        rows = {r["kind"]: r for r in quick_report["rows"]}
        assert rows["diurnal"]["cache_hit_rate"] >= 0.5
        assert rows["cache_busting"]["cache_hit_rate"] <= 0.02


class TestScenarios:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown pattern"):
            scenario_for("tsunami", demo_servable())

    def test_run_trace_entry_point(self):
        report = run_trace(generate("flash_crowd", seed=0, quick=True))
        assert report.offered > 0
        assert report.errors == 0

    def test_trainer_steps_advance_state(self):
        driver = TrainLoopDriver(seed=0)
        charged = driver.step(0.0)
        assert charged > 0
        assert driver.step(0.01) == charged
        assert driver.epochs_run == 2
        assert len(driver.metrics) == 2
        assert driver.contended == 0  # nothing to occupy, nothing contended


class TestReportPlumbing:
    def test_round_trip(self, quick_report, tmp_path):
        path = gate.write(WORKLOADS, quick_report, tmp_path / "r.json")
        assert gate.load(path) == quick_report

    def test_validate_rejects_wrong_schema(self, quick_report):
        bad = dict(quick_report, schema="nonsense/v0")
        with pytest.raises(ConfigurationError, match="schema"):
            gate.validate(WORKLOADS, bad)

    def test_validate_rejects_missing_pattern(self, quick_report):
        bad = dict(quick_report, rows=quick_report["rows"][:-1])
        with pytest.raises(ConfigurationError, match="lacks row kinds"):
            gate.validate(WORKLOADS, bad)

    def test_validate_rejects_missing_keys(self, quick_report):
        bad = copy.deepcopy(quick_report)
        del bad["rows"][0]["p99_ms"]
        with pytest.raises(ConfigurationError, match="missing field 'p99_ms'"):
            gate.validate(WORKLOADS, bad)

    def test_enforce_gates_flags_violations(self, quick_report):
        bad = copy.deepcopy(quick_report)
        bad["rows"][0]["slo_ok"] = False
        bad["rows"][0]["slo_failures"] = ["p99 too high"]
        failures, _ = gate.gate(WORKLOADS, bad)
        assert any("p99 too high" in f for f in failures)


class TestBaselineComparison:
    def test_identical_run_passes(self, quick_report):
        assert gate.compare(WORKLOADS, quick_report, quick_report) == ([], [])

    def test_refuses_quick_mismatch(self, quick_report):
        full_shaped = dict(quick_report, quick=False)
        failures, _ = gate.compare(WORKLOADS, full_shaped, quick_report)
        assert len(failures) == 1
        assert "cannot compare" in failures[0]

    def test_throughput_regression_detected(self, quick_report):
        inflated = copy.deepcopy(quick_report)
        for row in inflated["rows"]:
            row["throughput_rps"] *= 10.0
        failures, _ = gate.compare(WORKLOADS, quick_report, inflated)
        assert len(failures) == len(PATTERNS)
        assert all("throughput" in f for f in failures)

    def test_p99_regression_detected(self, quick_report):
        slow = copy.deepcopy(quick_report)
        for row in slow["rows"]:
            row["p99_ms"] *= 10.0
        failures, _ = gate.compare(WORKLOADS, slow, quick_report)
        assert failures and all("p99" in f for f in failures)

    def test_within_tolerance_passes(self, quick_report):
        near = copy.deepcopy(quick_report)
        for row in near["rows"]:
            row["throughput_rps"] *= 0.9
            row["p99_ms"] *= 1.1
        assert gate.compare(WORKLOADS, near, quick_report) == ([], [])


class TestCommittedBaseline:
    def test_repo_baseline_is_current(self):
        """BENCH_workloads.json must equal a fresh --quick run exactly."""
        from pathlib import Path

        baseline_path = Path(__file__).resolve().parents[2] / "BENCH_workloads.json"
        baseline = gate.load(baseline_path)
        fresh = run_workloads_bench(quick=True, seed=baseline["seed"])
        assert fresh["rows"] == baseline["rows"]  # the simulated clock is exact
        assert fresh == baseline
