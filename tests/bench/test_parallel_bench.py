"""Schema, gates, and baseline comparison of repro.bench.parallel."""

import copy

import pytest

from repro.bench import gate
from repro.bench import parallel as bp
from repro.bench.benches import PARALLEL
from repro.errors import ConfigurationError


def _tiny_report():
    """Real miniature run: 1 shape, W in {1, 2}, few trials."""
    return bp.run_parallel_bench(
        shapes=[(16, 12, 8)], workers=(1, 2), trials=1, inner=1, n_chunks=3, seed=0
    )


@pytest.fixture(scope="module")
def report():
    return _tiny_report()


class TestRun:
    def test_schema_and_metadata(self, report):
        gate.validate(PARALLEL, report)
        assert report["schema"] == bp.SCHEMA_ID
        assert report["n_cores"] >= 1
        assert report["equiv_tol"] == bp.EQUIV_TOL

    def test_concurrency_regime_metadata(self, report):
        for flag in ("gil_enabled", "free_threaded", "blas_budget_active"):
            assert isinstance(report[flag], bool)
        assert isinstance(report["process_engine_available"], bool)
        assert "thread" in report["engines"]

    def test_row_kinds_present(self, report):
        kinds = {row["kind"] for row in report["rows"]}
        assert kinds == {"workers", "prefetch"}

    def test_both_engines_measured_when_process_available(self, report):
        engines = {r["engine"] for r in report["rows"] if r["kind"] == "workers"}
        if report["process_engine_available"]:
            assert engines == {"thread", "process"}
        else:
            assert engines == {"thread"}
        assert set(report["engines"]) == engines

    def test_worker_rows_carry_serial_baseline(self, report):
        for row in report["rows"]:
            if row["kind"] != "workers":
                continue
            assert row["serial_ms"] > 0
            assert row["vs_serial"] == pytest.approx(
                row["serial_ms"] / row["ms"], rel=1e-3
            )

    def test_equivalence_within_tolerance(self, report):
        for row in report["rows"]:
            assert row["max_abs_diff"] <= bp.EQUIV_TOL

    def test_w1_row_is_the_unit_baseline(self, report):
        w1 = [r for r in report["rows"] if r.get("n_workers") == 1]
        assert w1 and all(r["speedup"] == 1.0 for r in w1)

    def test_worker_rows_are_core_count_tagged(self, report):
        for row in report["rows"]:
            if row["kind"] == "workers":
                assert row["expected_scaling"] == (
                    report["n_cores"] >= row["n_workers"]
                )

    def test_workers_must_include_one(self):
        with pytest.raises(ConfigurationError):
            bp.run_parallel_bench(shapes=[(8, 6, 4)], workers=(2, 4), trials=1, inner=1)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="engines"):
            bp.run_parallel_bench(
                shapes=[(8, 6, 4)], trials=1, inner=1, engines=("thread", "gpu")
            )

    def test_rejects_empty_engine_list(self):
        with pytest.raises(ConfigurationError, match="engines"):
            bp.run_parallel_bench(
                shapes=[(8, 6, 4)], trials=1, inner=1, engines=()
            )

    def test_rejects_engine_list_without_thread(self):
        with pytest.raises(ConfigurationError, match="thread"):
            bp.run_parallel_bench(
                shapes=[(8, 6, 4)], trials=1, inner=1, engines=("process",)
            )


class TestRatioPrecision:
    @pytest.mark.parametrize("num, den", [(0.373, 9.987), (0.041, 1.0), (12.345, 0.6)])
    def test_small_and_large_ratios_keep_the_rows_contract(self, num, den):
        # The worker-row contract: vs_serial within 1e-3 of serial_ms / ms.
        assert bp._ratio(num, den) == pytest.approx(num / den, rel=1e-3)

    def test_equal_times_give_exactly_one(self):
        assert bp._ratio(8.4, 8.4) == 1.0


class TestValidation:
    def test_rejects_wrong_schema(self, report):
        bad = copy.deepcopy(report)
        bad["schema"] = "other/v1"
        with pytest.raises(ConfigurationError, match="schema"):
            gate.validate(PARALLEL, bad)

    def test_rejects_missing_cores(self, report):
        bad = copy.deepcopy(report)
        del bad["n_cores"]
        with pytest.raises(ConfigurationError, match="n_cores"):
            gate.validate(PARALLEL, bad)

    def test_rejects_unknown_row_kind(self, report):
        bad = copy.deepcopy(report)
        bad["rows"][0]["kind"] = "mystery"
        with pytest.raises(ConfigurationError, match="kind"):
            gate.validate(PARALLEL, bad)

    def test_rejects_equivalence_violation(self, report):
        bad = copy.deepcopy(report)
        bad["rows"][0]["max_abs_diff"] = 1e-3
        with pytest.raises(ConfigurationError, match="max_abs_diff"):
            gate.validate(PARALLEL, bad)

    def test_rejects_missing_row_kind_coverage(self, report):
        bad = copy.deepcopy(report)
        bad["rows"] = [r for r in bad["rows"] if r["kind"] == "workers"]
        with pytest.raises(ConfigurationError, match="lacks row kinds"):
            gate.validate(PARALLEL, bad)

    def test_rejects_nonpositive_timing(self, report):
        bad = copy.deepcopy(report)
        for row in bad["rows"]:
            if row["kind"] == "workers":
                row["ms"] = 0.0
                break
        with pytest.raises(ConfigurationError, match="positive"):
            gate.validate(PARALLEL, bad)

    def test_rejects_missing_regime_flags(self, report):
        for flag in ("gil_enabled", "free_threaded", "blas_budget_active"):
            bad = copy.deepcopy(report)
            del bad[flag]
            with pytest.raises(ConfigurationError, match=flag):
                gate.validate(PARALLEL, bad)

    def test_rejects_threadpoolctl_claim_without_active_budget(self, report):
        bad = copy.deepcopy(report)
        bad["have_threadpoolctl"] = True
        bad["blas_budget_active"] = False
        with pytest.raises(ConfigurationError, match="threadpoolctl"):
            gate.validate(PARALLEL, bad)

    def test_rejects_missing_scaling_tag(self, report):
        bad = copy.deepcopy(report)
        for row in bad["rows"]:
            if row["kind"] == "workers":
                del row["expected_scaling"]
        with pytest.raises(ConfigurationError, match="expected_scaling"):
            gate.validate(PARALLEL, bad)

    def test_rejects_unknown_engine_in_row(self, report):
        bad = copy.deepcopy(report)
        for row in bad["rows"]:
            if row["kind"] == "workers":
                row["engine"] = "gpu"
                break
        with pytest.raises(ConfigurationError, match="engine"):
            gate.validate(PARALLEL, bad)

    def test_rejects_report_without_thread_rows(self, report):
        bad = copy.deepcopy(report)
        bad["rows"] = [
            r
            for r in bad["rows"]
            if not (r["kind"] == "workers" and r["engine"] == "thread")
        ]
        if not any(r["kind"] == "workers" for r in bad["rows"]):
            pytest.skip("no process rows on this platform")
        with pytest.raises(ConfigurationError, match="thread"):
            gate.validate(PARALLEL, bad)


def _retag(r, expected_scaling):
    """Force the scaling tag on every worker row (simulated core counts)."""
    for row in r["rows"]:
        if row["kind"] == "workers":
            row["expected_scaling"] = expected_scaling
    return r


class TestGates:
    def test_untagged_worker_rows_skip_gate_with_note(self, report):
        r = copy.deepcopy(report)
        r["n_cores"] = 1
        _retag(r, False)
        for row in r["rows"]:
            row["speedup"] = 2.0  # prefetch safely above the floor
        for row in r["rows"]:
            if row["kind"] == "workers" and row["n_workers"] >= 2:
                row["speedup"] = 0.5  # would fail — but must be skipped
        failures, skipped = gate.gate(PARALLEL, r)
        assert failures == []
        assert skipped and "expected_scaling=false" in skipped[0]
        assert "1 core" in skipped[0]

    def test_multicore_enforces_worker_floor(self, report):
        r = copy.deepcopy(report)
        r["n_cores"] = 4
        _retag(r, True)
        for row in r["rows"]:
            row["speedup"] = 2.0
            if row["kind"] == "workers":
                row["vs_serial"] = 2.0
        for row in r["rows"]:
            if row["kind"] == "workers" and row["n_workers"] >= 2:
                row["speedup"] = 1.1
                row["vs_serial"] = 1.1
        failures, skipped = gate.gate(PARALLEL, r)
        assert skipped == []
        assert failures and "W=2" in failures[0]

    def test_process_rows_gate_on_vs_serial(self, report):
        if not report["process_engine_available"]:
            pytest.skip("no process rows on this platform")
        r = copy.deepcopy(report)
        r["n_cores"] = 4
        _retag(r, True)
        for row in r["rows"]:
            row["speedup"] = 2.0  # every per-engine scaling curve is fine
            if row["kind"] == "workers":
                row["vs_serial"] = 2.0
        for row in r["rows"]:
            # ... but the process engine loses to serial: must still fail.
            if row["kind"] == "workers" and row["engine"] == "process":
                row["vs_serial"] = 0.9
        failures, _ = gate.gate(PARALLEL, r)
        assert failures and all("vs_serial" in f for f in failures)
        assert all("process" in f for f in failures)

    def test_prefetch_floor_applies_on_any_core_count(self, report):
        r = copy.deepcopy(report)
        r["n_cores"] = 1
        _retag(r, False)
        for row in r["rows"]:
            row["speedup"] = 2.0
        for row in r["rows"]:
            if row["kind"] == "prefetch":
                row["speedup"] = 1.05
        failures, _ = gate.gate(PARALLEL, r)
        assert failures and "prefetch" in failures[0]

    def test_all_gates_pass_on_good_multicore_report(self, report):
        r = copy.deepcopy(report)
        r["n_cores"] = 4
        _retag(r, True)
        for row in r["rows"]:
            if row.get("n_workers") != 1:
                row["speedup"] = 1.8
            if row["kind"] == "workers":
                row["vs_serial"] = 1.8
        failures, skipped = gate.gate(PARALLEL, r)
        assert failures == [] and skipped == []


class TestBaselineComparison:
    def test_no_regression_against_self(self, report):
        failures, _ = gate.compare(PARALLEL, report, report)
        assert failures == []

    def test_flags_prefetch_regression(self, report):
        current = copy.deepcopy(report)
        for row in current["rows"]:
            if row["kind"] == "prefetch":
                row["speedup"] = row["speedup"] * 0.5
        failures, _ = gate.compare(PARALLEL, current, report)
        assert failures and "prefetch" in failures[0]

    def test_untagged_worker_rows_skipped_with_note(self, report):
        current = copy.deepcopy(report)
        _retag(current, False)
        for row in current["rows"]:
            if row["kind"] == "workers":
                row["speedup"] = 0.1  # huge regression — must be skipped
        failures, skipped = gate.compare(PARALLEL, current, report)
        assert all("workers" not in f for f in failures)
        assert skipped and all("expected_scaling=false" in n for n in skipped)
        assert all("report" in n for n in skipped)  # names which side

    def test_untagged_baseline_rows_skipped_with_note(self, report):
        base = copy.deepcopy(report)
        _retag(base, False)
        current = copy.deepcopy(report)
        _retag(current, True)
        failures, skipped = gate.compare(PARALLEL, current, base)
        assert all("workers" not in f for f in failures)
        assert skipped and all("baseline" in n for n in skipped)

    def test_worker_rows_compared_when_both_tagged(self, report):
        base = copy.deepcopy(report)
        base["n_cores"] = 4
        _retag(base, True)
        current = copy.deepcopy(base)
        for row in current["rows"]:
            if row["kind"] == "workers" and row["n_workers"] >= 2:
                row["speedup"] = row["speedup"] * 0.1
        failures, skipped = gate.compare(PARALLEL, current, base)
        assert failures
        assert skipped == []

    def test_process_regression_flagged_on_vs_serial(self, report):
        if not report["process_engine_available"]:
            pytest.skip("no process rows on this platform")
        base = copy.deepcopy(report)
        base["n_cores"] = 4
        _retag(base, True)
        current = copy.deepcopy(base)
        for row in current["rows"]:
            if row["kind"] == "workers" and row["engine"] == "process":
                row["vs_serial"] = row["vs_serial"] * 0.1
        failures, _ = gate.compare(PARALLEL, current, base)
        assert failures and all("vs_serial" in f for f in failures)

    def test_unknown_shape_is_not_compared(self, report):
        current = copy.deepcopy(report)
        for row in current["rows"]:
            if row["kind"] == "prefetch":
                row["n_chunks"] += 99
            row["batch"] = row["batch"] + 99
        failures, skipped = gate.compare(PARALLEL, current, report)
        assert failures == []
        assert len(skipped) == len(current["rows"])  # one note per row
        assert all("no baseline row" in n and "115" in n for n in skipped)


class TestRoundTrip:
    def test_write_then_load(self, report, tmp_path):
        path = str(tmp_path / "BENCH_parallel.json")
        assert gate.write(PARALLEL, report, path) == path
        loaded = gate.load(path)
        gate.validate(PARALLEL, loaded)
        assert loaded == report

    def test_write_rejects_invalid(self, report, tmp_path):
        bad = copy.deepcopy(report)
        bad["schema"] = "nope"
        with pytest.raises(ConfigurationError):
            gate.write(PARALLEL, bad, str(tmp_path / "x.json"))


class TestCommittedBaseline:
    def test_repo_baseline_is_valid(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "BENCH_parallel.json"
        )
        if not os.path.exists(path):
            pytest.skip("BENCH_parallel.json not present")
        report = gate.load(path)
        gate.validate(PARALLEL, report)
        failures, _skipped = gate.gate(PARALLEL, report)
        assert failures == []
