"""Tests for the hot-path benchmark harness (repro.bench.hotpath)."""

import copy

import pytest

from repro.bench import gate
from repro.bench.benches import HOTPATH
from repro.bench.hotpath import EQUIV_TOL, SCHEMA_ID, run_hotpath_bench
from repro.errors import ConfigurationError

TINY = ((4, 12, 6),)


@pytest.fixture(scope="module")
def report():
    # one real (tiny) run shared by the module's tests
    return run_hotpath_bench(TINY, trials=1, inner=1, seed=0)


class TestRunHotpathBench:
    def test_report_shape(self, report):
        assert report["schema"] == SCHEMA_ID
        assert {row["model"] for row in report["rows"]} == {"sae", "rbm"}
        for row in report["rows"]:
            assert row["batch"] == 4
            assert row["ref_ms"] > 0 and row["fused_ms"] > 0
            assert row["speedup"] == pytest.approx(
                row["ref_ms"] / row["fused_ms"], rel=1e-3
            )

    def test_rows_satisfy_equivalence_gate(self, report):
        for row in report["rows"]:
            assert row["max_abs_diff"] <= EQUIV_TOL

    def test_report_validates(self, report):
        gate.validate(HOTPATH, report)


class TestValidateReport:
    def test_rejects_wrong_schema(self, report):
        bad = copy.deepcopy(report)
        bad["schema"] = "something/else"
        with pytest.raises(ConfigurationError, match="schema"):
            gate.validate(HOTPATH, bad)

    def test_rejects_missing_field(self, report):
        bad = copy.deepcopy(report)
        del bad["rows"][0]["speedup"]
        with pytest.raises(ConfigurationError, match="speedup"):
            gate.validate(HOTPATH, bad)

    def test_rejects_empty_rows(self, report):
        bad = copy.deepcopy(report)
        bad["rows"] = []
        with pytest.raises(ConfigurationError, match="rows"):
            gate.validate(HOTPATH, bad)

    def test_rejects_equivalence_violation(self, report):
        bad = copy.deepcopy(report)
        bad["rows"][0]["max_abs_diff"] = 1e-3
        with pytest.raises(ConfigurationError, match="max_abs_diff"):
            gate.validate(HOTPATH, bad)

    def test_rejects_nonpositive_timing(self, report):
        bad = copy.deepcopy(report)
        bad["rows"][0]["fused_ms"] = 0.0
        with pytest.raises(ConfigurationError, match="fused_ms"):
            gate.validate(HOTPATH, bad)


class TestCompareToBaseline:
    def test_identical_report_passes(self, report):
        assert gate.compare(HOTPATH, report, report) == ([], [])

    def test_within_tolerance_passes(self, report):
        current = copy.deepcopy(report)
        for row in current["rows"]:
            row["speedup"] = round(row["speedup"] * 0.80, 4)  # -20% < 25%
        assert gate.compare(HOTPATH, current, report) == ([], [])

    def test_regression_is_flagged(self, report):
        current = copy.deepcopy(report)
        current["rows"][0]["speedup"] = round(
            report["rows"][0]["speedup"] * 0.5, 4
        )
        failures, _ = gate.compare(HOTPATH, current, report)
        assert len(failures) == 1
        assert report["rows"][0]["model"] in failures[0]

    def test_new_shape_is_not_compared(self, report):
        current = copy.deepcopy(report)
        current["rows"][0]["batch"] = 999  # no matching baseline row
        current["rows"][0]["speedup"] = 0.01
        failures, skipped = gate.compare(HOTPATH, current, report)
        assert failures == []
        assert len(skipped) == 1 and "no baseline row" in skipped[0]
        assert "999" in skipped[0]  # the note names the unmatched key


class TestReportIO:
    def test_write_then_load_roundtrip(self, report, tmp_path):
        path = str(tmp_path / "bench.json")
        assert gate.write(HOTPATH, report, path) == path
        assert gate.load(path) == report


class TestCommittedBaseline:
    def test_committed_baseline_is_valid_and_meets_paper_gate(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "BENCH_hotpath.json"
        )
        if not os.path.exists(path):
            pytest.skip("BENCH_hotpath.json not present")
        baseline = gate.load(path)
        gate.validate(HOTPATH, baseline)
        paper_rows = [
            r for r in baseline["rows"]
            if (r["batch"], r["n_visible"], r["n_hidden"]) == (100, 4096, 1024)
        ]
        assert {r["model"] for r in paper_rows} == {"sae", "rbm"}
        for row in paper_rows:
            assert row["speedup"] >= 1.5
