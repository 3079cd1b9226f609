"""The shared gate path (repro.bench.gate) and its command (repro.bench.benches)."""

import copy
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

from repro.bench import gate
from repro.bench.benches import BENCHES, HOTPATH, PARALLEL, PIPELINE, main
from repro.errors import ConfigurationError

REPO = Path(__file__).resolve().parents[2]


def committed(name):
    return REPO / f"BENCH_{name}.json"


class TestCommittedReports:
    @pytest.mark.parametrize("name", sorted(BENCHES))
    def test_validates_and_passes_its_gates(self, name):
        failures, _ = gate.gate(BENCHES[name], gate.load(committed(name)))
        assert failures == []

    @pytest.mark.parametrize("name", sorted(BENCHES))
    def test_write_reproduces_the_committed_bytes(self, name, tmp_path):
        path = gate.write(BENCHES[name], gate.load(committed(name)), tmp_path / "r.json")
        assert Path(path).read_bytes() == committed(name).read_bytes()

    @pytest.mark.parametrize("name, other", sorted(permutations(BENCHES, 2)))
    def test_another_bench_report_is_rejected(self, name, other):
        bench, report = BENCHES[name], gate.load(committed(name))
        foreign = gate.load(committed(other))
        with pytest.raises(ConfigurationError, match="schema"):
            gate.gate(bench, foreign)
        with pytest.raises(ConfigurationError, match="schema"):
            gate.compare(bench, report, foreign)

    @pytest.mark.parametrize("name", sorted(BENCHES))
    def test_empty_baseline_is_rejected(self, name):
        report = gate.load(committed(name))
        with pytest.raises(ConfigurationError):
            gate.compare(BENCHES[name], report, {"rows": []})
        with pytest.raises(ConfigurationError, match="rows"):
            gate.compare(BENCHES[name], report, dict(report, rows=[]))


class TestInvariants:
    @pytest.mark.parametrize("bench", [HOTPATH, PARALLEL], ids=lambda b: b.name)
    def test_report_cannot_loosen_its_equivalence_bound(self, bench):
        report = gate.load(committed(bench.name))
        report["equiv_tol"] = 1.0
        report["rows"][0]["max_abs_diff"] = 0.5
        with pytest.raises(ConfigurationError, match="max_abs_diff 0.5"):
            gate.validate(bench, report)

    def test_walltime_row_needs_its_label_and_key_fields(self):
        report = gate.load(committed("pipeline"))
        del report["rows"][0]["n_examples"]
        with pytest.raises(ConfigurationError, match="n_examples"):
            gate.gate(PIPELINE, report)

    def test_hotpath_rows_carry_no_kind(self):
        report = gate.load(committed("hotpath"))
        report["rows"][0]["kind"] = "sae"
        with pytest.raises(ConfigurationError, match="unknown kind 'sae'"):
            gate.validate(HOTPATH, report)


class TestFences:
    def test_unmatched_row_is_noted_not_passed_silently(self):
        baseline = gate.load(committed("pipeline"))
        report = copy.deepcopy(baseline)
        walltime = report["rows"][0]
        walltime["n_examples"], walltime["expected_scaling"] = 768, True
        walltime["speedup"] = 9.0  # clears the gate; nothing to fence against
        assert gate.compare(PIPELINE, report, baseline) == (
            [],
            ["walltime 768x512 layers=[384, 512] E=8: no baseline row with key "
             "('walltime', 'sae', 'synchronized', 768, 512, (384, 512), 8, 128), "
             "not fenced"],
        )

    def test_every_duplicated_row_is_fenced(self):
        baseline = gate.load(committed("cluster"))
        report = copy.deepcopy(baseline)
        top = copy.deepcopy(report["rows"][2])
        top["speedup_vs_1"] = 1.0
        report["rows"].insert(3, top)
        failures, _ = gate.compare(BENCHES["cluster"], report, baseline)
        assert len(failures) == 1 and "saturation N=4" in failures[0]


class TestCommand:
    @pytest.mark.parametrize("name", sorted(BENCHES))
    def test_validate_committed_report(self, name, capsys):
        assert main([name, "--validate", str(committed(name))]) == 0
        assert f"{name}: gates passed" in capsys.readouterr().out

    def test_validate_another_bench_report_fails(self, capsys):
        assert main(["shard", "--validate", str(committed("cluster"))]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_validate_against_baseline_fences_and_notes(self, tmp_path, capsys):
        report = gate.load(committed("hotpath"))
        report["rows"][0]["speedup"] = 0.5  # regressed vs the baseline
        report["rows"][1]["batch"] = 999  # no baseline row
        path = gate.write(HOTPATH, report, tmp_path / "r.json")
        status = main(
            ["hotpath", "--validate", path, "--baseline", str(committed("hotpath"))]
        )
        out, err = capsys.readouterr()
        assert status == 1
        assert "REGRESSION: sae (64,512->256): speedup 0.5 beyond floor" in err
        assert "SKIPPED: rbm (999,512->256): no baseline row" in out

    def test_import_repro_stays_off_the_gate_path(self):
        code = (
            "import sys, repro; sys.exit(any(m in sys.modules for m in "
            "('repro.bench.gate', 'repro.bench.benches')))"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0
