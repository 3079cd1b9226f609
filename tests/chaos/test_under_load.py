"""Chaos under load: faults injected mid-replay must not break the SLO.

The quick serving drills run on the simulated clock, so their rows are
pinned exactly at seed 0: scenario, site, fired count, verdict and
detail.
"""

import pytest

from repro.testing.chaos import run_chaos, run_chaos_under_load, run_shard_chaos
from repro.workloads.patterns import generate

#: ``run_chaos_under_load("mixed_train_serve", quick=True, seed=0)``.
MIXED_ROWS = [
    {"scenario": "under load [mixed_train_serve]: dispatch faults absorbed by spillover",
     "site": "router.dispatch", "fired": 3, "ok": True,
     "detail": "3 dispatch fault(s), 237/238 completed"},
    {"scenario": "under load [mixed_train_serve]: replica death fails over",
     "site": "replica.serve", "fired": 1, "ok": True,
     "detail": "deaths=1 rerouted=1 failed=0 (2 replicas live)"},
    {"scenario": "under load [mixed_train_serve]: training blast radius contained",
     "site": "engine.worker", "fired": 1, "ok": True,
     "detail": "train steps 7 ok / 1 failed; serving errors 0 "
               "(FaultError: injected fault at 'engine.worker' (visit 3))"},
    {"scenario": "under load [mixed_train_serve]: SLO held with faults injected",
     "site": "-", "fired": 5, "ok": True,
     "detail": "p99 3.15 ms, error rate 0.0000, shed rate 0.0042"},
]

#: ``run_shard_chaos(quick=True, seed=0)``.
SHARD_ROWS = [
    {"scenario": "sharded serving: scatter legs lost, requests degrade",
     "site": "shard.exchange", "fired": 3, "ok": True,
     "detail": "2685/2686 served, failed=0, degraded=1"},
    {"scenario": "sharded serving: shard replica killed, survivors answer",
     "site": "replica.serve", "fired": 1, "ok": True,
     "detail": "2686/2686 served, failed=0, deaths=1, degraded=2590"},
    {"scenario": "sharded pretrain: kill at shard.exchange, resume",
     "site": "shard.exchange", "fired": 1, "ok": True,
     "detail": "max |Δparam| after resume = 0.0e+00"},
]


@pytest.fixture(scope="module")
def mixed_rows():
    return run_chaos_under_load("mixed_train_serve", quick=True, seed=0)


class TestMixedTrainServeDrill:
    def test_every_scenario_recovers(self, mixed_rows):
        assert all(row["ok"] for row in mixed_rows), mixed_rows

    def test_faults_fired_on_multiple_sites(self, mixed_rows):
        """The acceptance criterion: faults on >= 2 distinct sites."""
        sites = {row["site"] for row in mixed_rows
                 if row["site"] != "-" and row["fired"] >= 1}
        assert len(sites) >= 2
        assert {"router.dispatch", "replica.serve", "engine.worker"} <= sites

    def test_training_blast_radius_contained(self, mixed_rows):
        train_row = next(r for r in mixed_rows if r["site"] == "engine.worker")
        assert train_row["fired"] >= 1
        assert "serving errors 0" in train_row["detail"]

    def test_slo_row_is_last_and_holds(self, mixed_rows):
        slo_row = mixed_rows[-1]
        assert "SLO held" in slo_row["scenario"]
        assert slo_row["ok"]


class TestPinnedRows:
    def test_mixed_train_serve_rows(self, mixed_rows):
        assert mixed_rows == MIXED_ROWS

    def test_shard_chaos_rows(self):
        assert run_shard_chaos(quick=True, seed=0) == SHARD_ROWS


class TestTraceSources:
    def test_request_only_pattern_skips_train_site(self):
        rows = run_chaos_under_load("flash_crowd", quick=True, seed=0)
        assert all(row["ok"] for row in rows), rows
        sites = {row["site"] for row in rows}
        assert "engine.worker" not in sites
        assert {"router.dispatch", "replica.serve"} <= sites

    def test_trace_file_path_accepted(self, tmp_path):
        trace = generate("flash_crowd", seed=3, quick=True)
        path = trace.save(tmp_path / "fc.trace.jsonl")
        rows = run_chaos_under_load(str(path), quick=True, seed=3)
        assert all(row["ok"] for row in rows), rows
        assert all("flash_crowd" in row["scenario"] for row in rows)

    def test_unknown_spec_reports_cleanly(self):
        rows = run_chaos_under_load("no-such-trace", quick=True)
        assert len(rows) == 1
        assert rows[0]["ok"] is False
        assert "unknown trace" in rows[0]["detail"]

    def test_run_chaos_dispatches_under_load(self):
        rows = run_chaos(quick=True, under_load="cache_busting", seed=1)
        assert all(row["ok"] for row in rows), rows
        assert any(row["site"] == "replica.serve" for row in rows)


class TestCli:
    def test_cli_exit_status_and_title(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--quick", "--under-load", "mixed_train_serve"]) == 0
        out = capsys.readouterr().out
        assert "Chaos under load" in out
        assert "engine.worker" in out
