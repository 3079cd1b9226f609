"""End-to-end: the `serve-bench` CLI artefact on a freshly trained model."""

import pytest

from repro.cli import main
from repro.serve.benchrun import run_serve_bench, train_demo_servable

#: The rows of the grid below (batch sizes 1 and 16 × 500 and 20,000 rps,
#: 0.25 s, seed 0).  The clock is simulated, so every value is exact.
PINNED_ROWS = [
    {"max_batch": 1, "rate_rps": 500.0, "offered": 116,
     "served": 116, "rejected": 0, "throughput_rps": 464.0,
     "mean_batch": 1.0, "p50_ms": 0.1504397348483233,
     "p95_ms": 0.19842869692815457, "p99_ms": 0.280965326962368},
    {"max_batch": 1, "rate_rps": 20000.0, "offered": 5024,
     "served": 2685, "rejected": 2339, "throughput_rps": 6644.471172308145,
     "mean_batch": 1.0, "p50_ms": 136.02401756120824,
     "p95_ms": 154.1940872534329, "p99_ms": 154.19936553084702},
    {"max_batch": 16, "rate_rps": 500.0, "offered": 116,
     "served": 116, "rejected": 0, "throughput_rps": 462.2568885709687,
     "mean_batch": 1.8412698412698412, "p50_ms": 2.150439734848325,
     "p95_ms": 2.1611813926328063, "p99_ms": 2.1611813926328134},
    {"max_batch": 16, "rate_rps": 20000.0, "offered": 5024,
     "served": 5024, "rejected": 0, "throughput_rps": 19993.69613765131,
     "mean_batch": 16.0, "p50_ms": 0.5853740369943048,
     "p95_ms": 1.0596538124125476, "p99_ms": 1.2538573149724688},
]


class TestServeBenchRows:
    @pytest.fixture(scope="class")
    def rows(self):
        servable = train_demo_servable(n_examples=96, epochs=1, seed=0)
        return run_serve_bench(
            servable=servable,
            batch_sizes=(1, 16),
            rates=(500.0, 20_000.0),
            duration_s=0.25,
            seed=0,
        )

    def test_grid_shape(self, rows):
        assert len(rows) == 4
        assert {(r["max_batch"], r["rate_rps"]) for r in rows} == {
            (1, 500.0), (1, 20_000.0), (16, 500.0), (16, 20_000.0),
        }

    def test_rows_have_report_columns(self, rows):
        for row in rows:
            for column in ("throughput_rps", "p50_ms", "p95_ms", "p99_ms", "mean_batch"):
                assert column in row
            assert row["served"] + row["rejected"] == row["offered"]

    def test_rows_are_pinned(self, rows):
        assert rows == PINNED_ROWS

    def test_batching_wins_at_saturation(self, rows):
        by_cell = {(r["max_batch"], r["rate_rps"]): r for r in rows}
        slow = by_cell[(1, 20_000.0)]
        fast = by_cell[(16, 20_000.0)]
        assert fast["throughput_rps"] >= 2.0 * slow["throughput_rps"]


class TestServeBenchCli:
    def test_cli_emits_full_report(self, capsys):
        assert main(["serve-bench", "--duration", "0.2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Serving sweep" in out
        for column in ("throughput_rps", "p50_ms", "p95_ms", "p99_ms", "mean_batch"):
            assert column in out

    def test_cli_csv_export(self, tmp_path, capsys):
        path = tmp_path / "serve.csv"
        assert main(["serve-bench", "--duration", "0.1", "--csv", str(path)]) == 0
        header = path.read_text().splitlines()[0]
        assert "max_batch" in header and "throughput_rps" in header
