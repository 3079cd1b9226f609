"""Smoke tests: the shipped examples must run end to end.

Only the three fastest examples run as subprocesses here (the full set is
exercised manually / in CI); the goal is to catch API drift that would
break the README's first-contact experience.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: What ``serving_demo.py`` prints.  Arrivals, service times and the clock
#: are simulated, so the report is exact on any host.
SERVING_DEMO_LINES = [
    "pre-trained encoder: 256 -> 64 -> 32",
    "registered: ['digits-encoder'] (256 -> 32)",
    "",
    "bursty workload (500 rps base, 8000 rps bursts), simulated Phi:",
    "  no batching (max_batch=1)",
    "    served 1887/1887 (rejected 0, cache hits 0)",
    "    throughput     1887 rps   mean batch   1.0",
    "    latency p50   1.21 ms   p95   4.84 ms   p99   6.14 ms",
    "  micro-batching (max_batch=32)",
    "    served 1887/1887 (rejected 0, cache hits 0)",
    "    throughput     1887 rps   mean batch   6.4",
    "    latency p50   1.39 ms   p95   2.21 ms   p99   2.26 ms",
    "  micro-batching + feature cache",
    "    served 1887/1887 (rejected 0, cache hits 1814)",
    "    throughput     1887 rps   mean batch   4.3",
    "    latency p50   0.00 ms   p95   0.00 ms   p99   2.15 ms",
]


def run_example(name: str, timeout: int = 180) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=EXAMPLES.parent,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Phi speedup" in out
        assert "strongest learned filters" in out

    def test_deep_pretraining(self):
        out = run_example("deep_pretraining.py")
        assert "Table I" in out
        assert "16,0" in out  # the baseline anchor

    def test_serving_demo(self):
        assert run_example("serving_demo.py").splitlines() == SERVING_DEMO_LINES

    def test_examples_directory_complete(self):
        """README promises at least these examples on disk."""
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "deep_pretraining.py",
            "rbm_dbn_features.py",
            "phi_speedup_study.py",
            "batch_optimizers.py",
            "supervised_finetuning.py",
            "sparse_coding_features.py",
            "performance_toolkit.py",
        } <= names
