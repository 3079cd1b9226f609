"""Benchmark-harness library.

Each of the paper's evaluation artefacts (Figs. 7–10, Table I, the §IV.A
transfer-overlap measurement, and the abstract's headline claims) has a
workload definition in :mod:`repro.bench.workloads`, a driver in
:mod:`repro.bench.harness` that emits the same rows/series the paper
reports, and a text formatter in :mod:`repro.bench.report`.  The
``benchmarks/`` directory wraps these in pytest-benchmark entry points.
The six benches with committed ``BENCH_*.json`` baselines are declared
in :mod:`repro.bench.benches` and checked by :mod:`repro.bench.gate`;
neither is imported here.
"""

from repro.bench.workloads import (
    FIG7_NETWORKS,
    FIG8_DATASET_SIZES,
    FIG9_BATCH_SIZES,
    fig7_autoencoder_config,
    fig7_rbm_config,
    fig8_autoencoder_config,
    fig8_rbm_config,
    fig9_autoencoder_config,
    fig9_rbm_config,
    fig10_config,
    table1_pretrainer,
)
from repro.bench.harness import (
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_table1,
    run_transfer_overlap,
    run_headline_claims,
    run_core_scaling,
)
from repro.bench.report import (
    format_series,
    format_table,
    format_timeline,
    write_csv,
    write_json,
)
from repro.bench.sweep import simulate_seconds, sweep
from repro.bench.hotpath import run_hotpath_bench

# The shard bench pulls in the serving + cluster tiers; keep it lazy so
# `import repro` (which imports repro.bench eagerly) stays cluster-free.
_SHARDBENCH_EXPORTS = ("run_shard_bench", "shardbench")


def __getattr__(name):
    if name in _SHARDBENCH_EXPORTS:
        import importlib

        module = importlib.import_module("repro.bench.shardbench")
        if name == "shardbench":
            return module
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FIG7_NETWORKS",
    "FIG8_DATASET_SIZES",
    "FIG9_BATCH_SIZES",
    "fig7_autoencoder_config",
    "fig7_rbm_config",
    "fig8_autoencoder_config",
    "fig8_rbm_config",
    "fig9_autoencoder_config",
    "fig9_rbm_config",
    "fig10_config",
    "table1_pretrainer",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_table1",
    "run_transfer_overlap",
    "run_headline_claims",
    "run_core_scaling",
    "format_table",
    "format_series",
    "write_csv",
    "write_json",
    "format_timeline",
    "sweep",
    "simulate_seconds",
    "run_hotpath_bench",
    "run_shard_bench",
    "shardbench",
]
