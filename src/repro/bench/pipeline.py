"""Wall-clock and convergence benchmark: pipelined vs greedy pre-training.

Two row kinds, matching the two claims of Santara et al. (arXiv:1603.02836):

* ``kind="walltime"`` — the same stacked-autoencoder pre-training run
  end-to-end under ``strategy="greedy"`` and ``strategy="pipelined"``
  (synchronized mode, one thread per stage).  The headline ratio is
  ``speedup = greedy_s / pipelined_s``; the theoretical ceiling for L
  equal-cost layers over E epochs is ``L·E / (E + L − 1)`` (each stage
  idles only during the pipeline fill), recorded as ``ideal_speedup``.
  Stage overlap needs real cores, so the row carries
  ``expected_scaling = n_cores >= 2`` and the speedup gate binds only
  when it is true — a single-core host records the measurement, and CI's
  multi-core runners enforce the floor.

* ``kind="convergence"`` — the quality half of the claim: per layer, the
  final reconstruction error of the pipelined run must land within a
  stated relative tolerance of the greedy run at the same seed.  Layer 0
  is bit-identical by construction (same generator layout); upper layers
  train on the evolving representation and may differ, but not by much.
  These rows gate on every machine — convergence does not need cores.

``benchmarks/bench.py pipeline`` runs it and applies the gates
(:data:`repro.bench.benches.PIPELINE`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError

SCHEMA_ID = "repro.bench_pipeline/v1"

#: Relative tolerance on each layer's final reconstruction error,
#: pipelined vs greedy.  Upper layers legitimately differ (they train on
#: the evolving representation), but a healthy pipeline converges to the
#: same neighbourhood — measured rel diffs sit under 1e-2 at both scales.
CONV_TOL = 0.1

#: (n examples, n_visible, layer widths, epochs, batch) — the two layers
#: are cost-balanced (256·192 == 192·256 multiply-accumulates per row)
#: so the pipeline's stage overlap is not bottlenecked by one stage.
QUICK_SHAPE = dict(n=768, n_visible=256, layers=(192, 256), epochs=6, batch=128)
PAPER_SHAPE = dict(n=2048, n_visible=512, layers=(384, 512), epochs=8, batch=128)


def _specs(shape: Dict):
    from repro.nn.stacked import LayerSpec

    return [
        LayerSpec(width, epochs=shape["epochs"], batch_size=shape["batch"])
        for width in shape["layers"]
    ]


def _pretrain_s(shape: Dict, x: np.ndarray, seed: int, trials: int, **kwargs):
    """Min-of-trials wall time of a full pretrain; returns (seconds, stack)."""
    from repro.nn.stacked import StackedAutoencoder

    best, stack = float("inf"), None
    for _ in range(trials):
        stack = StackedAutoencoder(shape["n_visible"], _specs(shape), seed=seed)
        t0 = time.perf_counter()
        stack.pretrain(x, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, stack


def run_pipeline_bench(
    quick: bool = True,
    seed: int = 0,
    trials: int = 2,
    tol: float = CONV_TOL,
    shape: Optional[Dict] = None,
) -> Dict:
    """Run both strategies end-to-end and return the versioned report."""
    from repro.runtime.freethreading import free_threaded_build, gil_enabled
    from repro.runtime.threads import available_cores

    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if shape is None:
        shape = QUICK_SHAPE if quick else PAPER_SHAPE
    rng = np.random.default_rng(seed)
    x = rng.random((shape["n"], shape["n_visible"]))

    greedy_s, greedy = _pretrain_s(shape, x, seed, trials)
    pipelined_s, pipelined = _pretrain_s(
        shape, x, seed, trials, strategy="pipelined"
    )

    n_cores = available_cores()
    n_layers = len(shape["layers"])
    epochs = shape["epochs"]
    rows: List[Dict] = [
        {
            "kind": "walltime",
            "model": "sae",
            "sync": "synchronized",
            "n_examples": shape["n"],
            "n_visible": shape["n_visible"],
            "layers": list(shape["layers"]),
            "epochs": epochs,
            "batch": shape["batch"],
            "greedy_s": round(greedy_s, 4),
            "pipelined_s": round(pipelined_s, 4),
            # ratio of the rounded fields so the report is self-consistent
            "speedup": round(round(greedy_s, 4) / round(pipelined_s, 4), 4),
            "ideal_speedup": round(n_layers * epochs / (epochs + n_layers - 1), 4),
            "expected_scaling": n_cores >= 2,
        }
    ]
    for k in range(n_layers):
        g = float(greedy.layer_errors[k][-1])
        p = float(pipelined.layer_errors[k][-1])
        rel = abs(p - g) / abs(g) if g != 0.0 else abs(p)
        rows.append(
            {
                "kind": "convergence",
                "layer": k,
                "greedy_loss": round(g, 6),
                "pipelined_loss": round(p, 6),
                "rel_diff": round(rel, 6),
                "tol": tol,
                "within_tol": rel <= tol,
            }
        )
    return {
        "schema": SCHEMA_ID,
        "n_cores": n_cores,
        "quick": bool(quick),
        "seed": seed,
        "trials": trials,
        "gil_enabled": gil_enabled(),
        "free_threaded": free_threaded_build(),
        "rows": rows,
    }

