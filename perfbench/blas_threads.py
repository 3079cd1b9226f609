#!/usr/bin/env python3
"""Time the training hot paths at a chosen BLAS thread count.

    python3 perfbench/blas_threads.py --blas-threads 1
    python3 perfbench/blas_threads.py --blas-threads 2

Reproduces the open finding in ``perfbench/NOTES.md``: with OpenBLAS at
its default thread count (2 on a 2-core host) the fused training kernels
run several times slower than with one thread.  Prints one line per case
and repeat; compare the two invocations.  The benchmark itself always
pins one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blas-threads", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    from repro import (DeepBeliefNetwork, LayerSpec, StackedAutoencoder, digit_dataset,
                       extract_patches, make_natural_images, normalize_patches,
                       whiten_patches)
    from repro.runtime.procexec import make_engine

    patches = normalize_patches(whiten_patches(extract_patches(
        make_natural_images(10, size=128, seed=0), 24, 3000, seed=1)))
    digits, _ = digit_dataset(2400, size=16, seed=0)

    def sae():
        StackedAutoencoder(576, [LayerSpec(400, 1.0, 2, 100), LayerSpec(200, 1.0, 2, 100)],
                           seed=2).pretrain(patches)

    def dbn(engine=None):
        DeepBeliefNetwork(256, [LayerSpec(128, 0.1, 3, 32), LayerSpec(64, 0.1, 3, 32)],
                          seed=3).pretrain(digits, engine=engine)

    def dbn_thread():
        with make_engine("thread", n_workers=2, blas_threads=None, seed=0) as engine:
            dbn(engine)

    for label, fn in (("sae 576-400-200", sae), ("serial dbn 256-128-64", dbn),
                      ("thread engine W=2 dbn", dbn_thread)):
        for k in range(args.repeats):
            t0 = time.perf_counter()
            fn()
            print(f"blas_threads={args.blas_threads} {label} repeat {k}: "
                  f"{time.perf_counter() - t0:.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
