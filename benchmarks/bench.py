#!/usr/bin/env python
"""Run, gate and fence one committed bench (see ``repro.bench.benches``).

    PYTHONPATH=src python benchmarks/bench.py NAME [--quick] [--seed N]
        [--out PATH] [--validate PATH] [--baseline BENCH_NAME.json]
"""

import os
import sys

if __name__ == "__main__":
    # hotpath and parallel time single-threaded kernels and workers: pin
    # the BLAS pools before NumPy loads.  The pipeline bench is unpinned;
    # docs/pipeline.md records what pinning does to it.
    if {"hotpath", "parallel"} & set(sys.argv[1:]):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, "1")
    from repro.bench.benches import main

    sys.exit(main())
