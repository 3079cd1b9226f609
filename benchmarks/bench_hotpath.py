#!/usr/bin/env python
"""Wall-clock hot-path benchmark: reference vs fused training kernels.

    PYTHONPATH=src python benchmarks/bench_hotpath.py                # paper scale
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick        # CI smoke
    PYTHONPATH=src python benchmarks/bench_hotpath.py --out BENCH_hotpath.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --validate BENCH_hotpath.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick \
        --baseline BENCH_hotpath.json --max-regression 0.25

Exit status: 0 on success, 1 on schema violation or baseline regression.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin the BLAS pools before numpy loads, as bench_parallel.py does.  The
# quick rows are 64-row GEMMs: on a 2-core host OpenBLAS's default
# two-thread pool swamps the element-wise work the speedup ratio compares
# (SAE measured ~1.0x against its 1.24x floor; ~1.8x pinned).
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small shapes + fewer trials (CI smoke run)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run quick AND paper shapes (used to regenerate the baseline)",
    )
    parser.add_argument("--out", metavar="PATH", help="write the JSON report")
    parser.add_argument(
        "--validate",
        metavar="PATH",
        help="validate an existing report against the schema and exit",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="committed baseline report to compare speedup ratios against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional speedup regression vs baseline (default 0.25)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.bench.hotpath import (
        PAPER_SHAPES,
        QUICK_SHAPES,
        compare_to_baseline,
        load_report,
        run_hotpath_bench,
        validate_report,
        write_report,
    )
    from repro.errors import ConfigurationError

    if args.validate:
        try:
            validate_report(load_report(args.validate))
        except (ConfigurationError, ValueError) as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 1
        print(f"{args.validate}: schema OK")
        return 0

    if args.full:
        shapes = tuple(QUICK_SHAPES) + tuple(PAPER_SHAPES)
        trials, inner = 8, 4
    elif args.quick:
        shapes, trials, inner = QUICK_SHAPES, 5, 3
    else:
        shapes, trials, inner = PAPER_SHAPES, 8, 4

    report = run_hotpath_bench(shapes, trials=trials, inner=inner, seed=args.seed)
    header = f"{'model':<6} {'shape':<18} {'ref ms':>9} {'fused ms':>9} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for row in report["rows"]:
        shape = f"({row['batch']},{row['n_visible']}->{row['n_hidden']})"
        print(
            f"{row['model']:<6} {shape:<18} {row['ref_ms']:>9.1f} "
            f"{row['fused_ms']:>9.1f} {row['speedup']:>7.2f}x"
        )

    if args.out:
        print(f"wrote {write_report(report, args.out)}")

    if args.baseline:
        failures = compare_to_baseline(
            report, load_report(args.baseline), max_regression=args.max_regression
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"no speedup regression vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
