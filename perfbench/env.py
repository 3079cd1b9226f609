"""Process set-up that must happen before NumPy loads.

BLAS pools are pinned to one thread per process: with OpenBLAS at its
default thread count on a 2-core host the fused training kernels run
4-18x slower and repeat runs spread by 15-40% (see ``NOTES.md``).  The
program is imported from ``src/`` of the checkout this file lives in.
"""

from __future__ import annotations

import os
import platform
import sys

BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def prepare() -> None:
    """Pin BLAS to one thread and put the checkout's ``src`` on the path."""
    if "numpy" not in sys.modules:
        for var in BLAS_ENV_VARS:
            os.environ[var] = "1"
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def describe() -> dict:
    """The execution regime every report records."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    except (TypeError, AttributeError):  # NumPy without dict config
        pass
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "gil_enabled": bool(gil),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
