"""Host-speed correction for rates and compute times.

The benchmark runs on shared hosts whose speed drifts: on a 2-core
container a fixed kernel (this one) took anywhere from 300 to 480 ms
over 40 seconds, with process CPU time tracking wall time, so the drift
is a slower core rather than lost time slices.  Every run therefore
times :meth:`HostSpeed.sample` - a fixed GEMM plus an interpreter loop,
independent of the program and of the seed - between its measurement
blocks, and scales compute-bound results to a host that runs the kernel
in :data:`REFERENCE_S`:

    corrected_rate = raw_rate * kernel_s / REFERENCE_S
    corrected_time = raw_time * REFERENCE_S / kernel_s

Raw values are printed beside the corrected ones.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import List

import numpy as np

#: kernel time of the reference host (a constant: both sides of any
#: comparison scale by the same number)
REFERENCE_S = 0.016

clock = time.perf_counter


class HostSpeed:
    """Times the reference kernel; ``speed`` > 1 means a faster host."""

    def __init__(self, gemms: int = 10, interp_rounds: int = 1500):
        self.gemms = gemms
        self.interp_rounds = interp_rounds
        rng = np.random.default_rng(20140519)
        self._a = rng.random((100, 576))
        self._w = rng.random((576, 400))
        self._payload = rng.random(256).tobytes()
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time the kernel once: by default half GEMM, half interpreter
        work (hashing, dict updates, small-array calls), so it slows down
        with the host the way both the training kernels and the serving
        path do; a GEMM-bound workload passes ``interp_rounds=0``."""
        t0 = clock()
        for _ in range(self.gemms):
            np.dot(self._a, self._w)
        table: dict = {}
        row = self._a[0, :4]
        for i in range(self.interp_rounds):
            digest = hashlib.blake2b(self._payload, digest_size=8).digest()
            table[digest[i & 7]] = table.get(digest[i & 7], 0) + i
            row.sum()
        elapsed = clock() - t0
        self.samples.append(elapsed)
        return elapsed

    def speed(self, samples=None) -> float:
        """Reference kernel time over the median measured kernel time."""
        return REFERENCE_S / statistics.median(samples or self.samples)
