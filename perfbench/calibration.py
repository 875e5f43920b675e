"""Host-speed calibration for the benchmark's timings.

The benchmark shares a small VM with other tenants, and the speed of its core
moves by up to half within seconds and between states that last minutes.  No
choice of pass or percentile removes that from a wall time, so every timed
request is bracketed by runs of a fixed reference kernel, and its latency is
reported in reference seconds: wall seconds times the kernel's reference time
over its time measured around the request.  A request that does less work
reads less; a host that runs everything slower for a while does not.

A kernel is a dense eigensolve of a fixed matrix on one BLAS thread.  Slow
states do not slow all code alike: small cache-resident work slowed by up to
1.7x while a 1024 x 1024 eigensolve slowed by about 1.1x.  So each workload is
calibrated with the kernel that tracked its own requests best (see
``workloads.KERNELS``).  No kernel depends on the workload seed or on traplab.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Captured at import, before any tracer wraps numpy.linalg.
_eig = np.linalg.eig


class Kernel:
    """A dense eigensolve of a fixed ``n`` x ``n`` matrix.

    ``reference_s`` is its time on the host this benchmark was defined on
    (2-vCPU Intel Xeon VM, numpy 2.4.6 with scipy-openblas 0.3.31) in its fast
    state, the 5th percentile of its samples there, so that reference seconds
    read close to wall seconds on that host.
    """

    def __init__(self, n: int, repeats: int, reference_s: float):
        self.matrix = np.random.default_rng(20240613).standard_normal((n, n))
        self.repeats = repeats
        self.reference_s = reference_s

    def seconds(self) -> float:
        """Median seconds of ``repeats`` runs: it follows the host's speed over
        the next tens of milliseconds, where the fastest run follows brief
        lulls and tracked multi-second requests worse."""
        times = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            _eig(self.matrix)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


# For Python-bound work with small numpy calls: set-up, acceptance-sweep and
# point-queries.  About 6 ms a run.
SMALL = Kernel(96, 5, 0.0055)
# For work dominated by large dense eigensolves: mots-spectrum.  About 60 ms a
# run; 3 runs bracket requests that take seconds.
MEDIUM = Kernel(256, 3, 0.043)
