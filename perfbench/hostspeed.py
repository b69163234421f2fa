"""Probes that gauge how fast a shared host runs, to scale timings by.

On a shared host the same Python code runs up to twice as slow in some
spells as in others, for seconds to minutes, most likely because other
tenants contend for caches and memory.  A probe is a fixed piece of work
that never changes with the package; timed next to each operation, it
shows how fast the host ran just then.  Each timing metric is scaled by
the probe's NOMINAL_S over its measured time, so a change to the package
moves the scaled figure in full and a slow spell mostly does not.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time


class DictProbe:
    """Builds a dict of tuple keys from lookups in another dict, in this
    process.  It slows roughly in step with the package's own code."""

    NOMINAL_S = 2.0e-3  # about its time in a quiet spell on a 2-vCPU Xeon VM
    WINDOW = 3  # ops on each side whose probes set an op's scale

    def __init__(self):
        self.table = {i: i for i in range(50000)}

    def __call__(self) -> float:
        table = self.table
        t0 = time.perf_counter()
        d = {}
        for i in range(0, 50000, 5):
            d[(i, i + 1)] = table[i]
        return time.perf_counter() - t0

    def scale(self, probes: list) -> list:
        """Each op's factor: NOMINAL_S over the median probe time of the
        ops within WINDOW of it, which damps the jitter of one probe."""
        w = self.WINDOW
        return [self.NOMINAL_S / statistics.median(probes[max(0, k - w):k + w + 1]) for k in range(len(probes))]


class StartupProbe(DictProbe):
    """Starts a bare interpreter (``python -c pass``) as a child and waits
    for it.  For operations that are child processes: those may run on
    another CPU than this process, and a child's start-up slows with them
    where the in-process probe does not."""

    NOMINAL_S = 48e-3  # about its time in a quiet spell on a 2-vCPU Xeon VM

    def __init__(self, env: dict):
        self.env = env

    def __call__(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, capture_output=True, check=True, timeout=60)
        return time.perf_counter() - t0
