"""Host-speed reference: a fixed piece of work timed between operations.

The host shares its physical cores with other machines' work.  Its speed
changes by up to 1.8x, in spells from seconds to minutes, and the process's
CPU time slows with its wall time, so no choice of clock or statistic inside
a run removes the change (see NOTES.md, "Measurement noise").  The benchmark
therefore times this reference between operations and scales each latency
by ``NOMINAL_S / reference``: the latency the operation would have had when
the reference took ``NOMINAL_S``.  The reference is benchmark code and
never calls exchopt, so a change to exchopt moves the scaled figures as much
as the raw ones.

The reference is four small kernels of the kinds exchopt spends its time
in, and its time is their geometric mean, so that no single kind sets it:
pure-Python arithmetic, complex exponentials over a numpy array (the
Fourier integrands of ``heston``), Philox normal draws (``simulation``) and
a loop of small elementwise numpy updates (the path update of
``simulation``).  One sample takes about 12 ms on the baseline machine.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Geometric-mean time of one sample on the baseline machine (2 vCPUs, Intel
# Xeon, Python 3.11.7, numpy 2.4.6) in a quiet spell: the 10th percentile of
# 400 samples.  Only the scale of the adjusted figures depends on it.
NOMINAL_S = 2.5e-3


class HostReference:
    def __init__(self):
        self._x = np.linspace(0.0, 10.0, 20_000)
        self._rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
        self._a = np.ones(4096)
        self._b = np.full(4096, 0.5)
        self.sample()  # first calls fault pages in and fill caches

    def _python(self) -> None:
        total = 0
        for i in range(40_000):
            total += i * i % 7

    def _complex(self) -> None:
        for _ in range(10):
            np.exp(1j * 1.3 * self._x).sum()

    def _normals(self) -> None:
        self._rng.standard_normal((8, 3, 4096))

    def _update(self) -> None:
        v = self._a.copy()
        for _ in range(100):
            w = np.maximum(v, 0.0)
            v = v + 0.1 * (self._b - w) + 0.01 * np.sqrt(w) * self._b

    def sample(self) -> float:
        """Seconds: geometric mean of the four kernels' times."""
        logs = 0.0
        for kernel in (self._python, self._complex, self._normals, self._update):
            start = time.perf_counter()
            kernel()
            logs += math.log(time.perf_counter() - start)
        return math.exp(logs / 4)
