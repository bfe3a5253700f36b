"""Speed of the host's CPU, sampled between ops, to correct timings for it.

On a shared machine the CPU's speed for one client swings by up to 1.7x
within a minute: the same op, with one BLAS thread, took 78 ms and then
134 ms, and its CPU time tracked its wall time, so the process was not
waiting for a core but running slower.  No statistic over wall times
steadies that.  So the benchmark times a fixed reference kernel, which uses
no ncdist code, before the first op and after every op, and scales the op's
time by ``NOMINAL_S / kernel time`` (the median of the samples around the
op): what the op would take at the speed where the kernel takes
``NOMINAL_S``.  A change to ncdist cannot move the kernel, so it moves the
scaled times as it moves the wall times at a steady speed.

The kernel mixes the kinds of work ncdist ops do: interpreted Python (a
plain loop), small dense LAPACK calls and one larger one (Hermitian
eigensolves at dimension 48 and 160).
"""

from __future__ import annotations

import statistics
import time

# kernel time at the reference speed: its median over 200 samples on a
# 2-core x86_64 VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread)
NOMINAL_S = 0.0155

_LOOP = 25_000
_SMALL_SOLVES, _SMALL_DIM = 6, 48
_LARGE_DIM = 160


class SpeedProbe:
    """Times the reference kernel, one sample per call."""

    def __init__(self):
        import numpy as np  # after the caller has pinned the BLAS threads

        self._eigh = np.linalg.eigh
        rng = np.random.default_rng(0)
        self._small, self._large = (
            a + a.conj().T
            for a in (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                      for n in (_SMALL_DIM, _LARGE_DIM)))
        self.sample()  # first call pays for LAPACK's lazy set-up

    def sample(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc += i * i % 7
        for _ in range(_SMALL_SOLVES):
            self._eigh(self._small)
        self._eigh(self._large)
        return time.perf_counter() - t0


def scales(samples: list[float], half_width: int = 4) -> list[float]:
    """Scale of each interval between consecutive kernel samples: NOMINAL_S
    over the median of the ``2 * half_width`` samples around the interval.
    One sample is noisy; the median of its neighbours follows the host's
    speed with less of that noise."""
    return [NOMINAL_S / statistics.median(samples[max(0, i + 1 - half_width):i + 1 + half_width])
            for i in range(len(samples) - 1)]
