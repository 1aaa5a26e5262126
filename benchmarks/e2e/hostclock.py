"""Wall-clock latencies rescaled to a reference host speed.

The benchmark runs on shared virtual machines whose speed moves by up to
1.6x in episodes of seconds to a minute.  Pooling cannot average that
out of a 25 s run, and the guest cannot see it (CPU time inflates with
wall time).  :class:`HostClock` therefore interleaves a calibration
kernel between latency units: one SuperLU factorization of a fixed
synthetic 3-D conduction matrix, the same kind of work as the program's
hot path but independent of the program's code.  Calibration time is
left out of the units, and each unit is rescaled by ``REFERENCE_S``
over the mean of the calibrations bracketing it.  A latency then reads
as it would on a host that factors the calibration matrix in
``REFERENCE_S``; a change to the program moves it exactly as it moves
the wall clock.

On a 2-vCPU Xeon VM, calibrating once per 0.5 s control interval held
the online workload's median interval at 70.0-73.1 ms while its raw
wall moved between 69 and 119 ms.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

#: Calibration factorization time of the reference host, s (a quiet
#: 2-vCPU Xeon VM, where the 12x12 thermal operator factors in ~6.5 ms).
REFERENCE_S = 7.0e-3

#: Calibration grid: 1296 unknowns, like the 1260-node thermal network
#: of the 12x12 package model.
_GRID = (12, 12, 9)


def calibration_matrix() -> sparse.csc_matrix:
    """7-point 3-D conduction matrix with a small diagonal shift."""
    eye = sparse.identity

    def second_difference(m: int):
        ones = np.ones(m - 1)
        return sparse.diags([-ones, np.full(m, 2.0), -ones], [-1, 0, 1])

    nx, ny, nz = _GRID
    matrix = (sparse.kron(sparse.kron(second_difference(nx), eye(ny)),
                          eye(nz))
              + sparse.kron(sparse.kron(eye(nx), second_difference(ny)),
                            eye(nz))
              + sparse.kron(sparse.kron(eye(nx), eye(ny)),
                            second_difference(nz))
              + 0.01 * eye(nx * ny * nz))
    return matrix.tocsc()


class HostClock:
    """Times latency units in blocks of ``every``, calibrating between.

    Use per item: :meth:`start`, one :meth:`unit_done` per latency unit,
    then :meth:`latencies`.  Each calibration is the median of
    ``samples`` factorizations.
    """

    def __init__(self, every: int = 1, samples: int = 1):
        self._matrix = calibration_matrix()
        self._every = every
        self._samples = samples
        #: Seconds spent calibrating, over the clock's life.
        self.calibration_s = 0.0
        #: Every calibration reading, over the clock's life.
        self.readings: List[float] = []
        self._marks: List[float] = []
        self._blocks: List[List[float]] = []
        self._last = 0.0

    def calibrate(self) -> float:
        """Seconds of one calibration factorization, now."""
        started = time.perf_counter()
        splu(self._matrix)
        seconds = time.perf_counter() - started
        self.calibration_s += seconds
        self.readings.append(seconds)
        return seconds

    def scale_now(self, samples: int = 3) -> float:
        """Rescaling factor of the host's current speed."""
        return REFERENCE_S / statistics.median(
            self.calibrate() for _ in range(samples))

    def start(self) -> None:
        """Begin an item's units (calibrates first)."""
        self._marks = []
        self._blocks = []
        self._boundary()

    def unit_done(self) -> None:
        """One latency unit ended now."""
        now = time.perf_counter()
        self._blocks[-1].append(now - self._last)
        self._last = now
        if len(self._blocks[-1]) >= self._every:
            self._boundary()

    def latencies(self) -> List[float]:
        """The item's units in order, rescaled to the reference host."""
        if self._blocks[-1]:
            self._boundary()  # bracket the last, partial block
        rescaled = []
        for index, block in enumerate(self._blocks[:-1]):
            scale = 2.0 * REFERENCE_S \
                / (self._marks[index] + self._marks[index + 1])
            rescaled.extend(seconds * scale for seconds in block)
        return rescaled

    def _boundary(self) -> None:
        self._marks.append(statistics.median(
            self.calibrate() for _ in range(self._samples)))
        self._blocks.append([])
        self._last = time.perf_counter()
