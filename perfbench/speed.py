"""Machine-speed probe for the small-model workload.

The machine that measures is shared, and its speed drifts by a third or
more over minutes.  Small-model commands, which are mostly interpreter work
and LAPACK calls on matrices of up to 256 rows, slow down with it almost in
step, so a ``sweep-small`` wall time says as much about the neighbours as
about ``meq``.  A ``sweep-small`` run therefore also times this probe: a
fixed mix of the same kind of work that never touches ``meq``, run between
commands at intervals.  Its times, set-up aside, are reported at the
probe's reference speed:

    reported = measured * REFERENCE_SECONDS / mean probe time of the run

A change to ``meq`` moves the reported times in full, because the probe
does not run its code.  A slow or fast stretch of the machine moves the
probe too and cancels.  The measured times and the speed factor are
printed alongside.  The cascade workloads, dominated by large dense and
sparse factorizations whose speed did not follow this or any other small
probe, report their times as measured.  See perfbench/README.md.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# Probe time on a fast stretch of the machine the benchmark was calibrated
# on (2-core Xeon VM, one BLAS thread); its slow stretches read up to 1.6
# times this.  Fixed: changing it rescales every time reported through it.
REFERENCE_SECONDS = 0.025

# One probe is due for every this many seconds of a run, and the probes
# that are due run at the next gap between commands, so the mean probe time
# weighs each stretch of the run by its length.
INTERVAL_SECONDS = 0.4


def _inputs():
    rng = np.random.default_rng(20150420)
    small = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             for n in (4, 9, 16, 36)]
    return small, rng.standard_normal((160, 160))


_SMALL, _MEDIUM = _inputs()


def probe_once() -> float:
    """Time one fixed mix of small-model work; returns seconds."""
    start = time.perf_counter()
    for _ in range(4):
        for matrix in _SMALL:
            np.linalg.eig(matrix)
            scipy.linalg.expm(matrix * 0.1)
            np.linalg.solve(matrix, matrix[:, 0])
    np.linalg.eigvals(_MEDIUM)
    table: dict[int, float] = {}
    for i in range(8000):
        table[i % 97] = table.get(i % 97, 0.0) + float(i) * 0.5
    return time.perf_counter() - start


class SpeedProbe:
    """The probe samples of one run and the time they took."""

    def __init__(self):
        probe_once()  # the first call in a process pays one-time costs
        self.samples: list[float] = []
        self.spent = 0.0
        self._last_end = time.perf_counter()

    def take(self, count: int = 1) -> float:
        """Run the probe ``count`` times; returns the seconds spent."""
        start = time.perf_counter()
        self.samples += [probe_once() for _ in range(count)]
        self._last_end = time.perf_counter()
        self.spent += self._last_end - start
        return self._last_end - start

    def between_commands(self) -> float:
        """Run the probes that are due; returns the seconds spent on them."""
        due = int((time.perf_counter() - self._last_end) / INTERVAL_SECONDS)
        return self.take(due) if due else 0.0

    def factor(self) -> float:
        """Mean probe time over REFERENCE_SECONDS: above 1 on a slow stretch."""
        return statistics.fmean(self.samples) / REFERENCE_SECONDS
