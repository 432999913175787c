"""Host-speed calibration of timings taken on a shared, noisy host.

On a host shared with other tenants the same pass can take from 0.7x to
1.3x its usual time, in phases lasting from seconds to minutes, so raw
times of separate runs spread more than any useful regression bound.
``HostClock`` tracks the host's speed during the work it times: a fixed
exact-rational probe, independent of lieideal, runs every ``PERIOD_S`` of
wall time from a ``SIGALRM`` handler.  The probe's own time is subtracted
from the latency it interrupts, and ``scale`` turns the probe times of one
pass into a factor that converts that pass's latencies to seconds on a host
where the probe takes ``NOMINAL_PROBE_S``.  The factor uses the mean probe
time, not the median: a slowdown that hits a few probes hard, such as the
hypervisor descheduling the vCPU, hits the timed work in the same proportion.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.2
# the probe's mean time on the shared 2-core 2.0 GHz Xeon VM the baseline
# was measured on, so calibrated times read close to that host's wall times
NOMINAL_PROBE_S = 0.0036

_MATRIX = tuple(
    tuple(Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 5) for j in range(7)) for i in range(7)
)


def probe() -> int:
    """Rank of a fixed 7x7 rational matrix by Gauss-Jordan elimination, twice."""
    for _ in range(2):
        rows = [list(r) for r in _MATRIX]
        rank = 0
        for col in range(len(rows)):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = 1 / rows[rank][col]
            rows[rank] = [x * inv for x in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
            rank += 1
    return rank


class HostClock:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # total probe time, to subtract from timed regions
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first: int) -> float:
        """Factor for the latencies timed since ``samples[first]`` was due."""
        if not self.samples:
            self._tick()
        window = self.samples[first:] or self.samples
        return NOMINAL_PROBE_S / statistics.fmean(window)
