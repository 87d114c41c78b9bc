"""Machine-speed samples taken while an untraced workload runs.

On a shared box the same pure-Python computation can take 1.8 times as long
from one minute to the next.  So every INTERVAL_S a signal handler times a
fixed reference kernel, and a timing is converted to seconds at reference
speed: measured seconds * REFERENCE_S / (median kernel time within WINDOW_S
of that interval).  The kernel's own time is kept out of the workload's clock.
"""

from __future__ import annotations

import gc
import signal
from dataclasses import dataclass
from fractions import Fraction
from statistics import median
from time import perf_counter

REFERENCE_S = 0.0098  # the kernel's time at reference speed, as sampled on a 2-core Xeon VM
INTERVAL_S = 0.25
WINDOW_S = 1.0  # samples this close to an interval describe its speed


@dataclass(frozen=True)
class _Key:
    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("negative key")


def kernel() -> dict:
    """A sparse product of two 36-term dicts: dataclass keys, Fractions, a sign rule.

    It has the shape of quatbraid's exact algebra products but shares no code
    with the program, so no change to the program can move it.
    """
    left = {_Key(i, (3 * i) & 31): Fraction(i + 1, i + 2) for i in range(36)}
    right = {_Key((5 * j) & 31, j): Fraction(j + 2, 2 * j + 3) for j in range(36)}
    acc = {}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            key = _Key(k1.a ^ k2.a, k1.b ^ k2.b)
            c = c1 * c2
            if (k1.b & k2.a).bit_count() & 1:
                c = -c
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
    return acc


class SpeedSampler:
    """Context manager sampling the kernel's time on SIGALRM."""

    def __init__(self):
        self.spent = 0.0
        self.samples: list[tuple[float, float]] = []  # (workload clock, kernel seconds)
        self._previous = None

    def clock(self) -> float:
        """perf_counter minus the time spent in the kernel so far."""
        return perf_counter() - self.spent

    def _sample(self, *_):
        # With the collector off, the kernel's time does not depend on how
        # many objects the workload holds.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append((start - self.spent, took))
        self.spent += took

    def __enter__(self) -> SpeedSampler:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, start: float, end: float) -> float:
        """end - start on the workload clock, in seconds at reference speed."""
        near = [took for t, took in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return (end - start) * REFERENCE_S / median(near)
