"""Machine-speed probe.

On a shared virtual machine the same work can take half as long again for
tens of seconds at a time. The benchmark therefore times a fixed pure-Python
kernel (a tree walk over small frozen dataclasses, like rblam's own
evaluators, but sharing no code with rblam) every fraction of a second, and
refers every measured time to the speed at which the kernel takes
NOMINAL_S: a time measured over [start, end] is multiplied by NOMINAL_S
over the median of the probes taken from SPAN_S before it to SPAN_S after
it. Raw times are kept in the run record as well.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

NOMINAL_S = 0.004
EVERY_S = 0.2
SPAN_S = 0.3


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _tree(depth: int, i: int):
    if depth == 0:
        return i % 7
    return _Node("+" if depth % 2 else "*", _tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


def _walk(t) -> int:
    match t:
        case _Node("+", left, right):
            return (_walk(left) + _walk(right)) % 1009
        case _Node(_, left, right):
            return (_walk(left) * _walk(right)) % 1009
    return t


_TREE = _tree(11, 1)


def kernel() -> int:
    return _walk(_TREE)


class Speed:
    """Probes the machine, at most every EVERY_S seconds when asked by
    `maybe_probe`, and keeps each probe's start time and duration."""

    def __init__(self, clock=time.perf_counter, kernel=kernel):
        self.clock = clock
        self.kernel = kernel
        self.samples: list[float] = []
        self.times: list[float] = []

    def probe(self) -> float:
        """Run the kernel once; returns the seconds it took."""
        t0 = self.clock()
        self.kernel()
        dt = self.clock() - t0
        self.samples.append(dt)
        self.times.append(t0)
        return dt

    def maybe_probe(self) -> float:
        """Probe if the last probe is older than EVERY_S; returns the
        seconds spent probing."""
        if self.times and self.clock() - self.times[-1] < EVERY_S:
            return 0.0
        return self.probe()


def factor(times: list[float], samples: list[float], start: float, end: float) -> float:
    """The factor that refers a time measured over [start, end] to nominal
    speed, from the probes within SPAN_S of it (else the next one, else the
    last one). `times` is sorted."""
    lo = bisect.bisect_left(times, start - SPAN_S)
    hi = bisect.bisect_right(times, end + SPAN_S)
    window = samples[lo:hi] or [samples[min(lo, len(samples) - 1)]]
    return NOMINAL_S / statistics.median(window)
