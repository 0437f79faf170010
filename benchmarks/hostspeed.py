"""Host speed reference: converts measured times to seconds at nominal speed.

The benchmark host is a shared VM whose speed is bimodal: for seconds to
minutes at a time the same single-threaded Python code runs about 1.8x
slower (within one ten-run set: chain 1.25-1.48 s against 1.9-2.45 s, map
38-42k against 21-22k cells/s).  No run length or statistic hides a state
that outlasts a run, so every timed step is bracketed by a fixed reference
kernel and its time is scaled by ``NOMINAL_REF_S / reference time``.  The
kernel slows by the same factor as the program's code (ratios held to 2-3%
across a slow spell), it belongs to the benchmark, not to the program, and
so it is identical on both sides of any comparison.  A step whose two
brackets disagree saw the speed change and is set aside when steady steps
of the same kind exist.  Raw times and factors stay in the run record.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# The reference kernel's time at the speed the reported seconds assume
# (about the fast state of the 2-vCPU host the bounds were set on).
NOMINAL_REF_S = 1.0e-3
REF_CALLS = 7
# Brackets further apart than this mean the host changed speed mid-step.
STEADY_TOL = 0.15


def reference_kernel() -> float:
    """Fixed work in the program's style: small array ops, calls, small objects."""
    x = np.linspace(0.0, 1.0, 301)
    weights = np.ones((3, 301))
    acc = 0.0
    for i in range(140):
        y = np.exp(-x * (i % 7))
        acc += float((weights @ y).sum())
        acc += math.hypot(i, acc % 3.0)
        acc += len(repr({"i": i, "acc": acc}))
    return acc


def reference_times() -> list[float]:
    """Times of ``REF_CALLS`` back-to-back reference kernels, in seconds."""
    times = []
    for _ in range(REF_CALLS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return times


@dataclass
class Step:
    name: str
    raw_s: float
    factor: float   # nominal seconds per measured second
    steady: bool

    @property
    def nominal_s(self) -> float:
        return self.raw_s * self.factor


class HostClock:
    """Times named steps, each bracketed by reference-kernel samples."""

    def __init__(self):
        self._last = reference_times()
        self.steps: list[Step] = []

    @contextlib.contextmanager
    def step(self, name: str):
        start = time.perf_counter()
        yield
        raw = time.perf_counter() - start
        before, after = self._last, reference_times()
        self._last = after
        b, a = statistics.median(before), statistics.median(after)
        self.steps.append(Step(name, raw, NOMINAL_REF_S / statistics.median(before + after),
                               abs(a - b) <= STEADY_TOL * min(a, b)))


def nominal_median(steps: list[Step]) -> float:
    """Median nominal time of like steps, from the steady ones if there are any."""
    steady = [s for s in steps if s.steady] or steps
    return statistics.median(s.nominal_s for s in steady)
