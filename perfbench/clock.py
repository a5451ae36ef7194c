"""Step timer that measures time against a fixed probe run next to the step.

On a shared host the same work can run up to twice as slowly for stretches
of tens of seconds while other tenants share the core, and the slowdown does
not show as stolen or lost CPU time inside the machine. So :func:`timed`
runs a fixed probe just before and just after each step, and a step's time
is its wall time divided by the probe's time around it and multiplied by
:data:`PROBE_REF_S`, the probe's time on a quiet core. On a quiet core the
two are the same; on a busy one the step and the probe slow down together.
The probe does not use speclab, so a change to speclab cannot change it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

#: The probe's best time on a quiet core of the 2-core x86-64 host the
#: benchmark was tuned on (Python 3.11, NumPy 2.4); it converts probe units
#: back to seconds.
PROBE_REF_S = 0.5e-3

#: Probe repetitions at each end of a step; their median is the host's speed.
PROBE_REPEATS = 3

_ROWS = {(i, j): np.full(16, 1 / 16) for i in range(17) for j in range(17)}
_RNG = np.random.default_rng(0)


def probe_work() -> float:
    """About half a millisecond of the interpreter and small-array work the
    decode loop does: tuple-keyed lookups, small NumPy operations, RNG draws."""
    total = 0.0
    ctx = [0, 1]
    for i in range(120):
        row = _ROWS[(ctx[-2], ctx[-1])]
        total += float(np.maximum(row - 0.01, 0.0).sum()) + float(_RNG.random())
        ctx.append(int(np.argmax(row)) ^ (i % 16))
    return total


def probe() -> float:
    """Median time of :data:`PROBE_REPEATS` probe runs."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        probe_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass(frozen=True)
class Sample:
    """One timed step: its wall time and the probe's time around it."""

    wall_s: float
    probe_s: float

    @property
    def seconds(self) -> float:
        """The step's time at the probe's reference speed."""
        return self.wall_s * PROBE_REF_S / self.probe_s


def timed(fn, *args, **kwargs) -> tuple[object, Sample]:
    """Call ``fn`` between two probes; return its result and its sample."""
    before = probe()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    after = probe()
    return result, Sample(wall, (before + after) / 2)
