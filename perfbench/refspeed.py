"""Reference-speed kernels: how much slower than nominal the machine runs now.

Times are reported at reference speed.  The machine drifts between a fast
state and one up to ~1.7x slower, flickering within a second and drifting
over minutes, and its memory bandwidth drifts more still; every timing moves
with it.  So every timed span is scaled by the speed of two fixed kernels
timed around it: a small one (pure Python and small numpy operations, like
the library's scalar code) and a memory-bound one (numpy over a 2 MiB array,
like the quadrature grids and Monte Carlo blocks).  The kernels do not touch
twocurve, so a change to the library moves the scaled figures as much as the
raw ones, while the machine's drift cancels.  Every span, short or long, is
divided by the same factor: the combined slowdown (the geometric mean of the
two kernels' slowdowns) timed right before it and right after it, again as a
geometric mean.  Set-up, timed from outside the worker process, is scaled the
same way.
"""

from __future__ import annotations

import math
import time

import numpy as np

REF_NOMINAL_S = 1.0e-3  # small kernel, fast state
MEM_NOMINAL_S = 0.8e-3  # memory-bound kernel, fast state
_REF_X = np.linspace(0.0, 1.0, 512)
_REF_BIG = np.linspace(-1.0, 1.0, 1 << 18)
_REF_OUT = (np.empty_like(_REF_BIG), np.empty_like(_REF_BIG))


def reference_seconds() -> float:
    """Best of three runs of the small reference kernel."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(4500):
            acc += math.exp(-i * 1e-5)
        for i in range(60):
            acc += float(np.sum(np.exp(-_REF_X * (i * 1e-3)) * _REF_X))
        best = min(best, time.perf_counter() - t0)
    return best


def memory_seconds() -> float:
    """Best of two runs of the memory-bound reference kernel (into fixed
    buffers, so that allocation does not enter it)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        np.cumsum(np.exp(_REF_BIG, out=_REF_OUT[0]), out=_REF_OUT[1])
        best = min(best, time.perf_counter() - t0)
    return best


def slowdowns() -> tuple:
    """(small-kernel slowdown, combined slowdown): each kernel's time over
    its nominal time, and the geometric mean of the two."""
    small = reference_seconds() / REF_NOMINAL_S
    mem = memory_seconds() / MEM_NOMINAL_S
    return small, math.sqrt(small * mem)
