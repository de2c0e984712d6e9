"""Fixed reference computation that measures the host's current speed.

On a shared virtual machine the speed of every process drifts by a quarter
or more over minutes, as other tenants' load comes and goes; the drift
affects CPU time as much as wall time, because it comes from shared cores,
caches and memory rather than from the process being descheduled.  The
end-to-end pass times are therefore reported in units of this reference:
``run.py`` times one reference run before the first pass and after every
pass, and divides each pass by the mean of the two reference runs around it.

The reference does the kind of work the package does (``Fraction``
arithmetic on small numbers, tuple keys, dict inserts, small allocations)
but uses nothing from ``glspaths``, so a change to the package cannot
change it.  The cyclic
garbage collector is off while it runs, so neither garbage left by a pass
nor a collector setting made by the package alters its cost.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

STEPS = 20000


def work(steps: int = STEPS) -> int:
    """Small-rational arithmetic into a dict of at most 256 entries, so the
    cost is linear in ``steps`` and the memory it needs is fixed."""
    table = {}
    for k in range(1, steps):
        x = Fraction(k, k + 7) * Fraction(3, k + 1) - Fraction(1, k + 2)
        table[(k % 256, x.denominator % 2)] = (x, k)
    return len(table)


def timed() -> float:
    """Wall time of one reference run, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
