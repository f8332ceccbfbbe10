"""A fixed speed probe that takes the machine's drifting speed out of timings.

On a shared host the same code can run 30% faster or slower for minutes
at a time, and every kind of Python code here moves together.  The probe
is a fixed unit of pure-Python work that shares no code with rsize:
big-integer arithmetic, then tuple, string and list churn.  Timed next to
the work under test, its time over NOMINAL_S is how much slower than
nominal the machine runs at that moment.  Dividing a measured time by
that factor gives reference seconds: the time the work would take on
the machine at its nominal speed.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

# the probe's median time on the 2-core reference machine (Python 3.11.7)
NOMINAL_S = 0.0003

_MODULUS = 10**40 + 7


def probe() -> float:
    """Seconds taken by one fixed unit of work."""
    start = perf_counter()
    x = 1
    for k in range(800):
        x = (x * 3 + k) % _MODULUS
    pairs = [(i, str(i)) for i in range(400)]
    pairs.sort(key=lambda p: p[1])
    {p[1] for p in pairs}
    return perf_counter() - start


def factor() -> float:
    """How many times slower than nominal the machine runs right now, from 8 probes."""
    return sum(probe() for _ in range(8)) / (8 * NOMINAL_S)


def timed(call: Callable[[], Any]) -> tuple[float, Any]:
    """(reference seconds, result) of one call, with probes just before and after it."""
    before = factor()
    start = perf_counter()
    result = call()
    elapsed = perf_counter() - start
    return elapsed / ((before + factor()) / 2), result
