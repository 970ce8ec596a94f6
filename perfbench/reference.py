"""A fixed pure-Python reference loop that measures the CPU's current speed.

The host this benchmark was tuned on changes its CPU throughput by 20-50%
over seconds to minutes, so raw wall times of the same code drift between
runs.  The worker runs this loop every 0.1 s while the ops run, on the same
CPU, and ``run.py`` multiplies each pass's wall times by the pass's speed:
the mean of ``REF_NOMINAL_S / t`` over its loop times ``t``.  Sampled at a
fixed rate, that mean weighs each stretch of the pass by its length, so a
slow stretch counts as long as it lasted.  The loop does the kind of work
``kummer`` does (small integer matrix-vector products, tuple hashing, dict
and set lookups, gcd, ``Fraction``), and it imports nothing from ``kummer``,
so a change to the program cannot change it.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

# Typical time of one ``reference_once()`` on the machine the benchmark was
# tuned on (2 vCPUs, Intel Xeon, Python 3.11.7): the harmonic mean over
# passes of every workload.  Only the scale of the reported times depends
# on it.
REF_NOMINAL_S = 0.0035

_MATRICES = (
    ((0, -1, 0), (1, -1, 0), (0, 0, 1)),
    ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
    ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
    ((-1, 0, 0), (0, 0, 1), (0, 1, 0)),
)
_ROUNDS = 250


def _mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def reference_once() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    seen = {}
    marks = set()
    acc = Fraction(0)
    v = (1, 2, 3)
    for i in range(_ROUNDS):
        for m in _MATRICES:
            v = tuple(x % 12 for x in _mat_vec(m, v))
            key = (v, i % 5)
            seen[key] = seen.get(key, 0) + 1
            marks.add(v)
        if i % 10 == 0:
            acc += Fraction(gcd(v[0] + 1, v[1] + 2), v[2] + 1)
    return len(seen) + len(marks) + acc.denominator


def sample(reps: int) -> list[float]:
    """Wall times of ``reps`` back-to-back reference loops."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_once()
        times.append(time.perf_counter() - t0)
    return times
