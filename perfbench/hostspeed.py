"""A fixed reference computation that tracks the speed of the host.

The 2-vCPU machine the benchmark was tuned on changes speed by up to a
factor of 2 for 5 to 45 seconds at a time, in CPU time as in wall time,
so a median over a run of half a minute moves by 24-31% from run to run
whatever it measures.  The benchmark therefore times this computation
next to every operation and scales the operation's wall time by
``REFERENCE_NS`` divided by the reference time: the result is the time
the operation takes on a host that runs the reference in
``REFERENCE_NS``.  The reference is the kind of object churn lapvol's
terms cause, and lives in the benchmark, so no change to lapvol moves
it.
"""
from __future__ import annotations

import time

# Fastest time of `reference_ns()` on the reference host (2 vCPU
# "Intel(R) Xeon(R) Processor", CPython 3.11.7), in its fast state.
REFERENCE_NS = 750_000


def _reference() -> list:
    # small tuples, lists, strings and a dict, then a sort: the object
    # churn of lapvol's terms and linear forms.  Of the references tried,
    # its time tracked lapvol's best as the host changed speed (integer
    # gcd work slowed less than lapvol, Fraction sums more)
    table = {}
    for i in range(1500):
        table[(i, i * 7 % 13)] = [i, str(i), (i, i + 1)]
    return sorted(table.items(), key=lambda kv: kv[0][1])


def reference_ns() -> int:
    """Fastest of two timings of the reference computation; the fastest
    drops a timer interrupt or a collection that hit one of them."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter_ns()
        _reference()
        times.append(time.perf_counter_ns() - t0)
    return min(times)
