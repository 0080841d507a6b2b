"""Volume checks that share no code with ``lapvol.terms``.

In the spirit of Bueler, Enge & Fukuda, "Exact volume computation for
polytopes: a practical study" (2000), each volume the CLI prints is
compared with an independent computation:

* m = 2: exact equality with ``lapvol.oracle.m2_closed_form``, a
  partial-fraction formula that uses neither residues nor linear forms;
* small n: the float volume of the convex hull of the vertices that qhull
  enumerates from the half-spaces (``scipy.spatial``), within a relative
  error of 1e-9;
* fixtures: exact equality with a volume known in closed form.

scipy is imported on first use, so a benchmark process that has not run
a check yet does not carry it in its resident set.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

QHULL_REL_TOL = 1e-9
# qhull's vertex enumeration grows past 2 GB at n = 40; keep it to small n.
QHULL_MAX_N = 10


def closed_form_volume(A: Sequence[Sequence[int]], b: Sequence[int]) -> Fraction:
    from lapvol.oracle import m2_closed_form

    if len(A) != 2:
        raise ValueError("the closed form needs exactly two constraint rows")
    a_row = [Fraction(v, b[0]) for v in A[0]]
    b_row = [Fraction(v, b[1]) for v in A[1]]
    return m2_closed_form(a_row, b_row)


def qhull_volume(A: Sequence[Sequence[int]], b: Sequence[int]) -> float:
    """Volume of {x >= 0, Ax <= b} as a float, from the hull of its vertices."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    n = len(A[0])
    if n > QHULL_MAX_N:
        raise ValueError(f"qhull check limited to n <= {QHULL_MAX_N}, got n = {n}")
    normals = np.vstack([np.asarray(A, dtype=float), -np.eye(n)])
    offsets = np.concatenate([np.asarray(b, dtype=float), np.zeros(n)])
    # Chebyshev centre: the interior point qhull needs, as far from every
    # facet as possible
    norms = np.linalg.norm(normals, axis=1)
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    lp = linprog(cost, A_ub=np.hstack([normals, norms[:, None]]), b_ub=offsets,
                 bounds=[(None, None)] * n + [(0, None)], method="highs")
    if lp.status != 0 or lp.x[-1] <= 0:
        raise ValueError("no interior point found for the qhull check")
    halfspaces = np.hstack([normals, -offsets[:, None]])
    hull = ConvexHull(HalfspaceIntersection(halfspaces, lp.x[:n]).intersections)
    return float(hull.volume)


def check(case, volume: Fraction) -> Optional[str]:
    """None when ``volume`` passes the case's check, else the reason."""
    if case.check == "closed_form":
        expected = closed_form_volume(case.A, case.b)
        return None if volume == expected else f"closed form gives {expected}"
    if case.check == "known":
        return None if volume == case.known else f"known volume is {case.known}"
    if case.check == "qhull":
        expected = qhull_volume(case.A, case.b)
        err = abs(float(volume) - expected) / expected
        return None if err <= QHULL_REL_TOL else f"qhull gives {expected!r} (rel. error {err:.3g})"
    raise ValueError(f"unknown check {case.check!r}")
