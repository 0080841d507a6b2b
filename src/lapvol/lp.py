"""Exact rational linear programming, just big enough for the engine.

The one question asked is: maximize c.x over {x >= 0, Ax <= b} with
b >= 0 (the strict-interior margin problem of :mod:`lapvol.polytope`).
Because b >= 0, the all-slack basis x = 0 is feasible, so a single-phase
primal simplex starts from it directly: no phase 1, no artificial
columns, and the sign constraints x >= 0 are those of the tableau
itself.  Pivoting follows Bland's least-index rule on a dense Fraction
tableau: deterministic, exact, and immune to cycling.  The systems are
tiny (tens of variables), so no effort goes into sparsity or
revised-form updates.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .linforms import rat

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def maximize(
    objective: Sequence, A: Sequence[Sequence], b: Sequence
) -> Tuple[str, Optional[Tuple[Fraction, ...]], Optional[Fraction]]:
    """Maximize objective . x subject to x >= 0 and A x <= b, b >= 0.

    Returns ``(status, x, value)``: ``(OPTIMAL, x, value)`` with an exact
    optimal vertex verified by substitution, or ``(UNBOUNDED, None,
    None)``.  Raises ValueError for malformed data or a negative b entry.
    """
    cost = [rat(v) for v in objective]
    rows = [[rat(v) for v in row] for row in A]
    rhs = [rat(v) for v in b]
    n, m = len(cost), len(rows)
    if n < 1:
        raise ValueError("need at least one variable")
    if any(len(row) != n for row in rows) or len(rhs) != m:
        raise ValueError("A must be len(b) rows of len(objective) entries")
    if any(v < 0 for v in rhs):
        raise ValueError("b must be nonnegative: the simplex starts at x = 0")

    # Columns: [0, n) structural | [n, n+m) slack; the slacks start basic
    # and cost nothing, so the reduced costs start at the objective.
    tab = [row + [Fraction(int(k == i)) for k in range(m)] for i, row in enumerate(rows)]
    basis = list(range(n, n + m))
    val = list(rhs)  # values of the basic variables, always >= 0
    red = cost + [Fraction(0)] * m
    z = Fraction(0)
    while True:
        enter = next((j for j, r in enumerate(red) if r > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = val[i] / a
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            return UNBOUNDED, None, None
        inv = 1 / tab[leave][enter]
        piv_row = tab[leave] = [v * inv for v in tab[leave]]
        piv_val = val[leave] = val[leave] * inv
        for i in range(m):
            f = tab[i][enter]
            if i != leave and f != 0:
                tab[i] = [v - f * w for v, w in zip(tab[i], piv_row)]
                val[i] -= f * piv_val
        basis[leave] = enter
        f = red[enter]
        z += f * piv_val
        red = [v - f * w for v, w in zip(red, piv_row)]

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = val[i]
    assert all(v >= 0 for v in x), "simplex witness violates x >= 0"
    for row, bi in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) <= bi, "simplex witness violates Ax <= b"
    assert sum(c * v for c, v in zip(cost, x)) == z, "simplex value disagrees with its witness"
    return OPTIMAL, tuple(x), z
