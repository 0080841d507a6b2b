"""Exact rational linear programming, just big enough for the engine.

The one question asked is: maximize c.x over {x >= 0, Ax <= b} with
b >= 0: the margin relaxation of :mod:`lapvol.polytope`, whose last
optimum seeds the contour, and the box of :func:`lapvol.oracle.bounding_box`.
Because b >= 0, the all-slack basis x = 0 is feasible, so a single-phase
primal simplex starts from it, with Bland's least-index rule on variable
ids: deterministic, exact, and immune to cycling.  The tableau is
condensed (Tucker form): one row per basic and one column per nonbasic
variable, so the slack identity block is never stored and a pivot swaps
a row label with a column label.  Pivots are fraction-free (Edmonds
1967, Bareiss 1968): each row is scaled once to integers, its slack with
it, and every entry is held as d times its value, d the last pivot, so
an update is one exact integer division.  Int entries are taken as they
are, so a caller that already holds integer rows (the margin relaxation
does) pays no rational conversion.  The optimal vertex is x = X/d with
integer X, and it is verified in integers against a copy of the
integer-scaled start rows: with each row scale and d positive, X >= 0,
row.X <= rhs*d and cost.X == -z say exactly x >= 0, Ax <= b and
cost.x == z.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .linforms import exact, integer_scaled

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def maximize(
    objective: Sequence, A: Sequence[Sequence], b: Sequence
) -> Tuple[str, Optional[Tuple[Fraction, ...]], Optional[Fraction]]:
    """Maximize objective . x subject to x >= 0 and A x <= b, b >= 0.

    Returns ``(OPTIMAL, x, value)`` with an exact optimal vertex verified
    by substitution, or ``(UNBOUNDED, None, None)``.  Raises ValueError
    for malformed data or a negative b entry.
    """
    cost = [exact(v) for v in objective]
    rows = [[exact(v) for v in row] for row in A]
    rhs = [exact(v) for v in b]
    n, m = len(cost), len(rows)
    if n < 1:
        raise ValueError("need at least one variable")
    if any(len(row) != n for row in rows) or len(rhs) != m:
        raise ValueError("A must be len(b) rows of len(objective) entries")
    if any(v < 0 for v in rhs):
        raise ValueError("b must be nonnegative: the simplex starts at x = 0")

    # Row i is [value, entries] of basic variable basis[i]; row m is the
    # objective row [-z, reduced costs].  Column k > 0 belongs to nonbasic
    # variable col[k]: ids [0, n) structural, [n, n+m) slack.  Each row is
    # scaled to integers by the lcm of its denominators, so every entry is
    # held as d times its value (d = 1 until the first pivot); ``start``
    # keeps the scaled rows for the final checks.
    start = [[bi] + row for row, bi in zip(rows, rhs)] + [[0] + cost]
    scale, start = zip(*(integer_scaled(row) for row in start))
    tab = [list(row) for row in start]
    basis, col, d = list(range(n, n + m)), [None] + list(range(n)), 1
    while True:
        enter = min((k for k in range(1, n + 1) if tab[m][k] > 0), key=col.__getitem__, default=None)
        if enter is None:
            break
        leave = None  # least ratio value/a by cross-products, ties to the least basic id
        for i in range(m):
            a = tab[i][enter]
            if a > 0 and (leave is None or (tab[i][0] * tab[leave][enter], basis[i])
                          < (tab[leave][0] * a, basis[leave])):
                leave = i
        if leave is None:
            return UNBOUNDED, None, None
        piv_row, p = tab[leave], tab[leave][enter]
        for i, row in enumerate(tab):
            if i != leave:
                f = row[enter]
                tab[i] = [(v * p - f * w) // d for v, w in zip(row, piv_row)]
                tab[i][enter] = -f
        piv_row[enter], d = d, p
        basis[leave], col[enter] = col[enter], basis[leave]

    row_of = dict(zip(basis, tab))
    X = [row_of[j][0] if j in row_of else 0 for j in range(n)]  # x = X/d, d > 0
    assert all(v >= 0 for v in X), "simplex witness violates x >= 0"
    for row in start[:m]:
        assert sum(a * v for a, v in zip(row[1:], X)) <= row[0] * d, \
            "simplex witness violates Ax <= b"
    assert sum(a * v for a, v in zip(start[m][1:], X)) == -tab[m][0], \
        "simplex value disagrees with its witness"
    return OPTIMAL, tuple(Fraction(v, d) for v in X), Fraction(-tab[m][0], d * scale[m])

