"""Associated-transform inversion: trade the exponentials for one extra
variable p.

Substituting l_r = p - (sum of the other l's) turns the exponent
l1+..+lm into p alone; integrating the other m-1 variables in ascending
order leaves C * exp(p) / p^(n+1) for a single constant C, and the
volume is C / n!.  The eliminated variable l_r is the row with the most
positive entries (ties to the lowest index), which keeps the residue
tree small.  No exponent holds an integrated variable, so each level
closes on the half-plane with fewer poles.  As a
:class:`lapvol.engine.Method` the slots are the l_j with j != r, then
p, and ``through`` maps a form a to sum_{j != r} (a_j - a_r)*l_j + a_r*p.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .engine import Method, Run, positives, run
from .linforms import P_VAR
from .polytope import NormalizedInstance
# not called: perfbench's transform spans look it up here
from .terms import integrate_level  # noqa: F401


def eliminated_var(columns) -> int:
    """The variable id r that the substitution l_r = p - sum(l_j)
    removes: the row with the most positive entries, read from the
    integer ``columns`` (:func:`lapvol.polytope.integer_columns`), ties
    to the lowest index."""
    counts = positives(columns)
    return 1 + counts.index(max(counts))


def method(columns) -> Method:
    """The transform on the instance with these integer columns."""
    r = eliminated_var(columns)
    others = tuple(j for j in range(1, len(columns[0][1]) + 1) if j != r)

    def through(form):
        a_r = form[r - 1]
        return tuple([form[j - 1] - a_r for j in others] + [a_r])

    return Method(others + (P_VAR,), through, (r,) + others, others, P_VAR)


def run_transform(norm: NormalizedInstance, abscissae: Optional[Sequence] = None,
                  force_sides: Optional[dict] = None) -> Run:
    """Full transform-method run; ``abscissae`` (the seed c, length m,
    with d = sum(c) derived) and ``force_sides`` as in
    :func:`lapvol.engine.run`."""
    return run(norm, method(norm.columns), abscissae, force_sides)
