"""Direct inversion: integrate exp(l1+..+lm) * G over l1..lm by residues.

G is the reciprocal of the product of the m variable factors l_i and
the n column factors (A'l)_j.  As a :class:`lapvol.engine.Method` the
slots are l1..lm and ``through`` is the identity.

Integration order.  Every factor is positive at the contour seed and
the exponent's coefficient on each variable is 1 > 0, so the first
level closes left and collects the variable's own factor plus every
column factor with a positive coefficient on it: 1 + #{j : A_ij > 0}
residues.  :func:`integration_order` therefore integrates the rows with
the fewest positive entries first and leaves the row with the most to
the closed-form last level.  The score is read once from the signs of
the instance's integer columns, which are those of the normalized rows.
Variable ids keep naming the input's rows.
"""
from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .engine import Method, Run, positives, run
from .polytope import NormalizedInstance
# not called: perfbench's direct spans look them up here
from .terms import final_level_value, integrate_level  # noqa: F401


def integration_order(columns) -> Tuple[int, ...]:
    """The variable ids in integration order: ascending number of
    positive entries in the variable's row, read from the integer
    ``columns`` (:func:`lapvol.polytope.integer_columns`), ties to the
    lower id."""
    counts = positives(columns)
    return tuple(sorted(range(1, len(counts) + 1), key=lambda k: counts[k - 1]))


def method(columns) -> Method:
    """The direct method on the instance with these integer columns."""
    order = integration_order(columns)
    ids = tuple(range(1, len(order) + 1))
    return Method(ids, tuple, ids, order[:-1], order[-1])


def run_direct(norm: NormalizedInstance, abscissae: Optional[Sequence] = None) -> Run:
    """Full direct-method run; ``abscissae`` overrides the LP-found
    contour seed c (it must still satisfy c > 0 and A'c > 0)."""
    return run(norm, method(norm.columns), abscissae)
