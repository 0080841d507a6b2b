"""Direct inversion: integrate exp(l1+..+lm) * G over l1..lm by residues.

G is the reciprocal of the product of the m variable factors l_i and
the n column factors (A'l)_j.  As a :class:`lapvol.engine.Method` the
slots are l1..lm and ``through`` is the identity.

Integration order.  The order changes the size of the residue tree,
not the volume, and the exponent bound (:mod:`lapvol.engine`) decides
most of that size: a residue whose exponent is negative at the contour
seed c is never built.  Say variable k goes first.  Every factor is
positive at c and the exponent's coefficient on l_k is 1 > 0, so the
level closes left and collects its own factor l_k and every column
factor with A_kj > 0.  At the zero of column j's factor the exponent's
sign at c is that of A_kj*sum(c) - (A'c)_j, so the residue is built iff
``col[k] * sum(c) >= dot(col, c)`` on the integer column (D_j cancels);
l_k's own residue, with exponent sum(c) - c_k > 0, always is.
:func:`integration_order` ranks the variables by these surviving
level-1 residues, fewest first, ties to the lower id, and leaves the
variable with the most to the closed-form last level.  The score is one
dot product per column at the LP-found seed ``norm.interior``; an
``abscissae`` override moves the paths, not the order.  Where that
order meets a repeated pole, :func:`run_direct` reruns in the
:func:`sign_order`, which ranks by the residues level 1 collects,
1 + #{j : A_kj > 0}: another order meets other poles, and a refusal
there is the run's.  Variable ids keep naming the input's rows.
"""
from __future__ import annotations

from operator import mul
from typing import Optional, Sequence, Tuple

from .engine import Method, Run, positives, run
from .errors import DegenerateInstance
from .polytope import NormalizedInstance
# not called: perfbench's direct spans look them up here
from .terms import final_level_value, integrate_level  # noqa: F401


def _ascending(scores: Sequence[int]) -> Tuple[int, ...]:
    """The variable ids by ascending score, ties to the lower id."""
    return tuple(sorted(range(1, len(scores) + 1), key=lambda k: scores[k - 1]))


def integration_order(columns, c: Sequence) -> Tuple[int, ...]:
    """The variable ids in integration order: ascending number of
    level-1 residues that survive the exponent bound at the seed ``c``,
    read from the integer ``columns``
    (:func:`lapvol.polytope.integer_columns`), ties to the lower id."""
    total = sum(c)
    scores = [1] * len(c)
    for _, col in columns:
        at_c = sum(map(mul, col, c))
        for k, a in enumerate(col):
            if a > 0 and a * total >= at_c:
                scores[k] += 1
    return _ascending(scores)


def sign_order(columns) -> Tuple[int, ...]:
    """The fallback order: ascending number of positive entries in the
    variable's row, read from the integer ``columns``, ties to the
    lower id."""
    return _ascending(positives(columns))


def method(order: Sequence[int]) -> Method:
    """The direct method integrating the variables in ``order``, the
    last of them in closed form."""
    ids = tuple(range(1, len(order) + 1))
    return Method(ids, tuple, ids, tuple(order[:-1]), order[-1])


def run_direct(norm: NormalizedInstance, abscissae: Optional[Sequence] = None) -> Run:
    """Full direct-method run; ``abscissae`` overrides the LP-found
    contour seed c (it must still satisfy c > 0 and A'c > 0).  A
    repeated pole in the :func:`integration_order` reruns the
    :func:`sign_order`, whose refusal is the run's."""
    order = integration_order(norm.columns, norm.interior)
    try:
        return run(norm, method(order), abscissae)
    except DegenerateInstance:
        fallback = sign_order(norm.columns)
        if fallback == order:
            raise
        return run(norm, method(fallback), abscissae)
