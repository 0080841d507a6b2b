"""Direct inversion: integrate exp(l1+..+lm) * G over l1..lm by residues.

G is the reciprocal of the product of the m variable factors l_i and
the n column factors (A'l)_j.  Levels 1..m-1 are residue integrations;
the last variable is evaluated in closed form.  The level-k residue
count is bounded by (n+1)^k, which the driver asserts on every run.

Integration order.  Every factor is positive at the contour seed and
the exponent's coefficient on each variable is 1 > 0, so the first
level closes left and collects the variable's own factor plus every
column factor with a positive coefficient on it: 1 + #{j : A_ij > 0}
residues.  :func:`integration_order` therefore integrates the rows with
the fewest positive entries first and leaves the row with the most to
the closed-form last level.  The score is read once from the signs of
the normalized rows.  Variable ids keep naming the input's rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import DegenerateInstance
from .linforms import LinForm
from .polytope import NormalizedInstance, contour_seed, is_strict_interior
from .terms import (
    ContourConfig,
    LevelStats,
    SideRule,
    Term,
    canonical_term,
    coincident_pair,
    final_level_value,
    integrate_level,
)


@dataclass(frozen=True)
class DirectRun:
    instance: NormalizedInstance
    config: ContourConfig
    levels: Tuple[LevelStats, ...]
    result: Fraction


def column_factors(rows) -> List[LinForm]:
    """The n forms (A'l)_j = sum_i A[i][j] * l_i, variables 1-based."""
    m, n = len(rows), len(rows[0])
    return [
        LinForm([(i + 1, rows[i][j]) for i in range(m)]) for j in range(n)
    ]


def initial_term(norm: NormalizedInstance) -> Term:
    """exp(l1+..+lm) over the product of all m+n simple factors, each in
    primitive form.

    Any two proportional factors would create a repeated pole at level
    one already, so they are rejected here with a hint; axis-parallel
    constraint rows (boxes) are the typical trigger.
    """
    m = norm.m
    factors = [LinForm.var(i) for i in range(1, m + 1)] + column_factors(norm.rows)
    if m == 1:
        # no intermediate level exists: every factor is a multiple of l1
        # (the single row is positive by compactness) and the repeated
        # root is exactly the closed-form final-level shape
        assert all(f.is_multiple_of_var(1) for f in factors)
    else:
        pair = coincident_pair(factors)
        if pair is not None:
            raise DegenerateInstance(
                f"coincident denominator factors ({pair[0]}) and "
                f"({pair[1]}): a constraint row is proportional to a "
                "coordinate axis or to another column factor. Perturb A "
                "slightly (approximate result) or use the known-volume "
                "generators for such shapes."
            )
    exponent = LinForm([(i, 1) for i in range(1, m + 1)])
    return canonical_term(Term(Fraction(1), exponent, tuple((f, 1) for f in factors)))


def integration_order(rows) -> Tuple[int, ...]:
    """The variable ids in integration order: ascending number of
    positive entries in the variable's row, ties to the lower id."""
    positives = [sum(1 for a in row if a > 0) for row in rows]
    return tuple(sorted(range(1, len(rows) + 1), key=lambda k: positives[k - 1]))


def _direct_domain(rows):
    m = len(rows)
    return lambda abscissae: is_strict_interior(rows, [abscissae[i] for i in range(1, m + 1)])


def run_direct(
    norm: NormalizedInstance, abscissae: Optional[Sequence] = None
) -> DirectRun:
    """Full direct-method run; ``abscissae`` overrides the LP-found
    contour seed c (it must still satisfy c > 0 and A'c > 0)."""
    m, n = norm.m, norm.n
    c = contour_seed(norm, abscissae)
    config = ContourConfig(
        {i + 1: c[i] for i in range(m)}, domain_ok=_direct_domain(norm.rows)
    )
    order = integration_order(norm.rows)
    terms: List[Term] = [initial_term(norm)]
    history: list = []
    levels: List[LevelStats] = []
    for level, k in enumerate(order[:-1], 1):
        terms, config, stats = integrate_level(
            terms, k, config, SideRule.BY_EXPONENT_SIGN, history
        )
        levels.append(stats)
        assert stats.residues <= (n + 1) ** level, "level node bound (n+1)^k exceeded"
    for t in terms:
        assert t.total_multiplicity == n + 1, "final-level degree bookkeeping"
    last = order[-1]
    result = sum((final_level_value(t, last) for t in terms), Fraction(0))
    levels.append(
        LevelStats(var=last, terms_in=len(terms), poles_found=0, left=0, right=0,
                   repaired=0, residues=len(terms), terms_out=len(terms))
    )
    return DirectRun(norm, config, tuple(levels), result)


def volume_direct(norm: NormalizedInstance, abscissae: Optional[Sequence] = None) -> Fraction:
    return run_direct(norm, abscissae).result
