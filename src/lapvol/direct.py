"""Direct inversion: integrate exp(l1+..+lm) * G over l1..lm by residues.

G is the reciprocal of the product of the m variable factors l_i and
the n column factors (A'l)_j, built from integer columns.  Levels
1..m-1 are residue integrations and the last variable is evaluated in
closed form; level m-1 is fused with that closed form
(:func:`lapvol.terms.close_level`), so its residues come out as pairs
(alpha, K) for :func:`lapvol.terms.power_sum` rather than as Terms.
The level-k residue count is bounded by (n+1)^k, which the driver
asserts on every run.

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
    close_level,
    coincident_pair,
    final_level_value,  # noqa: F401  (not called: perfbench's direct.final span looks it up here)
    integer_columns,
    integrate_level,
    power_sum,
    power_terms,
)


@dataclass(frozen=True)
class DirectRun:
    instance: NormalizedInstance
    config: ContourConfig
    levels: Tuple[LevelStats, ...]
    result: Fraction


def initial_term(norm: NormalizedInstance) -> Term:
    """exp(l1+..+lm) over the product of all m+n simple factors, each in
    primitive form.

    Each column factor (A'l)_j is written down as the primitive form of
    the integer column of :func:`integer_columns`; the scales D/s go
    into the coefficient once.  Any two proportional factors would
    create a repeated pole at level one already, so they are rejected
    here with a hint; axis-parallel constraint rows (boxes) are the
    typical trigger.
    """
    m, rows = norm.m, norm.rows
    factors = [LinForm.from_items(((i, 1),), primitive=True) for i in range(1, m + 1)]
    num = den = 1
    for scale, col in integer_columns(rows):
        s, form = LinForm.from_ints([(i, a) for i, a in enumerate(col, 1) if a])
        factors.append(form)
        num *= scale
        den *= s
    if m > 1:
        pair = coincident_pair(factors)
        if pair is not None:
            unscaled = [LinForm.var(i) for i in range(1, m + 1)] + [
                LinForm([(i + 1, rows[i][j]) for i in range(m)]) for j in range(norm.n)
            ]
            raise DegenerateInstance(
                f"coincident denominator factors ({unscaled[pair[0]]}) and "
                f"({unscaled[pair[1]]}): a constraint row is proportional to a "
                "coordinate axis or to another column factor. Perturb A "
                "slightly (approximate result) or use the known-volume "
                "generators for such shapes."
            )
    # m = 1: every factor is l1 (the single row is positive by
    # compactness), and canonical_term adds them up into l1^(n+1)
    exponent = LinForm([(i, 1) for i in range(1, m + 1)])
    return canonical_term(Term(Fraction(num, den), exponent, tuple((f, 1) for f in factors)))


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
    last = order[-1]
    terms: List[Term] = [initial_term(norm)]
    history: list = []
    levels: List[LevelStats] = []
    if m == 1:
        powers = power_terms(terms, last)
    for level, k in enumerate(order[:-1], 1):
        if level < m - 1:
            terms, config, stats = integrate_level(
                terms, k, config, SideRule.BY_EXPONENT_SIGN, history
            )
        else:
            powers, config, stats = close_level(
                terms, k, last, config, SideRule.BY_EXPONENT_SIGN, history
            )
        levels.append(stats)
        assert stats.residues <= (n + 1) ** level, "level node bound (n+1)^k exceeded"
    assert all(q == n + 1 for _, q in powers), "final-level degree bookkeeping"
    levels.append(
        LevelStats(var=last, terms_in=len(powers), poles_found=0, left=0, right=0,
                   repaired=0, residues=len(powers), terms_out=len(powers))
    )
    return DirectRun(norm, config, tuple(levels), power_sum(powers))


def volume_direct(norm: NormalizedInstance, abscissae: Optional[Sequence] = None) -> Fraction:
    return run_direct(norm, abscissae).result
