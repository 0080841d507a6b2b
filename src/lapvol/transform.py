"""Associated-transform inversion: trade the exponentials for one extra
variable p.

Substituting l_r = p - (sum of the other l's) turns the integrand into
a pure rational function; integrating the other m-1 variables in
ascending order leaves a function of p that must be C / p^(n+1) for a
single constant C, and the volume is C / n!.  The eliminated variable
l_r is the row with the most positive entries (ties to the lowest
index), which keeps the residue tree small.  The closure side at each
level is free (both agree up to sign), so the driver picks whichever
half-plane holds fewer poles.

The start term is built from integer columns.  The last level is
fused with the closed form (:func:`lapvol.terms.close_level`, the same
closing level as the direct method's): with exp(p) put back, each
residue is a pair (alpha = 1, K) for :func:`lapvol.terms.power_sum`,
which returns the volume, and C is read back as volume * n!.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List, Optional, Sequence, Tuple

from .errors import DegenerateInstance, MalformedH
from .linforms import LinForm, P_VAR
from .polytope import NormalizedInstance, contour_seed, is_strict_interior
from .terms import (
    ContourConfig,
    LevelStats,
    SideRule,
    Term,
    canonical_term,
    close_level,
    coincident_pair,
    integer_columns,
    integrate_level,
    power_sum,
    power_terms,
)


@dataclass(frozen=True)
class TransformRun:
    instance: NormalizedInstance
    config: ContourConfig
    levels: Tuple[LevelStats, ...]
    H_coefficient: Fraction  # the C of H(p) = C / p^(n+1)
    result: Fraction


def eliminated_var(rows) -> int:
    """The variable id r that the substitution l_r = p - sum(l_j)
    removes: the row with the most positive entries, ties to the lowest
    index."""
    positives = [sum(1 for a in row if a > 0) for row in rows]
    return 1 + positives.index(max(positives))


def substituted_term(norm: NormalizedInstance) -> Term:
    """The pure-rational integrand after eliminating l_r = p - sum(l_j)
    (r from :func:`eliminated_var`), every factor in primitive form.

    With the integer column a of :func:`integer_columns`, the column
    factor becomes a_r*p + sum over j != r of (a_j - a_r)*l_j, written
    down as a primitive integer form; the scales go into the coefficient
    once.  Exponent is identically zero: the exp(zp) factor lives
    outside the inner integrals and is inverted analytically at the end.
    """
    m, rows = norm.m, norm.rows
    r = eliminated_var(rows)
    others = [j for j in range(1, m + 1) if j != r]
    root = LinForm.from_items(tuple((j, -1) for j in others) + ((P_VAR, 1),), primitive=True)
    factors = [root] + [LinForm.from_items(((j, 1),), primitive=True) for j in others]
    num = den = 1
    for scale, col in integer_columns(rows):
        a_r = col[r - 1]
        items = [(j, col[j - 1] - a_r) for j in others if col[j - 1] != a_r]
        if a_r:
            items.append((P_VAR, a_r))
        assert items, "zero column factor"
        s, form = LinForm.from_ints(items)
        factors.append(form)
        num *= scale
        den *= s
    if m > 1:
        pair = coincident_pair(factors)
        if pair is not None:
            p_root = LinForm([(P_VAR, 1)] + [(j, -1) for j in others])
            unscaled = [p_root] + [LinForm.var(j) for j in others] + [
                LinForm([(i + 1, rows[i][j]) for i in range(m)]).substitute(r, p_root)
                for j in range(norm.n)
            ]
            raise DegenerateInstance(
                f"coincident denominator factors ({unscaled[pair[0]]}) and "
                f"({unscaled[pair[1]]}) after the p-substitution. Perturb A "
                "slightly (approximate result) or use the known-volume "
                "generators for such shapes."
            )
    return canonical_term(Term(Fraction(num, den), LinForm.zero(), tuple((f, 1) for f in factors)))


def _transform_domain(rows, r):
    """Strict feasibility in the substituted coordinates: the vector
    with c_j at j != r and d - sum(c_j) at r must stay in
    {y > 0, A'y > 0}."""
    m = len(rows)

    def ok(abscissae) -> bool:
        rest = sum(abscissae[j] for j in range(1, m + 1) if j != r)
        y = [abscissae[P_VAR] - rest if j == r else abscissae[j] for j in range(1, m + 1)]
        return is_strict_interior(rows, y)

    return ok


def run_transform(
    norm: NormalizedInstance,
    abscissae: Optional[Sequence] = None,
    force_sides: Optional[dict] = None,
) -> TransformRun:
    """Full transform-method run.

    ``abscissae`` overrides the contour seed c (length m; d = sum(c) is
    derived).  ``force_sides`` maps a lambda index to a Side and exists
    for the side-independence tests.
    """
    m, n = norm.m, norm.n
    c = contour_seed(norm, abscissae)
    r = eliminated_var(norm.rows)
    others = [j for j in range(1, m + 1) if j != r]
    points = {j: c[j - 1] for j in others}
    points[P_VAR] = sum(c, Fraction(0))
    config = ContourConfig(points, domain_ok=_transform_domain(norm.rows, r))
    terms: List[Term] = [substituted_term(norm)]
    history: list = []
    levels: List[LevelStats] = []
    if m == 1:
        powers = power_terms(terms, P_VAR, implicit=1)
    for level, k in enumerate(others, 1):
        assert all(t.exponent.is_zero for t in terms), "transform terms grew an exponential"
        force = (force_sides or {}).get(k)
        if level < m - 1:
            terms, config, stats = integrate_level(
                terms, k, config, SideRule.FEWER_POLES, history, force_side=force
            )
        else:
            powers, config, stats = close_level(
                terms, k, P_VAR, config, SideRule.FEWER_POLES, history,
                force_side=force, implicit=1,
            )
        levels.append(stats)
        assert stats.residues <= (n + 1) ** level, "level node bound (n+1)^k exceeded"
    for _, q in powers:
        if q != n + 1:
            raise MalformedH(f"surviving term has p-multiplicity {q}, expected {n + 1}")
    volume = power_sum(powers)
    return TransformRun(norm, config, tuple(levels), volume * factorial(n), volume)


def volume_transform(norm: NormalizedInstance, abscissae: Optional[Sequence] = None) -> Fraction:
    return run_transform(norm, abscissae).result
