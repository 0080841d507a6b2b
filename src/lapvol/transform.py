"""Associated-transform inversion: trade the exponentials for one extra
variable p.

Substituting l_r = p - (sum of the other l's) turns the integrand into
a pure rational function; integrating the other m-1 variables in
ascending order leaves a function of p that must be C / p^(n+1) for a
single constant C, and the volume is C / n!.  The eliminated variable
l_r is the row with the most positive entries (ties to the lowest
index, signs read from the instance's integer columns), which keeps the
residue tree small.  The closure side at each level is free (both agree
up to sign), so :func:`run_transform` picks whichever half-plane holds
fewer poles.

The start term is built from the instance's integer columns.  The last
level is fused with the closed form (:func:`lapvol.terms.close_level`,
the same closing level as the direct method's): with exp(p) put back,
each residue is a pair (alpha = 1, K) for :func:`lapvol.terms.power_sum`,
which returns the volume, and C is read back as volume * n!.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List, Optional, Sequence, Tuple

from .errors import DegenerateInstance
from .linforms import LinForm, P_VAR
from .polytope import NormalizedInstance, contour_seed, is_strict_interior
from .terms import (
    ContourConfig,
    LevelStats,
    SideRule,
    Term,
    close_level,
    coincident_pair,
    integrate_level,
    power_sum,
    power_terms,
    primitive,
    require_degree,
)


@dataclass(frozen=True)
class TransformRun:
    instance: NormalizedInstance
    config: ContourConfig
    levels: Tuple[LevelStats, ...]
    H_coefficient: Fraction  # the C of H(p) = C / p^(n+1)
    result: Fraction


def eliminated_var(columns) -> int:
    """The variable id r that the substitution l_r = p - sum(l_j)
    removes: the row with the most positive entries, read from the
    integer ``columns`` (:func:`lapvol.polytope.integer_columns`), ties
    to the lowest index."""
    positives = [sum(a > 0 for a in row) for row in zip(*(col for _, col in columns))]
    return 1 + positives.index(max(positives))


def substituted_term(norm: NormalizedInstance) -> Term:
    """The pure-rational integrand after eliminating l_r = p - sum(l_j)
    (r from :func:`eliminated_var`), every factor primitive, over the
    slots of the l_j with j != r, then p.

    With the instance's integer column a (``norm.columns[j]``), the column
    factor becomes a_r*p + sum over j != r of (a_j - a_r)*l_j, made
    primitive; the scales go into the coefficient once.  Exponent is
    identically zero: the exp(zp) factor lives outside the inner
    integrals and is inverted analytically at the end.
    """
    m = norm.m
    r = eliminated_var(norm.columns)
    others = [j for j in range(1, m + 1) if j != r]
    # l_r = p - sum(l_j), then the l_j
    factors = [(-1,) * (m - 1) + (1,)] + [
        tuple([int(i == j) for j in range(m)]) for i in range(m - 1)]
    num = den = 1
    for scale, col in norm.columns:
        a_r = col[r - 1]
        ints = [col[j - 1] - a_r for j in others] + [a_r]
        assert any(ints), "zero column factor"
        s, f = primitive(ints)
        factors.append(f)
        num *= scale
        den *= s
    if m > 1:
        pair = coincident_pair(factors)
        if pair is not None:
            rows = norm.rows
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
    return Fraction(num, den), (1, (0,) * m), tuple(Counter(factors).items())


def _transform_domain(columns, r):
    """Strict feasibility in the substituted coordinates: the vector
    with c_j at j != r and d - sum(c_j) at r must stay in
    {y > 0, A'y > 0}, checked on the integer columns."""
    m = len(columns[0][1])

    def ok(abscissae) -> bool:
        rest = sum(abscissae[j] for j in range(1, m + 1) if j != r)
        y = [abscissae[P_VAR] - rest if j == r else abscissae[j] for j in range(1, m + 1)]
        return is_strict_interior(columns, y)

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
    r = eliminated_var(norm.columns)
    others = [j for j in range(1, m + 1) if j != r]
    points = {j: c[j - 1] for j in others}
    points[P_VAR] = sum(c, Fraction(0))
    config = ContourConfig(points, domain_ok=_transform_domain(norm.columns, r))
    terms: List[Term] = [substituted_term(norm)]
    history: list = []
    levels: List[LevelStats] = []
    if m == 1:
        powers = power_terms(terms, implicit=1)
        degrees = {q for _, q in powers}
    for level, k in enumerate(others, 1):
        assert not any(any(L) for _, (_, L), _ in terms), "transform terms grew an exponential"
        force = (force_sides or {}).get(k)
        if level < m - 1:
            terms, config, stats = integrate_level(
                terms, k, config, SideRule.FEWER_POLES, history, force_side=force
            )
        else:
            powers, degrees, config, stats = close_level(
                terms, k, P_VAR, config, SideRule.FEWER_POLES, history,
                force_side=force, implicit=1,
            )
        levels.append(stats)
        assert stats.residues <= (n + 1) ** level, "level node bound (n+1)^k exceeded"
    require_degree(degrees, P_VAR, n)
    volume = power_sum(powers)
    return TransformRun(norm, config, tuple(levels), volume * factorial(n), volume)


def volume_transform(norm: NormalizedInstance, abscissae: Optional[Sequence] = None) -> Fraction:
    return run_transform(norm, abscissae).result
