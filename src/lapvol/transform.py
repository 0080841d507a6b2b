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
    coincident_pair,
    integrate_level,
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

    Exponent is identically zero: the exp(zp) factor lives outside the
    inner integrals and is inverted analytically at the end.
    """
    m = norm.m
    rows = norm.rows
    r = eliminated_var(rows)
    others = [j for j in range(1, m + 1) if j != r]
    root = LinForm([(P_VAR, 1)] + [(j, -1) for j in others])
    factors = [root] + [LinForm.var(j) for j in others]
    for j in range(norm.n):
        col = LinForm([(i + 1, rows[i][j]) for i in range(norm.m)])
        factors.append(col.substitute(r, root))
    assert all(not f.is_zero for f in factors)
    if m > 1:
        pair = coincident_pair(factors)
        if pair is not None:
            raise DegenerateInstance(
                f"coincident denominator factors ({pair[0]}) and "
                f"({pair[1]}) after the p-substitution. Perturb A "
                "slightly (approximate result) or use the known-volume "
                "generators for such shapes."
            )
    return canonical_term(Term(Fraction(1), LinForm.zero(), tuple((f, 1) for f in factors)))


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
    for level, k in enumerate(others, 1):
        assert all(t.exponent.is_zero for t in terms), "transform terms grew an exponential"
        force = (force_sides or {}).get(k)
        terms, config, stats = integrate_level(
            terms, k, config, SideRule.FEWER_POLES, history, force_side=force
        )
        levels.append(stats)
        assert stats.residues <= (n + 1) ** level, "level node bound (n+1)^k exceeded"
    C = Fraction(0)
    for t in terms:
        if not t.exponent.is_zero:
            raise MalformedH(f"surviving term carries an exponential: {t}")
        q = 0
        leading = 1
        for factor, mult in t.denom:
            if not factor.is_multiple_of_var(P_VAR):
                raise MalformedH(f"surviving denominator factor {factor} is not a power of p")
            leading *= factor.coeff(P_VAR) ** mult
            q += mult
        if q != n + 1:
            raise MalformedH(f"surviving term has p-multiplicity {q}, expected {n + 1}")
        C += t.coeff / leading
    return TransformRun(norm, config, tuple(levels), C, C / factorial(n))


def volume_transform(norm: NormalizedInstance, abscissae: Optional[Sequence] = None) -> Fraction:
    return run_transform(norm, abscissae).result
