"""One residue driver for both inversion methods.

Both methods integrate exp(l1+..+lm) over the m variable factors l_i and
the n column factors (A'l)_j by iterated residues, in the coordinates a
:class:`Method` gives for one instance.  :func:`start_term` writes the
integrand through the method's map ``through``: the variable factors are
through(e_i), the column factors primitive(through(column)) (equal
factors as one with a multiplicity) and the exponent through((1,)*m),
which is p for the transform.  :func:`run` integrates the method's
``levels`` by residues, the last of them fused with the closed form in
``last`` (:func:`lapvol.terms.close_level`), asserts the level-k residue
bound (n+1)^k on every run, and sums the closed form K * alpha^n / n! of
the powers K * e^(alpha*last) / last^(n+1) that the closing level keeps.

Exponent bound.  At every residue level but the closing one,
:func:`lapvol.terms.integrate_level` builds no residue whose exponent L
is negative at the contour point c, deciding each sign before the
residue is built; the level's ``residues`` still counts it and
``terms_out`` counts the merged terms kept.  This is exact.  A level
closes on the decay side of e^(a*v), so every root r it collects has
a*(r - c_v) <= 0 (< 0 but for the roots on the path, below), and the
residue's exponent, L with v set to r, is L(c) + a*(r - c_v) at c: at
most L(c), or L itself where a = 0.  Down any residue chain L(c) never
rises, so every power below a term T has alpha*c_last <= L_T(c) with
c_last > 0, and L_T(c) < 0 leaves only alpha < 0, which the closed form
drops.  The transform's exponent p is d > 0 at c, so it never prunes.
A repeated pole that sits only below pruned terms is never met.

Poles on a path.  A root that lies exactly on its level's path counts
as left of it (:func:`lapvol.terms._classified`), and the ledger of
:attr:`Run.config` keeps, for each level whose path met a pole, the
variable and the number of its distinct factors on the path.  Read this
as symbolic perturbation (Edelsbrunner & Mücke, "Simulation of
Simplicity", ACM TOG 1990): the path of the i-th level moves right by
e_i > 0, with each e_(i+1) infinitesimal against e_i.  The run is then
exactly the run on the moved contour c', on which no pole sits on a
path, for three reasons.  Every other side, the seed's open domain
c > 0, A'c > 0, and every exponent sign the bound reads are strict
inequalities at c, so small enough shifts keep them all.  The factors
and exponents of a level hold no variable integrated before it, so the
root of a level-i factor is a form in the later variables: the shifts
move it by O(e_(i+1)) while its path moves by e_i, and a root on the
path ends left of it.  And each pruned exponent is < 0 at c, so it
stays negative at c'.  So the residues of every level are those of a
valid contour, and the bound's argument above holds at c' as it reads
at c.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linforms import P_VAR
from .polytope import NormalizedInstance, contour_seed
from .terms import (
    ContourConfig,
    Factor,
    LevelStats,
    Term,
    close_level,
    integrate_level,
    primitive,
    tree_sum,
)


class Method(NamedTuple):
    slots: Tuple[int, ...]                # the variables in ascending id: the slot layout
    through: Callable[[Sequence], Tuple]  # a form over l1..lm as a form over the slots
    variables: Tuple[int, ...]            # the order of the variable factors l_i (names a pole)
    levels: Tuple[int, ...]               # the variables integrated by residues, in order
    last: int                             # the variable left for the closed form


class Run(NamedTuple):
    instance: NormalizedInstance
    config: ContourConfig
    levels: Tuple[LevelStats, ...]  # the residue levels, in order
    last: int                       # the closed-form variable
    leaves: int                     # the alpha > 0 powers the closing level keeps
    result: Fraction

    @property
    def H_coefficient(self) -> Fraction:
        """The C of H(p) = C / p^(n+1): the volume times n!."""
        return self.result * factorial(self.instance.n)


def positives(columns) -> List[int]:
    """The number of positive entries in each row of the integer
    ``columns`` (:func:`lapvol.polytope.integer_columns`), whose signs
    are those of the normalized rows."""
    return [sum(a > 0 for a in row) for row in zip(*(col for _, col in columns))]


def _unit(i: int, m: int) -> List[int]:
    return [int(i == j) for j in range(1, m + 1)]


def start_term(norm: NormalizedInstance, method: Method) -> Term:
    """exp(l1+..+lm) over the m variable and n column factors, written
    over the method's slots, each factor primitive and the column scales
    D/s folded into the coefficient.  Equal factors are one factor with
    their count as multiplicity, in first-seen order: the variables in
    ``method.variables`` order, then the columns (m = 1: the variable
    to the power n+1).  Only a level refuses a repeated pole it collects.
    """
    m, through = norm.m, method.through
    denom: Dict[Factor, int] = {through(_unit(i, m)): 1 for i in method.variables}
    num = den = 1
    for scale, col in norm.columns:
        s, f = primitive(through(col))
        denom[f] = denom.get(f, 0) + 1
        num *= scale
        den *= s
    return Fraction(num, den), (1, through((1,) * m)), tuple(denom.items())


def contour(norm: NormalizedInstance, method: Method,
            abscissae: Optional[Sequence] = None) -> ContourConfig:
    """The paths of the seed c (``abscissae`` overrides the LP-found one):
    c_j on l_j, and d = sum(c) on p."""
    c = contour_seed(norm, abscissae)
    points = {v: c[v - 1] for v in method.slots if v != P_VAR}
    if method.last == P_VAR:
        points[P_VAR] = sum(c, Fraction(0))
    return ContourConfig(points)


def run(norm: NormalizedInstance, method: Method, abscissae: Optional[Sequence] = None,
        force_sides: Optional[dict] = None) -> Run:
    """Full run of one method.  ``abscissae`` overrides the contour seed
    c (length m; it must still satisfy c > 0 and A'c > 0);
    ``force_sides`` maps an integrated variable to the Side its level
    closes on where the exponent leaves the side free, and exists for
    the side-independence tests."""
    n, last = norm.n, method.last
    config = contour(norm, method, abscissae)
    terms: List[Term] = [start_term(norm, method)]
    levels: List[LevelStats] = []
    # m = 1 has no residue level: the start term is C * e^x / x^(n+1)
    assert method.levels or terms[0][1:] == ((1, (1,)), (((1,), n + 1),))
    powers = {1: terms[0][0]}
    for level, k in enumerate(method.levels, 1):
        force = (force_sides or {}).get(k)
        if level < len(method.levels):
            # the exponent bound (module docstring)
            terms, config, stats = integrate_level(terms, k, config, force, prune=True)
        else:
            powers, config, stats = close_level(terms, k, last, n, config, force)
        levels.append(stats)
        assert stats.residues <= (n + 1) ** level, "level node bound (n+1)^k exceeded"
    # the closed form of K * e^(alpha*x) / x^(n+1): K * alpha^n / n! for alpha > 0
    # (the sum is already reduced, so / cross-reduces against n! alone;
    # Fraction() keeps an empty sum, the int 0, exact)
    volume = Fraction(tree_sum([K * alpha ** n for alpha, K in powers.items()])) / factorial(n)
    leaves = levels[-1].terms_out if levels else 1
    return Run(norm, config, tuple(levels), last, leaves, volume)
