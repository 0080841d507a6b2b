"""The LinForm residue engine, kept as the reference for the dense one.

This is the residue engine as it was before ``lapvol.terms`` moved onto
int tuples over one slot layout: terms are :class:`Term` dataclasses of
:class:`linform.LinForm` exponents and primitive LinForm
factors and pole sites are :class:`PoleSite` values.  ``dense.py``
converts between the two; the kernel tests require the dense engine,
converted back, to return exactly what this one returns.  The contour,
side and stats types are shared with ``lapvol.terms``; the side rule
and the closed form are this engine's own.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd
from typing import Dict, List, Optional, Sequence, Tuple

from lapvol.errors import DegenerateInstance, DivergentSlice, MalformedH
from lapvol.linforms import var_name
from lapvol.terms import ContourConfig, LevelStats, PerturbationRecord, Side

from linform import LinForm


class SideRule(enum.Enum):
    """How a level picks the closure half-plane.

    BY_EXPONENT_SIGN: decay side of exp(a*var) (a > 0 left, a < 0
    right); terms with a = 0 fall back to the fewer-poles choice, which
    needs denominator degree >= 2.  FEWER_POLES: pure-rational terms
    only; both closures agree up to sign, so take the cheaper one.
    """

    BY_EXPONENT_SIGN = "by-exponent-sign"
    FEWER_POLES = "fewer-poles"


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    exponent: LinForm
    denom: Tuple[Tuple[LinForm, int], ...]

    def __post_init__(self):
        for f, mult in self.denom:
            assert not f.is_zero and mult >= 1, "denominator factors must be nonzero"

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.denom)

    def __str__(self) -> str:
        den = " * ".join(
            f"({f})" if mult == 1 else f"({f})^{mult}" for f, mult in self.denom
        )
        return f"{self.coeff} * e^({self.exponent}) / [{den}]"


def canonical_term(term: Term) -> Term:
    """The same summand with every factor replaced by its primitive form,
    the scales folded into the coefficient and equal factors combined
    into one entry; canonical terms come back unchanged."""
    coeff = term.coeff
    denom: Dict[LinForm, int] = {}
    for f, mult in term.denom:
        scale, g = f.primitive()
        if g != f:
            coeff /= scale ** mult
        denom[g] = denom.get(g, 0) + mult
    if coeff is term.coeff and len(denom) == len(term.denom):
        return term
    return Term(coeff, term.exponent, tuple(denom.items()))


@dataclass(slots=True, unsafe_hash=True)
class PoleSite:
    """One distinct root of ``var`` in a term's denominator: the zero of
    the primitive ``factor``.  A slotted value built once per distinct
    factor and level; the root (cached) and the leading coefficient are
    derived from the factor when read (messages only).
    """

    factor: LinForm
    var: int
    side: Side
    order: int
    _root: Optional[LinForm] = field(default=None, init=False, repr=False, compare=False)

    @property
    def leading(self) -> Fraction:
        return self.factor.coeff(self.var)

    @property
    def root(self) -> LinForm:
        if self._root is None:
            self._root = self.factor.solve_for(self.var)[1]
        return self._root


class _Classifier:
    """Classifies each distinct primitive factor once per level.

    With factor = a*var + rest, the factor's value at the path point is
    a*(path - root), so the side follows from the signs of that value
    and of a, both read in one pass over the factor's integer
    coefficients at the config's integer point.  A root on the path
    counts as left of it, the path read as moved right by an
    infinitesimal; ``on_path`` counts those factors.
    """

    def __init__(self, var: int, config: ContourConfig):
        self.var = var
        self.point = dict(zip(config.slots, config.point))
        self.sites: Dict[LinForm, Optional[PoleSite]] = {}
        self.on_path = 0

    def site(self, factor: LinForm) -> Optional[PoleSite]:
        """Classify a factor not seen before at this level: its
        simple-pole site, or None if it does not contain the variable."""
        var, point = self.var, self.point
        a = at_path = 0
        for v, c in factor.items():
            if v == var:
                a = c
            at_path += c * point[v]
        site = None
        if a:
            if at_path == 0:
                side = Side.LEFT
                self.on_path += 1
            elif (at_path > 0) == (a > 0):
                side = Side.LEFT
            else:
                side = Side.RIGHT
            site = PoleSite(factor, var, side, 1)
        self.sites[factor] = site
        return site

    def distinct(self) -> List[PoleSite]:
        return [s for s in self.sites.values() if s is not None]


def _sites(term: Term, classify: _Classifier) -> List[PoleSite]:
    """poles_of for a canonical term, whose factors are distinct."""
    sites = []
    known = classify.sites
    for f, mult in term.denom:
        site = known.get(f, False)
        if site is False:
            site = classify.site(f)
        if site is not None:
            sites.append(site if mult == 1 else PoleSite(site.factor, site.var, site.side, mult))
    return sites


def _require_simple(var: int, pole: PoleSite) -> None:
    if pole.order != 1:
        raise DegenerateInstance(
            f"pole of order {pole.order} at {var_name(var)} = {pole.root}; "
            "coincident denominator factors before the final level. "
            "A tiny random perturbation of A removes the coincidence at the "
            "price of an approximate volume."
        )


def _residue(term: Term, var: int, g: LinForm, sign: int) -> Term:
    """``sign`` times the residue of a canonical term at the zero of its
    factor ``g`` (a simple pole).

    With a = g's coefficient on ``var``, the root substituted into a
    factor f with coefficient b gives (a*f - b*g)/a = (s/a)*h for the
    primitive h and its signed content s, so each such factor multiplies
    the coefficient by (a/s)^mult, and the dropped factor g divides it
    by a.  h is positive on its highest-index variable, read after the
    zero coefficients (``var`` among them) are dropped.
    """
    a = g.coeff(var)
    g_items = g.items()
    num, den = sign * term.coeff.numerator, a * term.coeff.denominator
    denom: Dict[LinForm, int] = {}
    vanished = 0
    for f, mult in term.denom:
        items = f.items()
        for v, b in items:
            if v == var:
                break
        else:
            denom[f] = denom.get(f, 0) + mult
            continue
        if f == g:
            vanished += mult
            continue
        acc = {v: a * c for v, c in items}
        for v, c in g_items:
            acc[v] = acc.get(v, 0) - b * c
        pairs = sorted([vc for vc in acc.items() if vc[1]])
        s = gcd(*[c for _, c in pairs])
        if pairs[-1][1] < 0:
            s = -s
        f = LinForm.from_items(tuple([(v, c // s) for v, c in pairs]))
        num *= a ** mult
        den *= s ** mult
        denom[f] = denom.get(f, 0) + mult
    assert vanished == 1, "pole does not belong to this term as a simple factor"
    exponent = _substitute_exponent(term.exponent, g, var, a)
    return Term(Fraction(num, den), exponent, tuple(denom.items()))


def _substitute_exponent(L: LinForm, g: LinForm, var: int, a: int) -> LinForm:
    """L at the zero of g: L - r*g with r = alpha/a, alpha being L's
    coefficient on ``var``; each coefficient is one Fraction of ints."""
    alpha = L.coeff(var)
    if alpha == 0:
        return L
    r = Fraction(alpha.numerator, alpha.denominator * a)
    coeffs = {v: c for v, c in L.items() if v != var}
    for v, c in g.items():
        if v != var:
            x = coeffs.get(v, 0)
            coeffs[v] = Fraction(
                x.numerator * r.denominator - r.numerator * c * x.denominator,
                x.denominator * r.denominator,
            )
    return LinForm.from_items(tuple(sorted((v, c) for v, c in coeffs.items() if c)))


def _collected(term: Term, term_sites: Sequence[PoleSite], var: int, rule: SideRule,
               force_side: Optional[Side]) -> Tuple[int, List[PoleSite]]:
    """The closure of the term's integral over ``var``: its sign (-1 for
    a clockwise right closure) and the simple poles it collects."""
    a = term.exponent.coeff(var)
    if rule is SideRule.FEWER_POLES:
        assert a == 0, "fewer-poles rule requires a pure-rational term"
    if rule is SideRule.BY_EXPONENT_SIGN and a != 0:
        side = Side.LEFT if a > 0 else Side.RIGHT
    else:
        # no exponential decay: both closures are valid only when the
        # integrand dies off at least quadratically
        degree = sum(s.order for s in term_sites)
        if degree < 2:
            raise DivergentSlice(
                f"term {term} has degree {degree} in "
                f"{var_name(var)} and no exponential decay"
            )
        if force_side is not None:
            side = force_side
        else:
            n_left = sum(1 for s in term_sites if s.side is Side.LEFT)
            n_right = len(term_sites) - n_left
            side = Side.LEFT if n_left <= n_right else Side.RIGHT
    poles = [site for site in term_sites if site.side is side]
    for site in poles:
        _require_simple(var, site)
    return (1 if side is Side.LEFT else -1), poles


def integrate_var(
    terms: Sequence[Term],
    var: int,
    config: ContourConfig,
    rule: SideRule,
    force_side: Optional[Side] = None,
    sites: Optional[Sequence[Sequence[PoleSite]]] = None,
) -> List[Term]:
    """Integrate every term over Re(var) = abscissa(var) by residues and
    return the residues, one term each, unmerged.

    A root on the path counts as left of it.  ``force_side`` overrides
    the fewer-poles choice for zero-exponent terms; it exists for the
    side-consistency tests and must not be used when the exponent
    decides the side.
    ``sites`` are the canonical terms' classified poles, one list per
    term; without them the terms are canonicalized and classified here.
    """
    if sites is None:
        terms = [canonical_term(t) for t in terms]
        classify = _Classifier(var, config)
        sites = [_sites(t, classify) for t in terms]
    out: List[Term] = []
    for term, term_sites in zip(terms, sites):
        sign, poles = _collected(term, term_sites, var, rule, force_side)
        out.extend(_residue(term, var, site.factor, sign) for site in poles)
    return out


def merge_like_terms(terms: Sequence[Term]) -> List[Term]:
    """Add the coefficients of canonical terms with equal exponent and
    equal denominator, compared as a set of distinct (factor,
    multiplicity) pairs so factor order does not matter; the first term
    of each shape fixes its place and factor order, and shapes whose
    coefficients cancel are dropped."""
    merged: Dict[tuple, list] = {}
    for t in terms:
        # the exponent as integer triples: hashing a Fraction is slow
        exponent = tuple([(v, c.numerator, c.denominator) for v, c in t.exponent.items()])
        key = (exponent, frozenset(t.denom))
        entry = merged.get(key)
        if entry is None:
            merged[key] = [t, t.coeff]
        else:
            entry[1] += t.coeff
    return [
        t if total == t.coeff else Term(total, t.exponent, t.denom)
        for t, total in merged.values()
        if total != 0
    ]


# A sum of powers of one variable x: (alpha, q) -> K stands for the
# summand K * exp(alpha*x) / x^q.
PowerSum = Dict[Tuple[Fraction, int], Fraction]


def power_sum(powers: PowerSum) -> Fraction:
    """Closed form of the last one-variable inversion integral: the
    integral of K * exp(alpha*x) / x^q over a vertical path right of 0
    is K * alpha^(q-1) / (q-1)! for alpha > 0 and zero otherwise."""
    return sum((K * alpha ** (q - 1) / factorial(q - 1)
                for (alpha, q), K in powers.items() if alpha > 0), Fraction(0))


def power_terms(terms: Sequence[Term], last: int, implicit: Fraction = 0) -> PowerSum:
    """The terms, every factor a multiple of ``last``, as a power sum in
    ``last``: K divides the coefficient by the product of the factors'
    leading coefficients.  ``implicit`` is a coefficient on ``last``
    that the exponents leave out (transform's exp(p))."""
    powers: PowerSum = {}
    for t in terms:
        K, q = t.coeff, 0
        for factor, mult in t.denom:
            if factor.variables != (last,):
                raise MalformedH(
                    f"surviving denominator factor {factor} is not a power of {var_name(last)}"
                )
            K /= factor.coeff(last) ** mult
            q += mult
        assert set(t.exponent.variables) <= {last}
        key = (implicit + t.exponent.coeff(last), q)
        powers[key] = powers.get(key, 0) + K
    return {key: K for key, K in powers.items() if K != 0}


def final_level_value(term: Term, var: int) -> Fraction:
    """Closed form of the last integral of one term whose factors are
    all multiples of ``var``: :func:`power_sum` of :func:`power_terms`."""
    return power_sum(power_terms([term], var))


def _classified(
    terms: Sequence[Term], var: int, config: ContourConfig
) -> Tuple[Sequence[Term], List[List[PoleSite]], ContourConfig, int]:
    """Classify the poles of canonical terms in ``var``; a level whose
    path meets a root adds the variable and its count of on-path factors
    to the ledger.  Returns the terms, their sites, the config and 1
    where the path met a root, else 0."""
    classify = _Classifier(var, config)
    sites = [_sites(t, classify) for t in terms]
    if not classify.on_path:
        return terms, sites, config, 0
    record = PerturbationRecord(var, classify.on_path)
    return terms, sites, ContourConfig(config.abscissae, config.ledger + (record,)), 1


def _level_stats(var: int, terms: Sequence[Term], sites: Sequence[Sequence[PoleSite]],
                 repaired: int, residues: int, terms_out: int) -> LevelStats:
    flat = [s for term_sites in sites for s in term_sites]
    return LevelStats(
        var=var,
        terms_in=len(terms),
        poles_found=len(flat),
        left=sum(1 for s in flat if s.side is Side.LEFT),
        right=sum(1 for s in flat if s.side is Side.RIGHT),
        repaired=repaired,
        residues=residues,
        terms_out=terms_out,
    )


def integrate_level(
    terms: Sequence[Term],
    var: int,
    config: ContourConfig,
    rule: SideRule,
    force_side: Optional[Side] = None,
) -> Tuple[List[Term], ContourConfig, LevelStats]:
    """One full level: classify poles, integrate, then merge like terms.
    Returns the new term list, the config (its ledger extended where the
    path met a root) and the level diagnostics.

    The terms must be canonical (:func:`canonical_term`); the start
    terms of both methods are, and so is every term this returns, so
    they are not canonicalized again here."""
    terms, sites, config, repaired = _classified(terms, var, config)
    residues = integrate_var(terms, var, config, rule, force_side, sites)
    out = merge_like_terms(residues)
    return out, config, _level_stats(var, terms, sites, repaired, len(residues), len(out))


def close_level(
    terms: Sequence[Term],
    var: int,
    last: int,
    n: int,
    config: ContourConfig,
    rule: SideRule,
    force_side: Optional[Side] = None,
    implicit: Fraction = 0,
) -> Tuple[Dict[Fraction, Fraction], ContourConfig, LevelStats]:
    """The last residue level, where only ``var`` and ``last`` are left,
    fused with the closed form that follows it.

    The terms must be canonical; classification and the closure side
    are those of :func:`integrate_level`.  At the zero of
    g = a*var + g_last*last a factor f = b*var + c*last becomes
    (s/a)*last with the integer s = a*c - b*g_last, so a residue is
    K * exp(alpha*last) / last^q with K = sign * coeff * a^(q-1) /
    prod(s^mult) and alpha the exponent's coefficient on ``last`` at the
    zero (plus ``implicit``, as in :func:`power_terms`), read as a
    reduced integer pair.  A term with collected poles must have
    q = n + 1 (:class:`MalformedH` otherwise).  K is built only where
    the closed form reads it (alpha > 0).  Returns the alpha > 0 powers
    in ``last`` as alpha -> K (equal alpha added, zero sums dropped), the
    config and the level's stats (``terms_out`` is the number of powers
    returned).
    """
    terms, sites, config, repaired = _classified(terms, var, config)
    # alpha as a reduced integer pair (N, D > 0)
    powers: Dict[Tuple[int, int], Fraction] = {}
    residues = 0
    for term, term_sites in zip(terms, sites):
        sign, poles = _collected(term, term_sites, var, rule, force_side)
        if not poles:
            continue
        # (b, c, mult) of every factor, read once per term
        parts = []
        for f, mult in term.denom:
            b = c = 0
            for v, x in f.items():
                if v == var:
                    b = x
                elif v == last:
                    c = x
                else:
                    raise MalformedH(
                        f"denominator factor {f} of the last residue level holds a "
                        f"variable other than {var_name(var)} and {var_name(last)}"
                    )
            parts.append((b, c, mult))
        index = {f: j for j, (f, _) in enumerate(term.denom)}
        q = term.total_multiplicity - 1
        if q != n + 1:
            raise MalformedH(f"surviving term has {var_name(last)}-multiplicity {q}, "
                             f"expected {n + 1}")
        L = term.exponent
        assert set(L.variables) <= {var, last}
        L_var, L_last = L.coeff(var), L.coeff(last) + implicit
        # alpha = L_last - L_var*g_last/a = (x*a - y*g_last) / (z*a)
        x = L_last.numerator * L_var.denominator
        y = L_var.numerator * L_last.denominator
        z = L_last.denominator * L_var.denominator
        for site in poles:
            jg = index[site.factor]
            a, g_last, _ = parts[jg]
            N, D = x * a - y * g_last, z * a
            if D < 0:
                N, D = -N, -D
            if N > 0:
                h = gcd(N, D)
                key = (N // h, D // h)
                powers[key] = powers.get(key, 0) + _pole_power(sign, term, parts, jg, q)
        residues += len(poles)
    powers = {Fraction(N, D): K for (N, D), K in powers.items() if K != 0}
    stats = _level_stats(var, terms, sites, repaired, residues, len(powers))
    return powers, config, stats


def _pole_power(sign: int, term: Term, parts: Sequence[Tuple[int, int, int]], jg: int,
                q: int) -> Fraction:
    """K of :func:`close_level`'s residue at the zero of the term's
    factor ``jg``, from the (b, c, mult) ``parts`` of its factors."""
    a, g_last, _ = parts[jg]
    den = term.coeff.denominator
    for j, (b, c, mult) in enumerate(parts):
        if j != jg:
            s = a * c - b * g_last
            den *= s if mult == 1 else s ** mult
    return Fraction(sign * term.coeff.numerator * a ** (q - 1), den)
