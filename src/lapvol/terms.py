"""Shared symbolic machinery for iterated Bromwich integration.

A :class:`Term` is one summand of a partially integrated integrand,

    coeff * exp(L) / product(factor_i ** mult_i),

where L and every factor are homogeneous linear forms over the not yet
integrated variables (evaluated at z = 1 throughout).  Integrating one
variable along its vertical path Re(var) = c_var turns a list of terms
into a new list via Cauchy residues at simple poles:

* each denominator factor containing the variable contributes a pole at
  its root, a linear form in the later variables;
* the side of the root relative to the path picks whether the left or
  right half-plane closure collects it; right closures are traversed
  clockwise, so their residue sum enters with a minus sign;
* poles landing exactly on a path are repaired by nudging that path's
  abscissa (the on-line perturbation), never by moving the pole.

Canonical factors.  Every denominator factor is kept in its primitive
form (:meth:`LinForm.primitive`): coprime integer coefficients with a
positive coefficient on the highest-index variable, the scale folded
into ``coeff``.  Proportional factors are then equal, so a pole is
named by its factor, and the residue at the zero of g (coefficient a on
the variable) maps a factor f with coefficient b to the integer form
a*f - b*g divided by its content, without any rational substitution.

Like-term merging.  Residues of distinct pole sequences often share
their exponent and denominator (Brion & Vergne, JAMS 1997, sum iterated
residues over distinct sequences).  :func:`integrate_level` adds the
coefficients of such terms once per level, keeps the first term of each
shape in insertion order, and drops the shapes whose coefficients
cancel to zero.

Integer ends.  The start terms of both methods are built from the
integer columns that the normalized instance carries
(:func:`lapvol.polytope.integer_columns`, computed once per instance):
each column factor is written down directly as a primitive integer form
and its scale folded into the coefficient once.  The last residue level
is fused with the closed form (:func:`close_level`): with only ``var``
and ``last`` left, every factor b*var + c*last maps at the zero of
a*var + g*last to (a*c - b*g)/a times ``last``, so each residue is one
pair (alpha, K) standing for K * exp(alpha*last) / last^q, computed from
integer products without building a Term.  :func:`power_sum` is the one
closed form for such powers of one variable; it keeps only alpha > 0, so
alpha is read first and K built only where it is kept or where an
alpha <= 0 shape repeats (to count the level's shapes exactly).

Repeated roots before the final level mean the data are degenerate and
are rejected rather than differentiated through.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import DegenerateInstance, DivergentSlice, MalformedH
from .linforms import LinForm, var_name


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    ON_PATH = "on-path"


class SideRule(enum.Enum):
    """How integrate_var picks the closure half-plane.

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
        if g is not f:
            coeff /= scale ** mult
        denom[g] = denom.get(g, 0) + mult
    if coeff is term.coeff and len(denom) == len(term.denom):
        return term
    return Term(coeff, term.exponent, tuple(denom.items()))


def coincident_pair(factors: Sequence[LinForm]) -> Optional[Tuple[int, int]]:
    """The indices of the first pair (in index order) of proportional
    factors, or None.  Proportional factors share a primitive form."""
    groups: Dict[LinForm, List[int]] = {}
    for i, f in enumerate(factors):
        groups.setdefault(f.primitive()[1], []).append(i)
    repeated = [idx for idx in groups.values() if len(idx) > 1]
    if not repeated:
        return None
    a, b = min(repeated)[:2]
    return a, b


@dataclass(frozen=True)
class PoleSite:
    """One distinct root of ``var`` in a term's denominator: the zero of
    the primitive ``factor``.  The root and the leading coefficient are
    derived from the factor when read (perturbation and messages only).
    """

    factor: LinForm
    var: int
    side: Side
    order: int

    @property
    def leading(self) -> Fraction:
        return self.factor.coeff(self.var)

    @cached_property
    def root(self) -> LinForm:
        return self.factor.solve_for(self.var)[1]


@dataclass(frozen=True)
class PerturbationRecord:
    var: int
    delta: Fraction    # post-repair distance from the path to the nearest pole
    epsilon: Fraction  # how far the abscissa moved


@dataclass(frozen=True)
class ContourConfig:
    """Real abscissae of the vertical integration paths plus the ledger
    of on-line perturbations applied so far.

    ``domain_ok`` is the method-specific strict-feasibility predicate
    (condition (a) of the perturbation step); it receives a candidate
    abscissae mapping and must hold at all times.
    """

    abscissae: Mapping[int, Fraction]
    ledger: Tuple[PerturbationRecord, ...] = ()
    domain_ok: Callable[[Mapping[int, Fraction]], bool] = field(
        default=lambda _: True, compare=False, repr=False
    )

    def abscissa(self, var: int) -> Fraction:
        return self.abscissae[var]

    def with_abscissa(self, var: int, value: Fraction, record: PerturbationRecord) -> "ContourConfig":
        updated = dict(self.abscissae)
        updated[var] = value
        return ContourConfig(updated, self.ledger + (record,), self.domain_ok)


@dataclass(frozen=True)
class LevelStats:
    """Counts of one level: ``residues`` before like-term merging,
    ``terms_out`` after it."""

    var: int
    terms_in: int
    poles_found: int
    left: int
    right: int
    repaired: int
    residues: int
    terms_out: int


# level history entries: (var, classified pole sites under the final config)
History = List[Tuple[int, Tuple[PoleSite, ...]]]


def poles_of(term: Term, var: int, config: ContourConfig) -> List[PoleSite]:
    """Distinct poles of the term in ``var``, classified against the
    path Re(var) = abscissa(var).

    Factors sharing a root are one site whose order is the sum of their
    multiplicities; proportional factors share a primitive form, so
    scaled copies of a factor correctly pile up into a higher-order site.
    """
    return _sites(canonical_term(term), _Classifier(var, config))


class _Classifier:
    """Classifies each distinct primitive factor once per level.

    With factor = a*var + rest, the factor's value at the path point is
    a*(path - root), so the side follows from the signs of that value
    and of a.  The value's sign is read from integers: the abscissae
    scaled by their common denominator.
    """

    def __init__(self, var: int, config: ContourConfig):
        self.var = var
        den = lcm(*(x.denominator for x in config.abscissae.values()))
        self.point = {v: int(x * den) for v, x in config.abscissae.items()}
        self.sites: Dict[LinForm, Optional[PoleSite]] = {}

    def site(self, factor: LinForm) -> Optional[PoleSite]:
        """The simple-pole site of the factor, or None if the factor does
        not contain the variable."""
        try:
            return self.sites[factor]
        except KeyError:
            pass
        a = factor.coeff(self.var)
        site = None
        if a != 0:
            at_path = sum(c * self.point[v] for v, c in factor.items())
            if at_path == 0:
                side = Side.ON_PATH
            elif (at_path > 0) == (a > 0):
                side = Side.LEFT
            else:
                side = Side.RIGHT
            site = PoleSite(factor, self.var, side, 1)
        self.sites[factor] = site
        return site

    def distinct(self) -> List[PoleSite]:
        return [s for s in self.sites.values() if s is not None]


def _sites(term: Term, classify: _Classifier) -> List[PoleSite]:
    """poles_of for a canonical term, whose factors are distinct."""
    sites = []
    for f, mult in term.denom:
        site = classify.site(f)
        if site is not None:
            sites.append(site if mult == 1 else replace(site, order=mult))
    return sites


def _require_simple(var: int, pole: PoleSite) -> None:
    if pole.order != 1:
        raise DegenerateInstance(
            f"pole of order {pole.order} at {var_name(var)} = {pole.root}; "
            "coincident denominator factors before the final level. "
            "A tiny random perturbation of A removes the coincidence at the "
            "price of an approximate volume."
        )


def residue_simple(term: Term, var: int, pole: PoleSite) -> Term:
    """Residue of the term at a simple pole, as a new canonical term
    without ``var``.

    The vanishing factor is dropped and divides the coefficient by its
    leading coefficient; the root is substituted everywhere else.
    """
    _require_simple(var, pole)
    return _residue(canonical_term(term), var, pole.factor.primitive()[1], 1)


def _eliminate(f: LinForm, g: LinForm, var: int, a: int, b: int) -> Tuple[LinForm, int]:
    """a*f - b*g, which has no ``var``, as (primitive form h, content s)
    with a*f - b*g = s*h."""
    acc = {v: a * c for v, c in f.items()}
    for v, c in g.items():
        acc[v] = acc.get(v, 0) - b * c
    s, h = LinForm.from_ints(sorted(vc for vc in acc.items() if vc[1]))
    return h, s


def _residue(term: Term, var: int, g: LinForm, sign: int) -> Term:
    """``sign`` times the residue of a canonical term at the zero of its
    factor ``g`` (a simple pole).

    With a = g's coefficient on ``var``, the root substituted into a
    factor f with coefficient b gives (a*f - b*g)/a = (s/a)*h for the
    primitive h, so each such factor multiplies the coefficient by
    (a/s)^mult, and the dropped factor g divides it by a.
    """
    a = g.coeff(var)
    num, den = sign * term.coeff.numerator, a * term.coeff.denominator
    denom: Dict[LinForm, int] = {}
    vanished = 0
    for f, mult in term.denom:
        b = f.coeff(var)
        if b != 0:
            if f == g:
                vanished += mult
                continue
            f, s = _eliminate(f, g, var, a, b)
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
    if any(s.side is Side.ON_PATH for s in term_sites):
        raise RuntimeError(
            f"pole on the integration path Re({var_name(var)}); "
            "perturb_abscissa must run before integrate_var"
        )
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

    Precondition: no pole sits on the path (repair first with
    :func:`perturb_abscissa`).  ``force_side`` overrides the fewer-poles
    choice for zero-exponent terms; it exists for the side-consistency
    tests and must not be used when the exponent decides the side.
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
        key = (t.exponent, frozenset(t.denom))
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
    by_degree: Dict[int, Fraction] = {}
    for (alpha, q), K in powers.items():
        if alpha > 0:
            by_degree[q] = by_degree.get(q, 0) + K * alpha ** (q - 1)
    return sum((v / factorial(q - 1) for q, v in by_degree.items()), Fraction(0))


def power_terms(terms: Sequence[Term], last: int, implicit: Fraction = 0) -> PowerSum:
    """The terms, every factor a multiple of ``last``, as a power sum in
    ``last``: K divides the coefficient by the product of the factors'
    leading coefficients.  ``implicit`` is a coefficient on ``last``
    that the exponents leave out (transform's exp(p))."""
    powers: PowerSum = {}
    for t in terms:
        K, q = t.coeff, 0
        for factor, mult in t.denom:
            if not factor.is_multiple_of_var(last):
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


def perturb_abscissa(
    config: ContourConfig,
    var: int,
    level_sites: Sequence[PoleSite],
    history: History,
) -> ContourConfig:
    """Move the path Re(var) off a colliding pole without disturbing any
    earlier classification.

    The shift epsilon > 0 is halved from 1 until three exact conditions
    hold: (a) the method's strict domain constraint still holds, (b) no
    pole of this level sits on the new path, (c) every pole recorded at
    the earlier levels keeps its original side once re-evaluated with
    the shifted abscissa.  A valid epsilon always exists because each
    condition is a finite set of strict inequalities satisfied for all
    small enough shifts.
    """
    values = sorted({site.root.evaluate(config.abscissae) for site in level_sites})
    path = config.abscissa(var)
    if path not in values:
        return config  # nothing on the path; no repair needed
    eps = Fraction(1)
    for _ in range(512):
        candidate = path + eps
        trial = dict(config.abscissae)
        trial[var] = candidate
        if (
            config.domain_ok(trial)
            and all(v != candidate for v in values)
            and _sides_stable(history, trial)
        ):
            delta = min(abs(v - candidate) for v in values)
            record = PerturbationRecord(var, delta, eps)
            return config.with_abscissa(var, candidate, record)
        eps /= 2
    raise AssertionError("no admissible perturbation found; cannot happen")


def _sides_stable(history: History, trial: Mapping[int, Fraction]) -> bool:
    for lvl_var, sites in history:
        path = trial[lvl_var]
        for site in sites:
            value = site.root.evaluate(trial)
            if site.side is Side.LEFT and not value < path:
                return False
            if site.side is Side.RIGHT and not value > path:
                return False
    return True


def _classified(
    terms: Sequence[Term], var: int, config: ContourConfig, history: History
) -> Tuple[List[Term], List[List[PoleSite]], ContourConfig, int]:
    """Canonicalize the terms and classify their poles in ``var``,
    repairing an on-path collision first, and record the classification
    in ``history``.  Returns the terms, their sites, the (possibly
    perturbed) config and the number of repairs."""
    terms = [canonical_term(t) for t in terms]
    classify = _Classifier(var, config)
    sites = [_sites(t, classify) for t in terms]
    repaired = 0
    if any(s.side is Side.ON_PATH for s in classify.distinct()):
        config = perturb_abscissa(config, var, classify.distinct(), history)
        repaired = 1
        classify = _Classifier(var, config)
        sites = [_sites(t, classify) for t in terms]
        assert not any(s.side is Side.ON_PATH for s in classify.distinct())
    history.append((var, tuple(classify.distinct())))
    return terms, sites, config, repaired


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
    history: History,
    force_side: Optional[Side] = None,
) -> Tuple[List[Term], ContourConfig, LevelStats]:
    """One full level: classify poles, repair on-path collisions, record
    the classification, integrate, then merge like terms.  Returns the
    new term list, the (possibly perturbed) config and the level
    diagnostics."""
    terms, sites, config, repaired = _classified(terms, var, config, history)
    residues = integrate_var(terms, var, config, rule, force_side, sites)
    out = merge_like_terms(residues)
    return out, config, _level_stats(var, terms, sites, repaired, len(residues), len(out))


def close_level(
    terms: Sequence[Term],
    var: int,
    last: int,
    config: ContourConfig,
    rule: SideRule,
    history: History,
    force_side: Optional[Side] = None,
    implicit: Fraction = 0,
) -> Tuple[PowerSum, set, ContourConfig, LevelStats]:
    """The last residue level, where only ``var`` and ``last`` are left,
    fused with the closed form that follows it.

    Classification, repair and the closure side are those of
    :func:`integrate_level`.  At the zero of g = a*var + g_last*last a
    factor f = b*var + c*last becomes (s/a)*last with the integer
    s = a*c - b*g_last, so a residue is K * exp(alpha*last) / last^q
    with K = sign * coeff * a^(q-1) / prod(s^mult) and alpha the
    exponent's coefficient on ``last`` at the zero (plus ``implicit``,
    as in :func:`power_terms`).  K is built only where
    :func:`power_sum` reads it (alpha > 0) and for alpha <= 0 shapes hit
    twice or more, to see whether they cancel.  Returns the alpha > 0
    powers in ``last`` (equal (alpha, q) added, zero sums dropped), the
    degrees q of the terms with collected poles, the config and the
    level's stats (``terms_out`` counts the alpha <= 0 shapes too).
    """
    terms, sites, config, repaired = _classified(terms, var, config, history)
    powers: PowerSum = {}
    dead: Dict[Tuple[Fraction, int], list] = {}
    degrees = set()
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
        degrees.add(q)
        L = term.exponent
        assert set(L.variables) <= {var, last}
        L_var, L_last = L.coeff(var), L.coeff(last) + implicit
        for site in poles:
            jg = index[site.factor]
            a, g_last, _ = parts[jg]
            alpha = L_last - L_var * Fraction(g_last, a) if L_var else L_last
            key = (alpha, q)
            if alpha > 0:
                powers[key] = powers.get(key, 0) + _pole_power(sign, term, parts, jg, q)
            else:
                dead.setdefault(key, []).append((sign, term, parts, jg, q))
        residues += len(poles)
    # one residue has K != 0 (coeff, a and every s are), so only a
    # repeated alpha <= 0 shape can cancel
    dead_out = sum(len(hits) == 1 or sum(_pole_power(*h) for h in hits) != 0
                   for hits in dead.values())
    powers = {key: K for key, K in powers.items() if K != 0}
    stats = _level_stats(var, terms, sites, repaired, residues, len(powers) + dead_out)
    return powers, degrees, config, stats


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


def require_degree(degrees, last: int, n: int) -> None:
    """Every power of ``last`` the closed form sums must be last^(n+1)."""
    bad = degrees - {n + 1}
    if bad:
        raise MalformedH(f"surviving term has {var_name(last)}-multiplicity {min(bad)}, "
                         f"expected {n + 1}")
