"""Shared symbolic machinery for iterated Bromwich integration.

A term is one summand of a partially integrated integrand,

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
* a root lying exactly on a path counts as left of it, which reads the
  path as moved right by an infinitesimal (symbolic perturbation; the
  argument that this is exact is in :mod:`lapvol.engine`).

Slot layout.  A run's variables sit in slots, the config's variables in
ascending id (:attr:`ContourConfig.slots`): l1..lm for the direct
method, the l_j with j != r and then p for the transform.  A term is the
plain tuple ``(coeff, exponent, denom)``: ``coeff`` a Fraction,
``denom`` a tuple of ``(factor, mult)`` pairs, and every form a tuple
of ints, one per slot.

Canonical factors.  A factor is primitive: coprime ints with a positive
entry on its last nonzero slot, the highest-index variable
(:func:`primitive`); the scale is folded into ``coeff``.
Proportional factors are then equal tuples, so a pole is named by its
factor, and the residue at the zero of g (entry a on the variable's
slot) maps a factor f with entry b to the integer form a*f - b*g divided
by its content.  An exponent is a pair ``(den, ints)`` standing for
ints/den, with den > 0 and gcd(den, *ints) == 1, so equal exponents are
equal pairs; at the zero of g it becomes (a*L - L_k*g) / (a*den),
reduced, the same elimination as a factor's.  Forms stay int tuples
from the start term to the messages of refusals and errors, which
:func:`lapvol.linforms.form_str` writes from the tuples and their slots.

Like-term merging.  Residues of distinct pole sequences often share
their exponent and denominator (Brion & Vergne, JAMS 1997, sum iterated
residues over distinct sequences).  :func:`integrate_level` groups such
terms once per level, adds each group's coefficients by
:func:`tree_sum`, keeps the first term of each shape in insertion order,
and drops the shapes whose coefficients cancel to zero.  The closing
level adds the K of one shape, and :func:`lapvol.engine.run` the
closing powers, by the same balanced tree of additions, not by a running
total.  Fraction addition is exact, so only the cost changes: a running
total adds each term to a number near the size of the result and
reduces that sum by a gcd, while the tree adds operands of like size
and leaves the full-size additions to its last rounds.

Closure side.  A level closes on the decay side of exp(a*var) where the
exponent's coefficient a is nonzero, else on the side with fewer poles
(both closures agree up to sign); this holds for any term, so both
methods run the same levels.

Integer ends.  One builder, :func:`lapvol.engine.start_term`, writes
the start term of either method down from the integer columns that the
normalized instance carries (:func:`lapvol.polytope.integer_columns`,
computed once per instance), each column factor made primitive and its
scale folded into the coefficient once.  The last residue level is
fused with the closed form (:func:`close_level`): with only ``var``
and ``last`` left, every factor b*var + c*last maps at the zero of
a*var + g*last to (a*c - b*g)/a times ``last``, so each residue is one
pair (alpha, K) standing for K * exp(alpha*last) / last^(n+1),
computed from integer products without building a term.  The volume is
homogeneous of degree n in b, so n + 1 is the only degree: the closing
level refuses any other.  The closed form K * alpha^n / n! keeps only
alpha > 0, so alpha is read first and K built only there; the closing
level's ``terms_out`` counts the alpha > 0 powers it returns.  A level
reads each factor once per job: :func:`_classified` fixes the sides of
the level's distinct factors in one pass, and :func:`_collected`'s one
pass per term gives the closure, the poles as positions in the term's
denominator and, at the closing level, the (b, c, mult) of every factor
that K is built from.  The scan for a
factor holding a third variable runs only where a third slot exists.

Integer kernel.  A level classifies each distinct factor holding the
variable once, in one pass over the terms: its entry on the variable's
slot and its dot product with the integer contour point
(:attr:`ContourConfig.point`, the abscissae in slot order times their
common denominator) fix the pole's side; a zero product puts the root on
the path, where it counts as left, and the level adds the number of
such factors to the config's ledger.
The closing level keys its powers by alpha as a reduced integer pair,
built only for alpha > 0; each power kept gets a Fraction alpha once.

Repeated roots.  Equal factors are one factor with a multiplicity, from
the start term on; :func:`_collected` is the one place that refuses a
collected pole of order > 1 rather than differentiate through it.
"""
from __future__ import annotations

import enum
from fractions import Fraction
from math import factorial, gcd, prod
from operator import mul
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import DegenerateInstance, DivergentSlice, MalformedH
from .linforms import form_str, integer_scaled, var_name

Factor = Tuple[int, ...]
Exponent = Tuple[int, Factor]
Term = Tuple[Fraction, Exponent, Tuple[Tuple[Factor, int], ...]]


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


def _term_str(term: Term, slots: Sequence[int]) -> str:
    coeff, (den, L), denom = term
    factors = " * ".join(f"({form_str(zip(slots, f))})" + (f"^{mult}" if mult > 1 else "")
                         for f, mult in denom)
    exponent = form_str([(v, Fraction(c, den)) for v, c in zip(slots, L)])
    return f"{coeff} * e^({exponent}) / [{factors}]"


def primitive(ints: Sequence[int]) -> Tuple[int, Factor]:
    """Split a nonzero integer form as ``(content, factor)``: the factor
    is primitive and ``content`` the signed integer it was divided by."""
    s = gcd(*ints)
    if next(filter(None, reversed(ints))) < 0:
        s = -s
    return s, tuple([c // s for c in ints])


class PerturbationRecord(NamedTuple):
    var: int      # the level whose path met poles
    on_path: int  # its distinct factors with their root on the path


class _Contour(NamedTuple):
    abscissae: Mapping[int, Fraction]
    ledger: Tuple[PerturbationRecord, ...]
    slots: Tuple[int, ...]  # the variables in ascending id: the terms' slot layout
    point: Factor           # the abscissae in slot order times their common
                            # denominator: ints with the abscissae's signs and ratios


class ContourConfig(_Contour):
    """Real abscissae of the vertical integration paths plus the ledger
    of the levels whose path met a pole, in level order.  ``slots`` and
    ``point`` are derived once, here; ``_replace`` keeps them."""

    __slots__ = ()

    def __new__(cls, abscissae: Mapping[int, Fraction],
                ledger: Tuple[PerturbationRecord, ...] = ()):
        slots = tuple(sorted(abscissae))
        point = integer_scaled([abscissae[v] for v in slots])[1]
        return super().__new__(cls, abscissae, ledger, slots, point)

    def __getnewargs__(self):  # copy and pickle call __new__ with these
        return self.abscissae, self.ledger


class LevelStats(NamedTuple):
    """Counts of one level: ``residues`` before like-term merging, the
    residues the exponent bound drops unbuilt included, ``terms_out``
    after it.  At the closing level ``terms_out`` is the number of
    alpha > 0 powers kept, so ``residues - terms_out`` counts the
    residues merged or dropped for alpha <= 0.  ``repaired`` is 1 where
    the level's path met a pole, else 0."""

    var: int
    terms_in: int
    poles_found: int
    left: int
    right: int
    repaired: int
    residues: int
    terms_out: int


LEFT, RIGHT = Side.LEFT, Side.RIGHT


def _classified(terms: Sequence[Term], var: int, config: ContourConfig):
    """Classify the distinct factors holding ``var`` in one pass.  With
    f = a*var + rest, f's value at the path point is a*(path - root), so
    its sign against a's gives the root's side; a root on the path counts
    as left, and the level's count of them goes to the ledger.  Returns
    var's slot, the sides by factor in first-seen order, the config and
    ``repaired``."""
    k = config.slots.index(var)
    point = config.point
    sides: Dict[Factor, Side] = {}
    on_path = 0
    for _, _, denom in terms:
        for f, _ in denom:
            if f[k] and f not in sides:
                at_path = sum(map(mul, f, point))
                if at_path:
                    sides[f] = LEFT if (at_path > 0) == (f[k] > 0) else RIGHT
                else:
                    sides[f] = LEFT
                    on_path += 1
    if on_path:
        config = config._replace(ledger=config.ledger + (PerturbationRecord(var, on_path),))
    return k, sides, config, min(on_path, 1)


def _collected(term: Term, k: int, sides: Mapping[Factor, Side], force_side: Optional[Side],
               slots: Sequence[int], j: Optional[int] = None):
    """The closure of the term's integral over the variable in slot
    ``k``, from one pass over its factors: the sign (-1 for a clockwise
    right closure), the positions in the term's denominator of the
    simple poles it collects, and the term's pole count and left pole
    count.  With ``j``, the slot of the last variable, the same pass
    also gives the (b, c, mult) of every factor (b its entry in slot
    ``k``, c in slot ``j``) and the term's degree minus one.

    The closure is on the decay side of exp(a*var) when the exponent's
    coefficient a is nonzero (a > 0 left, a < 0 right), else on the side
    with fewer poles, or on ``force_side``."""
    denom = term[2]
    left: List[int] = []
    right: List[int] = []
    parts = []
    q = -1
    for i, (f, mult) in enumerate(denom):
        b = f[k]
        if b:
            (left if sides[f] is LEFT else right).append(i)
        if j is not None:
            parts.append((b, f[j], mult))
            q += mult
    a = term[1][1][k]
    if a:
        poles = left if a > 0 else right
    else:
        # no exponential decay: both closures are valid only when the
        # integrand dies off at least quadratically
        degree = sum([denom[i][1] for i in left + right])
        if degree < 2:
            raise DivergentSlice(
                f"term {_term_str(term, slots)} has degree {degree} in "
                f"{var_name(slots[k])} and no exponential decay"
            )
        if force_side is not None:
            poles = left if force_side is LEFT else right
        else:
            poles = left if len(left) <= len(right) else right
    for i in poles:
        f, mult = denom[i]
        if mult != 1:
            root = form_str([(v, Fraction(-c, f[k])) for i, (v, c) in enumerate(zip(slots, f))
                             if i != k])
            raise DegenerateInstance(
                f"pole of order {mult} at {var_name(slots[k])} = {root}; "
                "coincident denominator factors before the final level. "
                "A tiny random perturbation of A removes the coincidence at the "
                "price of an approximate volume."
            )
    return (1 if poles is left else -1), poles, len(left) + len(right), len(left), parts, q


def _residue(term: Term, k: int, g: Factor, sign: int) -> Term:
    """``sign`` times the residue of a canonical term at the zero of its
    factor ``g`` (a simple pole), a canonical term with slot ``k`` zero.

    With a = g[k], the root substituted into a factor f with b = f[k]
    gives (a*f - b*g)/a = (s/a)*h for the primitive h and its signed
    content s, so each such factor multiplies the coefficient by
    (a/s)^mult, and the dropped factor g divides it by a.  The exponent
    becomes (a*L - L[k]*g) / (a*den), reduced.
    """
    coeff, exponent, denom = term
    a = g[k]
    num, den = sign * coeff.numerator, a * coeff.denominator
    out: Dict[Factor, int] = {}
    for f, mult in denom:
        b = f[k]
        if b:
            if f is g:
                continue
            # primitive(), inlined: this is the kernel's innermost loop
            h = [a * x - b * y for x, y in zip(f, g)]
            s = gcd(*h)
            if next(filter(None, reversed(h))) < 0:
                s = -s
            f = tuple([x // s for x in h]) if s != 1 else tuple(h)
            if mult == 1:
                num *= a
                den *= s
            else:
                num *= a ** mult
                den *= s ** mult
        out[f] = out.get(f, 0) + mult
    e_den, L = exponent
    c = L[k]
    if c:
        e_den *= a
        L = [a * x - c * y for x, y in zip(L, g)]
        t = gcd(e_den, *L)
        if e_den < 0:
            t = -t
        exponent = e_den // t, tuple([x // t for x in L])
    return Fraction(num, den), exponent, tuple(out.items())


def tree_sum(values: Sequence):
    """The sum of ``values`` (0 when empty) by a balanced tree of exact
    additions: each round adds neighbours pairwise, so the operands of an
    addition have about the same size, not a running total against one
    term, and each reducing gcd works on the smallest numbers it can."""
    while len(values) > 1:
        odd = values[-1:] if len(values) % 2 else []
        values = [x + y for x, y in zip(values[::2], values[1::2])] + odd
    return values[0] if values else 0


def merge_like_terms(terms: Sequence[Term]) -> List[Term]:
    """Add the coefficients of canonical terms with equal exponent and
    equal denominator, compared as a set of distinct (factor,
    multiplicity) pairs so factor order does not matter; the first term
    of each shape fixes its place and factor order, the coefficients of
    a shape are added by :func:`tree_sum`, and shapes whose coefficients
    cancel are dropped."""
    merged: Dict[tuple, list] = {}
    for t in terms:
        key = (t[1], frozenset(t[2]))
        entry = merged.get(key)
        if entry is None:
            merged[key] = [t]
        else:
            entry.append(t)
    out = []
    for like in merged.values():
        t = like[0]
        if len(like) > 1:
            t = (tree_sum([u[0] for u in like]), t[1], t[2])
        if t[0]:
            out.append(t)
    return out


def final_level_value(term: Term) -> Fraction:
    """Closed form of the last integral of one term over one slot,
    K * exp(alpha*x) / x^q with K the coefficient over the product of
    the factors' entries: over a vertical path right of 0 it is
    K * alpha^(q-1) / (q-1)! for alpha > 0 and zero otherwise."""
    coeff, (den, (L,)), denom = term
    if L <= 0:
        return Fraction(0)
    q = sum([mult for _, mult in denom])
    K = coeff / prod([c ** mult for (c,), mult in denom])
    return K * Fraction(L, den) ** (q - 1) / factorial(q - 1)


def integrate_level(
    terms: Sequence[Term],
    var: int,
    config: ContourConfig,
    force_side: Optional[Side] = None,
    prune: bool = False,
) -> Tuple[List[Term], ContourConfig, LevelStats]:
    """One full level: classify poles, take the residues, then merge like
    terms.  Returns the new term list, the config (its ledger extended
    where the path met a pole) and the level diagnostics.

    The terms must be canonical, as the start terms of both methods and
    every term this returns are.  ``force_side`` overrides the
    fewer-poles choice for the terms whose exponent does not hold
    ``var``; it exists for the side-consistency tests.

    With ``prune`` the level applies the exponent bound
    (:mod:`lapvol.engine`) at the contour point c: a residue whose
    exponent is negative at c is not built, and ``residues`` still
    counts it.  At the zero of g, a = g[k], the exponent
    (a*L - L[k]*g) / (a*den) with den > 0 has the sign of
    a*(a*L(c) - L[k]*g(c)) at c, so one dot product L(c) per term and
    one g(c) per pole decide every sign exactly before any residue is
    built; where L[k] = 0 the sign is L(c)'s.  Without ``prune`` every
    residue is built.
    """
    k, sides, config, repaired = _classified(terms, var, config)
    slots, point = config.slots, config.point
    residues = []
    poles_found = left = count = 0
    for term in terms:
        sign, poles, found, n_left, _, _ = _collected(term, k, sides, force_side, slots)
        poles_found += found
        left += n_left
        if not poles:
            continue
        count += len(poles)
        L = term[1][1]
        Lc, c = sum(map(mul, L, point)), L[k]
        for i in poles:
            g = term[2][i][0]
            a = g[k]
            if not prune or (a * (a * Lc - c * sum(map(mul, g, point))) if c else Lc) >= 0:
                residues.append(_residue(term, k, g, sign))
    out = merge_like_terms(residues)
    return out, config, LevelStats(var, len(terms), poles_found, left, poles_found - left,
                                   repaired, count, len(out))


def close_level(
    terms: Sequence[Term],
    var: int,
    last: int,
    n: int,
    config: ContourConfig,
    force_side: Optional[Side] = None,
) -> Tuple[Dict[Fraction, Fraction], ContourConfig, LevelStats]:
    """The last residue level, where only ``var`` and ``last`` are left,
    fused with the closed form that follows it.

    The terms must be canonical; classification and the closure side
    are those of :func:`integrate_level`.  At the zero of
    g = a*var + g_last*last a factor f = b*var + c*last becomes
    (s/a)*last with the integer s = a*c - b*g_last, so a residue is
    K * exp(alpha*last) / last^q with K = sign * coeff * a^(q-1) /
    prod(s^mult) and alpha the exponent's coefficient on ``last`` at the
    zero, read as a reduced integer pair.  The volume is homogeneous of
    degree n in b, so every term with collected poles must have
    q = n + 1; any other degree is refused (:class:`MalformedH`).  K is
    built only where the closed form reads it (alpha > 0).  Returns the
    alpha > 0 powers in ``last`` as alpha -> K (equal alpha added,
    first-seen order, zero sums dropped), the config and the level's
    stats (``terms_out`` is the number of powers returned).
    """
    k, sides, config, repaired = _classified(terms, var, config)
    slots = config.slots
    j = slots.index(last)
    rest = [i for i in range(len(slots)) if i != k and i != j]
    checked = set()
    # alpha as a reduced integer pair (N, D > 0)
    powers: Dict[Tuple[int, int], list] = {}
    poles_found = left = residues = 0
    for term in terms:
        sign, poles, found, n_left, parts, q = _collected(term, k, sides, force_side, slots, j)
        poles_found += found
        left += n_left
        if not poles:
            continue
        coeff, (den, L), denom = term
        if rest and not checked.issuperset(denom):
            for f, _ in denom:
                if any(f[i] for i in rest):
                    raise MalformedH(
                        f"denominator factor {form_str(zip(slots, f))} of the last residue level "
                        f"holds a variable other than {var_name(var)} and {var_name(last)}"
                    )
            checked.update(denom)
        if q != n + 1:
            raise MalformedH(f"surviving term has {var_name(last)}-multiplicity {q}, "
                             f"expected {n + 1}")
        # alpha = L_last - L_var*g_last/a = (x*a - y*g_last) / (den*a)
        x, y = L[j], L[k]
        for jg in poles:
            a, g_last, _ = parts[jg]
            N, D = x * a - y * g_last, den * a
            if D < 0:
                N, D = -N, -D
            if N > 0:
                h = gcd(N, D)
                powers.setdefault((N // h, D // h), []).append(
                    _pole_power(sign, coeff, parts, jg, q))
        residues += len(poles)
    powers = {Fraction(N, D): K for (N, D), Ks in powers.items() if (K := tree_sum(Ks))}
    stats = LevelStats(var, len(terms), poles_found, left, poles_found - left, repaired,
                       residues, len(powers))
    return powers, config, stats


def _pole_power(sign: int, coeff: Fraction, parts: Sequence[Tuple[int, int, int]], jg: int,
                q: int) -> Fraction:
    """K of :func:`close_level`'s residue at the zero of the term's
    factor ``jg``, from the (b, c, mult) ``parts`` of its factors."""
    a, g_last, _ = parts[jg]
    den = coeff.denominator
    for i, (b, c, mult) in enumerate(parts):
        if i != jg:
            s = a * c - b * g_last
            den *= s if mult == 1 else s ** mult
    return Fraction(sign * coeff.numerator * a ** (q - 1), den)

