"""The residue kernel against the kernel it replaced.

The reference below is the per-level kernel as it was before the integer
contour point, the one-pass pole classification and the inline
elimination: the contour point rebuilt from Fraction products at every
level, the coefficient on the variable and the value at the point read
in two passes, every input term canonicalized again, each elimination
through ``LinForm.from_ints``, and the closing level's alpha built as a
Fraction for every residue.  ``integrate_level`` and ``close_level`` must
return exactly what it returns: equal terms with their factors in the
same order, equal pole sites in the history, equal LevelStats and equal
ledgers, or the same refusal.
"""
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import lcm

import lapvol as lv
from lapvol.direct import _direct_domain, initial_term, integration_order
from lapvol.linforms import LinForm, P_VAR, var_name
from lapvol.polytope import contour_seed
from lapvol.terms import (
    ContourConfig,
    PoleSite,
    Side,
    SideRule,
    Term,
    _collected,
    _level_stats,
    _pole_power,
    _substitute_exponent,
    canonical_term,
    close_level,
    integrate_level,
    merge_like_terms,
    perturb_abscissa,
)
from lapvol.transform import _transform_domain, eliminated_var, substituted_term

from test_closing_level import draws, outcome, prime_row_draws


class ReferenceClassifier:
    def __init__(self, var, config):
        self.var = var
        den = lcm(*(x.denominator for x in config.abscissae.values()))
        self.point = {v: int(x * den) for v, x in config.abscissae.items()}
        self.sites = {}

    def site(self, factor):
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

    def distinct(self):
        return [s for s in self.sites.values() if s is not None]


def reference_sites(term, classify):
    sites = []
    for f, mult in term.denom:
        site = classify.site(f)
        if site is not None:
            sites.append(site if mult == 1 else replace(site, order=mult))
    return sites


def reference_eliminate(f, g, var, a, b):
    acc = {v: a * c for v, c in f.items()}
    for v, c in g.items():
        acc[v] = acc.get(v, 0) - b * c
    s, h = LinForm.from_ints(sorted(vc for vc in acc.items() if vc[1]))
    return h, s


def reference_residue(term, var, g, sign):
    a = g.coeff(var)
    num, den = sign * term.coeff.numerator, a * term.coeff.denominator
    denom = {}
    vanished = 0
    for f, mult in term.denom:
        b = f.coeff(var)
        if b != 0:
            if f == g:
                vanished += mult
                continue
            f, s = reference_eliminate(f, g, var, a, b)
            num *= a ** mult
            den *= s ** mult
        denom[f] = denom.get(f, 0) + mult
    assert vanished == 1
    exponent = _substitute_exponent(term.exponent, g, var, a)
    return Term(Fraction(num, den), exponent, tuple(denom.items()))


def reference_classified(terms, var, config, history):
    terms = [canonical_term(t) for t in terms]
    classify = ReferenceClassifier(var, config)
    sites = [reference_sites(t, classify) for t in terms]
    repaired = 0
    if any(s.side is Side.ON_PATH for s in classify.distinct()):
        config = perturb_abscissa(config, var, classify.distinct(), history)
        repaired = 1
        classify = ReferenceClassifier(var, config)
        sites = [reference_sites(t, classify) for t in terms]
    history.append((var, tuple(classify.distinct())))
    return terms, sites, config, repaired


def reference_integrate_level(terms, var, config, rule, history, force_side=None):
    terms, sites, config, repaired = reference_classified(terms, var, config, history)
    residues = []
    for term, term_sites in zip(terms, sites):
        sign, poles = _collected(term, term_sites, var, rule, force_side)
        residues.extend(reference_residue(term, var, site.factor, sign) for site in poles)
    out = merge_like_terms(residues)
    return out, config, _level_stats(var, terms, sites, repaired, len(residues), len(out))


def reference_close_level(terms, var, last, config, rule, history, force_side=None, implicit=0):
    terms, sites, config, repaired = reference_classified(terms, var, config, history)
    powers, dead, degrees, residues = {}, {}, set(), 0
    for term, term_sites in zip(terms, sites):
        sign, poles = _collected(term, term_sites, var, rule, force_side)
        if not poles:
            continue
        parts = []
        for f, mult in term.denom:
            b = c = 0
            for v, x in f.items():
                if v == var:
                    b = x
                elif v == last:
                    c = x
                else:
                    raise lv.MalformedH(
                        f"denominator factor {f} of the last residue level holds a "
                        f"variable other than {var_name(var)} and {var_name(last)}"
                    )
            parts.append((b, c, mult))
        index = {f: j for j, (f, _) in enumerate(term.denom)}
        q = term.total_multiplicity - 1
        degrees.add(q)
        L = term.exponent
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
    dead_out = sum(len(hits) == 1 or sum(_pole_power(*h) for h in hits) != 0
                   for hits in dead.values())
    powers = {key: K for key, K in powers.items() if K != 0}
    stats = _level_stats(var, terms, sites, repaired, residues, len(powers) + dead_out)
    return powers, degrees, config, stats


def in_order(value):
    """Dicts as their item lists, so that key order is compared too
    (Terms compare their factors in order already)."""
    if isinstance(value, dict):
        return list(value.items())
    return value


def checked_level(seen, level_fn, reference_fn, terms, *args, **kwargs):
    """Run one level through the kernel and the reference on equal
    inputs and require equal results, histories and ledgers; returns the
    reference's result, or None after an equal refusal.  ``seen`` counts
    the levels, refusals and repairs compared."""
    history = args[-1]
    mine, theirs = list(history), list(history)
    got = outcome(level_fn, terms, *args[:-1], mine, **kwargs)
    want = outcome(reference_fn, terms, *args[:-1], theirs, **kwargs)
    if isinstance(want[0], type):
        assert got == want
        seen["refusals"] += 1
        return None
    assert [in_order(x) for x in got] == [in_order(x) for x in want]
    assert got[-2].ledger == want[-2].ledger and got[-2].abscissae == want[-2].abscissae
    assert mine == theirs
    history[:] = theirs
    seen["levels"] += 1
    seen["repairs"] += want[-1].repaired
    return want


def check_run(seen, start, order, last, config, rule, force_side, implicit=0):
    """Every level of one run: the intermediate levels through
    integrate_level, the last one through close_level."""
    terms, history = [start], []
    for k in order[:-1]:
        result = checked_level(seen, integrate_level, reference_integrate_level, terms, k,
                               config, rule, history, force_side=force_side)
        if result is None:
            return
        terms, config, _ = result
        assert all(canonical_term(t) is t for t in terms)
    checked_level(seen, close_level, reference_close_level, terms, order[-1], last, config,
                  rule, history, force_side=force_side, implicit=implicit)


def check_instances(norms):
    """Both methods' runs on each instance under every forced side (None
    is the engine's own choice)."""
    seen = Counter()
    for norm in norms:
        c = contour_seed(norm, None)
        order = integration_order(norm.columns)
        direct = ContourConfig({i + 1: c[i] for i in range(norm.m)},
                               domain_ok=_direct_domain(norm.columns))
        r = eliminated_var(norm.columns)
        others = [j for j in range(1, norm.m + 1) if j != r]
        points = {j: c[j - 1] for j in others}
        points[P_VAR] = sum(c, Fraction(0))
        transform = ContourConfig(points, domain_ok=_transform_domain(norm.columns, r))
        starts = outcome(initial_term, norm), outcome(substituted_term, norm)
        for side in (None, Side.LEFT, Side.RIGHT):
            if isinstance(starts[0], Term):
                check_run(seen, starts[0], order[:-1], order[-1], direct,
                          SideRule.BY_EXPONENT_SIGN, side)
            if isinstance(starts[1], Term):
                check_run(seen, starts[1], others, P_VAR, transform, SideRule.FEWER_POLES,
                          side, implicit=1)
    return seen


def test_kernel_matches_reference_on_prime_row_draws():
    seen = check_instances(prime_row_draws(60, 11))
    assert seen["levels"] > 1000


def test_kernel_matches_reference_on_signed_draws():
    seen = check_instances(draws(True, 60, 12))
    assert seen["levels"] > 500 and seen["refusals"] > 0 and seen["repairs"] > 0


def test_kernel_matches_reference_on_the_repaired_paper_example():
    norm = lv.normalize(lv.paper_example()[0])
    # the default contour repairs l3 at the last residue level
    assert check_instances([norm])["repairs"] == 3

