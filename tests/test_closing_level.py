"""The fused closing level against the unfused path it replaces.

The reference drivers below are the drivers as they were before the last
residue level was fused with the closed form: every level through
``integrate_level`` (residues built as Terms, then ``merge_like_terms``),
then ``final_level_value`` per surviving term for direct and the C loop
for transform.  The start terms are checked against the Fraction-built
forms they replace.  Both methods must give the same Fraction, the same
LevelStats, the same perturbation ledger and the same refusal.
"""
import random
from fractions import Fraction
from math import factorial

import pytest

import lapvol as lv
from lapvol.direct import _direct_domain, initial_term, integration_order, run_direct
from lapvol.linforms import LinForm, P_VAR
from lapvol.polytope import contour_seed
from lapvol.terms import (
    ContourConfig,
    LevelStats,
    Side,
    SideRule,
    Term,
    canonical_term,
    final_level_value,
    integrate_level,
)
from lapvol.transform import _transform_domain, eliminated_var, run_transform, substituted_term


def reference_direct(norm, abscissae=None):
    m, n = norm.m, norm.n
    c = contour_seed(norm, abscissae)
    config = ContourConfig({i + 1: c[i] for i in range(m)}, domain_ok=_direct_domain(norm.rows))
    order = integration_order(norm.rows)
    terms, history, levels = [initial_term(norm)], [], []
    for level, k in enumerate(order[:-1], 1):
        terms, config, stats = integrate_level(terms, k, config, SideRule.BY_EXPONENT_SIGN, history)
        levels.append(stats)
        assert stats.residues <= (n + 1) ** level
    assert all(t.total_multiplicity == n + 1 for t in terms)
    last = order[-1]
    result = sum((final_level_value(t, last) for t in terms), Fraction(0))
    levels.append(LevelStats(var=last, terms_in=len(terms), poles_found=0, left=0, right=0,
                             repaired=0, residues=len(terms), terms_out=len(terms)))
    return result, tuple(levels), config.ledger, None


def reference_transform(norm, abscissae=None, force_sides=None):
    m, n = norm.m, norm.n
    c = contour_seed(norm, abscissae)
    r = eliminated_var(norm.rows)
    others = [j for j in range(1, m + 1) if j != r]
    points = {j: c[j - 1] for j in others}
    points[P_VAR] = sum(c, Fraction(0))
    config = ContourConfig(points, domain_ok=_transform_domain(norm.rows, r))
    terms, history, levels = [substituted_term(norm)], [], []
    for level, k in enumerate(others, 1):
        force = (force_sides or {}).get(k)
        terms, config, stats = integrate_level(
            terms, k, config, SideRule.FEWER_POLES, history, force_side=force)
        levels.append(stats)
        assert stats.residues <= (n + 1) ** level
    C = Fraction(0)
    for t in terms:
        assert t.exponent.is_zero
        leading, q = 1, 0
        for factor, mult in t.denom:
            assert factor.is_multiple_of_var(P_VAR)
            leading *= factor.coeff(P_VAR) ** mult
            q += mult
        assert q == n + 1
        C += t.coeff / leading
    return C / factorial(n), tuple(levels), config.ledger, C


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except lv.VolumeEngineError as exc:
        return type(exc), str(exc)


def fused(run_fn, *args, **kwargs):
    def call():
        run = run_fn(*args, **kwargs)
        return run.result, run.levels, run.config.ledger, getattr(run, "H_coefficient", None)
    return outcome(call)


def fraction_start_terms(norm):
    """The start terms built from Fraction LinForms and canonicalized."""
    m, rows = norm.m, norm.rows
    columns = [LinForm([(i + 1, rows[i][j]) for i in range(m)]) for j in range(norm.n)]
    direct = canonical_term(Term(
        Fraction(1), LinForm([(i, 1) for i in range(1, m + 1)]),
        tuple((f, 1) for f in [LinForm.var(i) for i in range(1, m + 1)] + columns)))
    r = eliminated_var(rows)
    others = [j for j in range(1, m + 1) if j != r]
    root = LinForm([(P_VAR, 1)] + [(j, -1) for j in others])
    factors = [root] + [LinForm.var(j) for j in others] + [f.substitute(r, root) for f in columns]
    transform = canonical_term(Term(Fraction(1), LinForm.zero(), tuple((f, 1) for f in factors)))
    return direct, transform


def assert_same(norm, **kwargs):
    assert fused(run_direct, norm, **kwargs) == outcome(reference_direct, norm, **kwargs)
    assert fused(run_transform, norm, **kwargs) == outcome(reference_transform, norm, **kwargs)
    direct, transform = fraction_start_terms(norm)
    if not isinstance(outcome(initial_term, norm), tuple):
        assert initial_term(norm) == direct
    if not isinstance(outcome(substituted_term, norm), tuple):
        assert substituted_term(norm) == transform


def draws(signed, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m, n = rng.randint(2, 5), rng.randint(2, 6 if signed else 5)
        try:
            out.append(lv.normalize(lv.random_instance(rng, m, n, signed=signed)))
        except (lv.NotCompact, lv.NotPointed):
            continue
    return out


@pytest.mark.parametrize("signed", [False, True])
def test_fused_closing_level_matches_reference(signed):
    refused = 0
    for norm in draws(signed, 60, 8 + signed):
        assert_same(norm)
        refused += isinstance(outcome(run_direct, norm), tuple)
    if signed:
        assert refused > 0  # the draws include refusals, compared by type and message


def test_fused_closing_level_paper_example_and_contours():
    norm = lv.normalize(lv.paper_example()[0])
    # the default contour repairs l3 at the last residue level
    assert len(run_direct(norm).config.ledger) == 1
    for abscissae in (None, (3, 2, 1), (1, 1, 2), (2, 3, 5)):
        assert_same(norm, abscissae=abscissae)


def test_fused_closing_level_under_forced_sides():
    cases = [lv.normalize(lv.paper_example()[0])] + draws(True, 8, 31)
    for norm in cases:
        r = eliminated_var(norm.rows)
        for k in set(range(1, norm.m + 1)) - {r}:
            for side in (Side.LEFT, Side.RIGHT):
                forced = {k: side}
                assert (fused(run_transform, norm, force_sides=forced)
                        == outcome(reference_transform, norm, force_sides=forced))


@pytest.mark.parametrize("A", [[[2, 3]], [[1, 1, 1, 1]], [["1/2", 3, "5/7"]]])
def test_m1_uses_the_same_finisher(A):
    norm = lv.normalize(lv.make_instance(A, [1]))
    assert_same(norm)
