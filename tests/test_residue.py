"""Residue engine tests against the worked traces and random oracles."""
import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

import lapvol as lv
from lapvol import terms as kernel
from lapvol.linforms import P_VAR
from lapvol.terms import ContourConfig, Side

from dense import (
    Term,
    canonical_term,
    classified,
    final_level_value,
    integrate_level,
    merge_like_terms,
)
from linform import LinForm


def lf(pairs):
    return LinForm(pairs)


def F(a, b=1):
    return Fraction(a, b)


def cfg(c1=None, c2=None, c3=None, **kw):
    points = {}
    for var, v in ((1, c1), (2, c2), (3, c3)):
        if v is not None:
            points[var] = Fraction(v)
    return ContourConfig(points, **kw)


def worked_initial_term():
    # exp(l1+l2+l3) / [l1 l2 l3 (l1-2l2+2l3)(l1+2l2-l3)]
    return Term(
        F(1),
        lf([(1, 1), (2, 1), (3, 1)]),
        (
            (lf([(1, 1)]), 1),
            (lf([(2, 1)]), 1),
            (lf([(3, 1)]), 1),
            (lf([(1, 1), (2, -2), (3, 2)]), 1),
            (lf([(1, 1), (2, 2), (3, -1)]), 1),
        ),
    )


def branch_I2():
    # residue of the worked term at l1 = 0
    return Term(
        F(1),
        lf([(2, 1), (3, 1)]),
        (
            (lf([(2, 1)]), 1),
            (lf([(3, 1)]), 1),
            (lf([(2, -2), (3, 2)]), 1),
            (lf([(2, 2), (3, -1)]), 1),
        ),
    )


def branch_I3():
    # residue of the worked term at l1 = 2l2 - 2l3
    return Term(
        F(1),
        lf([(2, 3), (3, -1)]),
        (
            (lf([(2, 2), (3, -2)]), 1),
            (lf([(2, 1)]), 1),
            (lf([(3, 1)]), 1),
            (lf([(2, 4), (3, -3)]), 1),
        ),
    )


def level_sites(term, var, config, **kwargs):
    """The pole sites of one term's level in ``var`` as the level
    classifies them, with the level's output and stats."""
    out, _, stats = integrate_level([term], var, config, **kwargs)
    return classified([term], var, config)[0], out, stats


def residues_by_root(term, var, config, **kwargs):
    """One term's residues in ``var``, none merged, by the root of their
    pole: the collected sites come in the order of the residues."""
    sites, out, stats = level_sites(term, var, config, **kwargs)
    assert stats.residues == len(out)
    side = kwargs.get("force_side") or (Side.LEFT if term.exponent.coeff(var) > 0 else Side.RIGHT)
    roots = [s.root for s in sites if s.side is side]
    assert len(roots) == len(out)
    return dict(zip(roots, out))


# -- pole sites ---------------------------------------------------------


def test_poles_of_worked_level_one():
    sites, _, stats = level_sites(worked_initial_term(), 1, cfg(3, 2, 1))
    by_root = {s.root: s for s in sites}
    assert set(by_root) == {LinForm.zero(), lf([(2, 2), (3, -2)]), lf([(2, -2), (3, 1)])}
    assert all(s.side is Side.LEFT for s in sites)
    # three simple poles, each collected once
    assert stats.poles_found == stats.residues == 3
    # root evaluations: 0, 2, -3, all left of c1 = 3
    assert by_root[lf([(2, 2), (3, -2)])].root.evaluate({2: F(2), 3: F(1)}) == 2
    assert by_root[lf([(2, -2), (3, 1)])].root.evaluate({2: F(2), 3: F(1)}) == -3


def test_poles_of_single_variable_factor():
    t = Term(F(1), lf([(2, 1)]), ((lf([(2, 1)]), 1),))
    sites, _, _ = level_sites(t, 2, cfg(c2=5))
    assert len(sites) == 1
    assert sites[0].root.is_zero and sites[0].side is Side.LEFT


def test_poles_of_I2_in_l3():
    # classification works for any variable, here l3 while l2 is alive
    sites, _, _ = level_sites(branch_I2(), 3, cfg(c2=2, c3=1))
    sides = {str(s.root): s.side for s in sites}
    assert sides == {"l2": Side.RIGHT, "2*l2": Side.RIGHT, "0": Side.LEFT}


def test_poles_of_groups_scaled_factors_into_one_site():
    # 2l2 - 2l3 and l2 - l3 share the root l3 = l2: one site of order 2
    t = Term(
        F(1),
        LinForm.zero(),
        ((lf([(2, 2), (3, -2)]), 1), (lf([(2, 1), (3, -1)]), 1), (lf([(3, 1)]), 1)),
    )
    sites, _, stats = level_sites(t, 3, cfg(c2=2, c3=1),
                                  force_side=Side.LEFT)
    assert [str(s.root) for s in sites] == ["l2", "0"] and stats.poles_found == 2
    # the right closure collects the site of order 2
    with pytest.raises(lv.DegenerateInstance, match="pole of order 2 at l3 = l2;"):
        level_sites(t, 3, cfg(c2=2, c3=1), force_side=Side.RIGHT)


def test_poles_of_on_path_reported():
    # the root l3 = l2 sits on the path Re(l3) = 1: it counts as left of
    # the path, and the ledger records the level
    t = Term(F(1), LinForm.zero(), ((lf([(2, 1), (3, -1)]), 1), (lf([(3, 1)]), 2)))
    out, config, stats = integrate_level([t], 3, cfg(c2=1, c3=1), force_side=Side.RIGHT)
    assert stats.repaired == 1 and [(rec.var, rec.on_path) for rec in config.ledger] == [(3, 1)]
    assert {s.side for s in classified([t], 3, cfg(c2=1, c3=1))[0]} == {Side.LEFT}
    assert out == [] and stats.poles_found == 2


# -- residues -----------------------------------------------------------


def test_residue_at_zero_gives_I2():
    out = residues_by_root(worked_initial_term(), 1, cfg(3, 2, 1))[LinForm.zero()]
    # the engine returns the primitive-factor form of I2, factor for factor
    assert out == canonical_term(branch_I2())
    assert out.coeff == F(-1, 2)


def test_residue_at_2l2_minus_2l3_matches_I3():
    out = residues_by_root(worked_initial_term(), 1, cfg(3, 2, 1))[lf([(2, 2), (3, -2)])]
    assert out.exponent == lf([(2, 3), (3, -1)])
    # primitive factors: 2l2 - 2l3 = -2(-l2 + l3) and 4l2 - 3l3 = -(-4l2 + 3l3)
    assert out.coeff == F(1, 2)
    assert set(f for f, _ in out.denom) == {
        lf([(2, -1), (3, 1)]), lf([(2, 1)]), lf([(3, 1)]), lf([(2, -4), (3, 3)]),
    }
    # engine factors rescale the worked 6 l2 l3 (l3-l2)(l3-4l2/3): same
    # product at any evaluation point
    at = {2: F(5), 3: F(7, 3)}
    engine = out.coeff
    for f, m in out.denom:
        engine /= f.evaluate(at) ** m
    paper = 1 / (
        6 * at[2] * at[3] * (at[3] - at[2]) * (at[3] - 4 * at[2] / 3)
    )
    assert engine == paper


def test_residue_general_two_constraint_shape():
    # exp(l1+l2) / [l1 l2 (a1 l1 + b1 l2)(a2 l1 + b2 l2)] at l1 = 0
    a = (F(1), F(2))
    b = (F(3), F(1))
    term = Term(
        F(1),
        lf([(1, 1), (2, 1)]),
        (
            (lf([(1, 1)]), 1),
            (lf([(2, 1)]), 1),
            (lf([(1, a[0]), (2, b[0])]), 1),
            (lf([(1, a[1]), (2, b[1])]), 1),
        ),
    )
    out = residues_by_root(term, 1, cfg(3, 1))[LinForm.zero()]
    # 1 / (l2^{n+1} prod b_j) with the exponential reduced to e^{l2}
    assert out.exponent == lf([(2, 1)])
    assert all(f.variables == (2,) for f, _ in out.denom)
    leadings = F(1)
    for f, m in out.denom:
        leadings *= f.coeff(2) ** m
    assert out.coeff / leadings == 1 / (b[0] * b[1])
    assert out.total_multiplicity == 3
    # the three multiples of l2 share the primitive form l2: one entry
    assert out.denom == ((lf([(2, 1)]), 3),)


def test_residue_partial_fraction_shape():
    # 1/[l1 (l1 - 2 l2)] at l1 = 2 l2 leaves 1/(2 l2); at c = (1, 1) that
    # root alone lies right of the path, and a right closure enters with
    # a minus sign
    term = Term(F(1), LinForm.zero(), ((lf([(1, 1)]), 1), (lf([(1, 1), (2, -2)]), 1)))
    out = residues_by_root(term, 1, cfg(1, 1), force_side=Side.RIGHT)[lf([(2, 2)])]
    assert out.denom == ((lf([(2, 1)]), 1),)
    assert -out.coeff == F(1, 2)


def test_residue_rejects_higher_order():
    # l1 and 2*l1 share the root l1 = 0: one site of order 2
    term = Term(F(1), LinForm.zero(), ((lf([(1, 1)]), 1), (lf([(1, 2)]), 1)))
    with pytest.raises(lv.DegenerateInstance):
        level_sites(term, 1, cfg(c1=1), force_side=Side.LEFT)


def test_factor_count_conservation():
    term = worked_initial_term()
    for out in residues_by_root(term, 1, cfg(3, 2, 1)).values():
        assert out.total_multiplicity == term.total_multiplicity - 1


# -- integrate_level ----------------------------------------------------


def integrate(terms, var, config, **kwargs):
    return integrate_level(terms, var, config, **kwargs)[0]


def test_integrate_I3_closes_right():
    out = integrate([branch_I3()], 3, cfg(c2=2, c3=1))
    # paper: -[-e^{2 l2}/2 + 3 e^{5 l2/3}/8] / l2^3
    assert len(out) == 2
    vals = {t.exponent.coeff(2): t for t in out}
    t_a = vals[F(2)]
    K_a = t_a.coeff
    for f, m in t_a.denom:
        K_a /= f.coeff(2) ** m
    assert K_a == F(1, 2)
    t_b = vals[F(5, 3)]
    K_b = t_b.coeff
    for f, m in t_b.denom:
        K_b /= f.coeff(2) ** m
    assert K_b == -F(3, 8)
    # every output term lost the integrated variable entirely
    for t in out:
        assert t.exponent.coeff(3) == 0
        assert all(f.coeff(3) == 0 for f, _ in t.denom)


def test_integrate_I4_closes_left():
    term = residues_by_root(worked_initial_term(), 1, cfg(3, 2, 1))[lf([(2, -2), (3, 1)])]
    assert term.exponent == lf([(2, -1), (3, 2)])
    out = integrate([term], 3, cfg(c2=2, c3=1))
    # only the pole l3 = 0 is on the left; result e^{-l2}/(8 l2^3)
    assert len(out) == 1
    t = out[0]
    assert t.exponent == lf([(2, -1)])
    K = t.coeff
    for f, m in t.denom:
        K /= f.coeff(2) ** m
    assert K == F(1, 8)
    assert final_level_value(t, 2) == 0


def test_integrate_counts_an_on_path_root_left():
    # the root l3 = l2 sits on the path Re(l3) = 1 and counts as left of
    # it: the level is the level on the path moved right by 2^-32, where
    # the root lies strictly left, and only the ledger tells them apart
    t = Term(F(1), lf([(3, 1)]), ((lf([(2, 1), (3, -1)]), 1), (lf([(3, 1)]), 1)))
    out, config, stats = integrate_level([t], 3, cfg(c2=1, c3=1))
    moved, moved_config, moved_stats = integrate_level([t], 3, cfg(c2=1, c3=1 + F(1, 2**32)))
    assert out == moved and len(out) == 2 and stats.left == 2
    assert stats._replace(repaired=0) == moved_stats and stats.repaired == 1
    assert [(rec.var, rec.on_path) for rec in config.ledger] == [(3, 1)]
    assert not moved_config.ledger


def test_config_derives_slots_and_point_at_construction(monkeypatch):
    # every level reads both; extending the ledger with _replace keeps
    # them, and a copy or a pickle gives an equal config
    derived = []
    real = kernel.integer_scaled
    monkeypatch.setattr(kernel, "integer_scaled", lambda v: derived.append(v) or real(v))
    config = cfg(F(1, 2), 3, F(5, 4))
    assert config.slots == (1, 2, 3) and config.point == (2, 12, 5) and len(derived) == 1
    moved = config._replace(ledger=(kernel.PerturbationRecord(2, 1),))
    assert (moved.slots, moved.point) == (config.slots, config.point) and len(derived) == 1
    assert copy.copy(moved) == moved == pickle.loads(pickle.dumps(moved))


def test_divergent_slice_when_no_decay_and_degree_one():
    t = Term(F(1), LinForm.zero(), ((lf([(2, 1), (3, -1)]), 1),))
    with pytest.raises(lv.DivergentSlice):
        integrate([t], 3, cfg(c2=2, c3=1))


def test_divergent_slice_message_names_the_whole_term():
    # dense term over the slots (l2, l3, p): the exponent (2*l2 - 3*p)/6
    # is free of l3, the squared factor -l2 + 2*p too, and the one
    # factor holding l3 has degree 1 there
    term = (F(-3, 4), (6, (2, 0, -3)), (((-1, 0, 2), 2), ((0, -1, 1), 1)))
    config = ContourConfig({2: F(1), 3: F(2), P_VAR: F(5)})
    with pytest.raises(lv.DivergentSlice) as exc:
        kernel.integrate_level([term], 3, config)
    assert str(exc.value) == (
        "term -3/4 * e^(1/3*l2 - 1/2*p) / [(-l2 + 2*p)^2 * (-l3 + p)] has degree 1 in l3 "
        "and no exponential decay")


def test_pole_of_order_message_gives_the_root():
    # the squared factor -l2 + 2*l3 + 3*p has its root left of the
    # path, on the closure side of e^(l3)
    term = (F(2, 3), (1, (0, 1, 0)), (((-1, 2, 3), 2), ((0, 1, 0), 1)))
    config = ContourConfig({2: F(1), 3: F(2), P_VAR: F(5)})
    with pytest.raises(lv.DegenerateInstance) as exc:
        kernel.integrate_level([term], 3, config)
    assert str(exc.value) == (
        "pole of order 2 at l3 = 1/2*l2 - 3/2*p; coincident denominator factors before the "
        "final level. A tiny random perturbation of A removes the coincidence at the price "
        "of an approximate volume.")


def test_exponent_sign_rule_falls_back_on_zero_coefficient():
    # e^{l3} / [l2 (l2 - l3)]: no decay in l2, degree 2, so the closure
    # side is free; both poles sit left of c2 = 2 and their residues
    # cancel, matching the empty right closure
    t = Term(F(1), lf([(3, 1)]), ((lf([(2, 1)]), 1), (lf([(2, 1), (3, -1)]), 1)))
    config = cfg(c2=2, c3=1)
    fewer, _, stats = integrate_level([t], 2, config)
    assert fewer == [] and stats.residues == 0  # right half-plane holds no poles
    left, _, stats = integrate_level([t], 2, config, force_side=Side.LEFT)
    # two residues of the same shape e^{l3}/l3, whose sum is zero
    assert stats.residues == 2 and stats.terms_out == 0 and left == []

    shallow = Term(F(1), lf([(3, 1)]), ((lf([(2, 1)]), 1),))
    with pytest.raises(lv.DivergentSlice):
        integrate([shallow], 2, config)


def test_side_sum_consistency_on_random_rational_terms():
    # pure-rational, degree >= 2: left closure == -(right closure)
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        k = rng.randint(2, 5)
        factors = []
        for _ in range(k):
            beta = F(rng.choice([1, 2, 3, -1, -2]))
            g = F(rng.randint(-6, 6), rng.randint(1, 2))
            factors.append(lf([(1, beta), (2, g)]))
        roots = set()
        dup = False
        for f in factors:
            _, r = f.solve_for(1)
            dup |= r in roots
            roots.add(r)
        if dup:
            continue
        c1 = F(rng.randint(-4, 4), 2)
        if any(r.evaluate({2: F(1)}) == c1 for r in roots):
            continue
        term = Term(F(1), LinForm.zero(), tuple((f, 1) for f in factors))
        config = cfg(c1, 1)
        left = integrate([term], 1, config, force_side=Side.LEFT)
        right = integrate([term], 1, config, force_side=Side.RIGHT)
        at = {2: F(rng.randint(2, 9), rng.randint(1, 3))}

        def total(ts):
            acc = F(0)
            for t in ts:
                v = t.coeff
                for f, m in t.denom:
                    ev = f.evaluate(at)
                    if ev == 0:
                        return None
                    v /= ev ** m
                acc += v
            return acc

        lv_sum, rv_sum = total(left), total(right)
        if lv_sum is None or rv_sum is None:
            continue
        assert lv_sum == rv_sum
        checked += 1


# -- final_level_value --------------------------------------------------


def test_final_level_worked_values():
    minus_e = Term(F(-1, 4), lf([(2, 1)]), ((lf([(2, 1)]), 3),))
    assert final_level_value(minus_e, 2) == F(-1, 8)

    decaying = Term(F(1, 8), lf([(2, -1)]), ((lf([(2, 1)]), 3),))
    assert final_level_value(decaying, 2) == 0

    t1 = Term(F(1, 2), lf([(2, 2)]), ((lf([(2, 1)]), 3),))
    t2 = Term(F(-3, 8), lf([(2, F(5, 3))]), ((lf([(2, 1)]), 3),))
    assert final_level_value(t1, 2) + final_level_value(t2, 2) == F(23, 48)


def test_final_level_scaled_factors():
    # K divides by each leading coefficient to its multiplicity
    t = Term(F(6), lf([(2, 1)]), ((lf([(2, 2)]), 2), (lf([(2, 3)]), 1)))
    # K = 6 / (4 * 3) = 1/2, q = 3, alpha = 1 -> 1/2 * 1/2! = 1/4
    assert final_level_value(t, 2) == F(1, 4)


def test_final_level_zero_exponent_is_zero():
    t = Term(F(5), LinForm.zero(), ((lf([(2, 1)]), 3),))
    assert final_level_value(t, 2) == 0


# -- perturbation -------------------------------------------------------


def test_perturb_noop_without_collision():
    # no root on the path: the level returns the config it was given
    config = cfg(c2=2, c3=1)
    _, after, stats = integrate_level([branch_I2()], 2, config)
    assert after is config and stats.repaired == 0


def test_perturb_repairs_worked_collision():
    # c = (1,1,1) puts the pole l2 = l3 exactly on Re(l2) = 1: it counts
    # as left of the path, as on the path moved right by 2^-32
    config = cfg(1, 1, 1)
    _, after, _ = integrate_level([worked_initial_term()], 1, config)
    assert after is config  # level 1 meets no root on its path
    term = branch_I2()
    out, after, stats = integrate_level([term], 2, config)
    assert stats.repaired == 1 and [(rec.var, rec.on_path) for rec in after.ledger] == [(2, 1)]
    # l2, l3 - l2 (on the path) and 2*l2 - l3 hold l2, all left
    sites, _ = classified([term], 2, config)
    assert [str(s.root) for s in sites] == ["0", "l3", "1/2*l3"]
    assert {s.side for s in sites} == {Side.LEFT}
    moved, moved_config, moved_stats = integrate_level([term], 2, cfg(1, 1 + F(1, 2**32), 1))
    assert moved == out and not moved_config.ledger
    assert moved_stats == stats._replace(repaired=0)


def test_eliminated_factor_sign_is_read_on_its_highest_remaining_variable():
    # at the zero of g = l1 + l3, f = l1 - l2 + l3 becomes f - g = -l2, and
    # at the zero of f, g becomes g - f = l2: both differences cancel on l3,
    # the highest variable, so the sign is read on l2 once the zero is gone
    g, f = lf([(1, 1), (3, 1)]), lf([(1, 1), (2, -1), (3, 1)])
    term = canonical_term(
        Term(F(1), lf([(1, 1), (2, 1), (3, 1)]), ((g, 1), (f, 1), (lf([(2, 1), (3, 2)]), 1)))
    )
    out, _, stats = integrate_level([term], 1, cfg(3, 2, 1))
    assert stats.residues == len(out) == 2
    for t in out:
        assert [h for h, _ in t.denom] == [lf([(2, 1)]), lf([(2, 1), (3, 2)])]
        # the same term rebuilt from unflagged forms and canonicalized
        assert t == canonical_term(Term(t.coeff, t.exponent,
                                        tuple((LinForm(h.items()), m) for h, m in t.denom)))
    assert [t.coeff for t in out] == [F(-1), F(1)]


def test_integrate_level_records_ledger_and_stats():
    config = cfg(3, 2, 1)
    out, config2, stats = integrate_level([canonical_term(worked_initial_term())], 1, config)
    assert stats.terms_in == 1 and stats.poles_found == 3
    assert stats.left == 3 and stats.right == 0 and stats.repaired == 0
    assert stats.residues == stats.terms_out == len(out) == 3
    assert stats.var == 1 and config2.ledger == ()


# -- like-term merging -------------------------------------------------


def _class_value(terms, exponent, at):
    """Sum of coeff / prod(f^m) at the point over the terms whose
    exponent is ``exponent``: the rational part of that exponent class."""
    total = F(0)
    for t in terms:
        if t.exponent == exponent:
            total += t.coeff / math.prod(f.evaluate(at) ** m for f, m in t.denom)
    return total


@pytest.mark.parametrize("seed", range(6))
def test_merge_preserves_each_exponent_class(seed):
    rng = random.Random(seed)
    # positive coefficients keep every factor nonzero at positive points
    pool = list({lf([(2, rng.randint(1, 5)), (3, rng.randint(1, 5))]).primitive()[1]
                 for _ in range(8)} | {lf([(3, 1)])})
    exponents = [lf([(2, F(rng.randint(-3, 3), rng.randint(1, 3))), (3, rng.randint(-2, 2))])
                 for _ in range(3)]
    for _ in range(20):
        terms = []
        for _ in range(rng.randint(1, 30)):
            if terms and rng.random() < 0.5:
                # a like term: same shape, factors reordered; sometimes
                # the exact negative of an earlier coefficient
                prev = rng.choice(terms)
                exponent, denom = prev.exponent, tuple(rng.sample(prev.denom, len(prev.denom)))
                coeff = -prev.coeff if rng.random() < 0.3 else F(rng.randint(-4, 4), rng.randint(1, 3))
            else:
                exponent = rng.choice(exponents)
                denom = tuple((f, rng.randint(1, 2)) for f in rng.sample(pool, rng.randint(1, 3)))
                coeff = F(rng.randint(-4, 4), rng.randint(1, 3))
            terms.append(Term(coeff, exponent, denom))
        merged = merge_like_terms(terms)
        shapes = [(t.exponent, frozenset(t.denom)) for t in merged]
        assert len(set(shapes)) == len(shapes)
        assert all(t.coeff != 0 for t in merged)
        # each survivor is the first term of its shape, in insertion order
        firsts = {}
        for t in terms:
            firsts.setdefault((t.exponent, frozenset(t.denom)), t)
        kept = [t for key, t in firsts.items() if key in set(shapes)]
        assert [(t.exponent, t.denom) for t in kept] == [(t.exponent, t.denom) for t in merged]
        for _ in range(3):
            at = {2: F(rng.randint(1, 20), rng.randint(1, 7)), 3: F(rng.randint(1, 20), rng.randint(1, 7))}
            for e in exponents:
                assert _class_value(merged, e, at) == _class_value(terms, e, at)


def test_merge_drops_cancelled_terms():
    t = Term(F(3, 2), lf([(2, 1)]), ((lf([(2, 1)]), 1), (lf([(2, 1), (3, 1)]), 2)))
    twin = Term(F(-3, 2), t.exponent, tuple(reversed(t.denom)))
    other = Term(F(1), LinForm.zero(), t.denom)
    assert merge_like_terms([t, other, twin]) == [other]
    assert merge_like_terms([t, t]) == [Term(F(3), t.exponent, t.denom)]


# -- numerical contour quadrature oracle --------------------------------


def numeric_vertical_line(alpha, c, factors, T=2000.0, nodes=24):
    """(1/2 pi) * integral of e^{alpha (c+it)} / prod(beta (c+it) + g) dt
    over [-T, T] via fixed Gauss-Legendre panels."""
    h = min(0.25 / max(abs(alpha), 0.25), 1.0)
    edges = np.arange(-T, T + h, h)
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    t = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    lam = c + 1j * t
    vals = np.exp(alpha * lam)
    for beta, g in factors:
        vals = vals / (beta * lam + g)
    return complex(np.sum(vals * wt)) / (2 * math.pi)


def _random_simple_pole_case(rng):
    while True:
        k = rng.randint(4, 6)
        betas = [F(rng.choice([1, 2, 3, -1, -2])) for _ in range(k)]
        gs = [F(rng.randint(-8, 8), rng.randint(1, 2)) for _ in range(k)]
        roots = [-g / b for b, g in zip(betas, gs)]
        if len(set(roots)) != k:
            continue
        alpha = F(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
        c1 = F(rng.randint(-3, 3), 2)
        if c1 in roots or abs(float(alpha) * float(c1)) > 4:
            continue
        return alpha, c1, betas, gs


def _residue_value(out_terms):
    total = 0.0
    for t in out_terms:
        v = float(t.coeff) * math.exp(float(t.exponent.coeff(2)))
        for f, m in t.denom:
            v /= float(f.coeff(2)) ** m
        total += v
    return total


@pytest.mark.parametrize("seed", [0, 1])
def test_residue_sum_matches_quadrature(seed):
    rng = random.Random(seed)
    done = 0
    while done < 5:
        alpha, c1, betas, gs = _random_simple_pole_case(rng)
        term = Term(
            F(1),
            LinForm.var(1, alpha),
            tuple((lf([(1, b), (2, g)]), 1) for b, g in zip(betas, gs)),
        )
        out = integrate([term], 1, cfg(c1, 1))
        sym = _residue_value(out)
        if abs(sym) < 1e-3:
            continue
        num = numeric_vertical_line(
            float(alpha), float(c1), [(float(b), float(g)) for b, g in zip(betas, gs)]
        )
        assert abs(num.imag) < 1e-6 * max(1.0, abs(sym))
        assert abs(num.real - sym) / abs(sym) < 1e-6
        done += 1
