"""The fused closing level against the unfused path it replaces.

The reference drivers below are the drivers as they were before the last
residue level was fused with the closed form, on the LinForm engine of
:mod:`linform_engine`, which shares no code with ``lapvol.terms``: every
level through its ``integrate_level`` (residues built as Terms, then
merged), then ``final_level_value`` per surviving term for direct and
the C loop for transform.  The start terms are checked against the
Fraction-built forms they replace.  Both methods must give the same Fraction, the same
LevelStats, the same closed-form variable and count of alpha > 0 powers
reaching it, the same perturbation ledger, the same C and the same
refusal.  The closing level counts only the powers the closed form
keeps, so the reference's last level counts its alpha > 0 terms, and
the reference direct driver applies the exponent bound of
:mod:`lapvol.engine` after its inner levels.  Without it, the reference
is the unpruned driver that the bound is checked against.
"""
import random
from fractions import Fraction
from math import factorial, gcd, prod
from operator import mul

import pytest

import lapvol as lv
from lapvol import direct, terms as terms_module, transform
from lapvol.direct import integration_order, run_direct
from lapvol.engine import contour
from lapvol.linforms import P_VAR
from lapvol.terms import ContourConfig, Side
from lapvol.transform import eliminated_var, run_transform

import linform_engine as reference
from conftest import draws, outcome, prime_row_draws
from dense import (
    Term,
    canonical_term,
    close_level,
    initial_term,
    integrate_level,
    substituted_term,
)
from facet_volume import facet_volume
from linform import LinForm

BY_EXPONENT_SIGN = reference.SideRule.BY_EXPONENT_SIGN


def reference_direct(norm, abscissae=None, prune=True, pruned=None):
    """The unfused direct driver; with ``prune`` it drops, after every
    level but the closing one, the terms whose exponent is negative at
    the contour point, and appends their exponents to the list
    ``pruned`` if one is given."""
    n = norm.n
    config = contour(norm, direct.method(norm.columns), abscissae)
    order = integration_order(norm.columns)
    terms, levels = [initial_term(norm)], []
    for level, k in enumerate(order[:-1], 1):
        terms, config, stats = reference.integrate_level(terms, k, config, BY_EXPONENT_SIGN)
        assert stats.residues <= (n + 1) ** level
        if prune and level < len(order) - 1:
            negative = [t.exponent.evaluate(config.abscissae) < 0 for t in terms]
            if pruned is not None:
                pruned += [t.exponent for t, neg in zip(terms, negative) if neg]
            terms = [t for t, neg in zip(terms, negative) if not neg]
            stats = stats._replace(terms_out=len(terms))
        levels.append(stats)
    assert all(t.total_multiplicity == n + 1 for t in terms)
    last = order[-1]
    kept = sum(t.exponent.coeff(last) > 0 for t in terms)
    if levels:
        levels[-1] = levels[-1]._replace(terms_out=kept)
    result = sum((reference.final_level_value(t, last) for t in terms), Fraction(0))
    return result, tuple(levels), (last, kept), config.ledger, result * factorial(n)


def reference_transform(norm, abscissae=None, force_sides=None):
    m, n = norm.m, norm.n
    config = contour(norm, transform.method(norm.columns), abscissae)
    r = eliminated_var(norm.columns)
    others = [j for j in range(1, m + 1) if j != r]
    terms, levels = [substituted_term(norm)], []
    for level, k in enumerate(others, 1):
        force = (force_sides or {}).get(k)
        terms, config, stats = reference.integrate_level(terms, k, config,
                                                         reference.SideRule.FEWER_POLES, force)
        levels.append(stats)
        assert stats.residues <= (n + 1) ** level
    C = Fraction(0)
    for t in terms:
        assert t.exponent == LinForm.var(P_VAR)
        leading, q = 1, 0
        for factor, mult in t.denom:
            assert factor.variables == (P_VAR,)
            leading *= factor.coeff(P_VAR) ** mult
            q += mult
        assert q == n + 1
        C += t.coeff / leading
    return C / factorial(n), tuple(levels), (P_VAR, len(terms)), config.ledger, C


def fused(run_fn, *args, **kwargs):
    def call():
        run = run_fn(*args, **kwargs)
        return run.result, run.levels, (run.last, run.leaves), run.config.ledger, run.H_coefficient
    return outcome(call)


def fraction_start_terms(norm):
    """The start terms built from Fraction LinForms and canonicalized."""
    m, rows = norm.m, norm.rows
    columns = [LinForm([(i + 1, rows[i][j]) for i in range(m)]) for j in range(norm.n)]
    direct = canonical_term(Term(
        Fraction(1), LinForm([(i, 1) for i in range(1, m + 1)]),
        tuple((f, 1) for f in [LinForm.var(i) for i in range(1, m + 1)] + columns)))
    r = eliminated_var(norm.columns)
    others = [j for j in range(1, m + 1) if j != r]
    root = LinForm([(P_VAR, 1)] + [(j, -1) for j in others])
    factors = [root] + [LinForm.var(j) for j in others] + [f.substitute(r, root) for f in columns]
    transform = canonical_term(Term(Fraction(1), LinForm.var(P_VAR), tuple((f, 1) for f in factors)))
    return direct, transform


def assert_same(norm, **kwargs):
    assert fused(run_direct, norm, **kwargs) == outcome(reference_direct, norm, **kwargs)
    assert fused(run_transform, norm, **kwargs) == outcome(reference_transform, norm, **kwargs)
    direct, transform = fraction_start_terms(norm)
    if type(outcome(initial_term, norm)) is not tuple:
        assert initial_term(norm) == direct
    if type(outcome(substituted_term, norm)) is not tuple:
        assert substituted_term(norm) == transform


@pytest.mark.parametrize("signed", [False, True])
def test_fused_closing_level_matches_reference(signed):
    refused = 0
    for norm in draws(signed, 60, 8 + signed):
        assert_same(norm)
        refused += type(outcome(run_direct, norm)) is tuple
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
        r = eliminated_var(norm.columns)
        for k in set(range(1, norm.m + 1)) - {r}:
            for side in (Side.LEFT, Side.RIGHT):
                forced = {k: side}
                assert (fused(run_transform, norm, force_sides=forced)
                        == outcome(reference_transform, norm, force_sides=forced))


@pytest.mark.parametrize("A", [[[2, 3]], [[1, 1, 1, 1]], [["1/2", 3, "5/7"]]])
def test_m1_uses_the_same_finisher(A):
    norm = lv.normalize(lv.make_instance(A, [1]))
    assert_same(norm)


@pytest.mark.parametrize("n", range(1, 9))
def test_m1_volume_is_the_simplex_volume(n):
    # {x >= 0, a.x <= b} with a > 0 is a simplex of volume b^n / (n! prod a_j);
    # m = 1 has no residue level, its start term is already C * e^x / x^(n+1)
    rng = random.Random(f"m1:{n}")
    for _ in range(3):
        a = [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(n)]
        b = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        norm = lv.normalize(lv.make_instance([a], [b]))
        want = b ** n / (factorial(n) * prod(a))
        for run in (run_direct(norm), run_transform(norm)):
            assert type(run.result) is Fraction and run.result == want
            assert run.levels == () and run.leaves == 1
            assert run.H_coefficient == want * factorial(n)


# -- the exponent bound -------------------------------------------------
# At every inner level integrate_level builds no residue whose exponent
# is negative at the contour point; every power below it has alpha < 0.

def unpruned_volume(norm):
    return outcome(lambda: reference_direct(norm, prune=False)[0])


def test_pruned_volume_equals_the_unpruned_drivers():
    compared = 0
    for norm in draws(True, 60, 9) + prime_row_draws(20, "deep", (5, 8), (3, 7)):
        want = unpruned_volume(norm)
        if type(want) is not tuple:
            assert run_direct(norm).result == want
            compared += 1
    assert compared >= 60


def test_exponent_bound_cuts_the_residues_of_deep_draws():
    pruned = unpruned = 0
    for norm in prime_row_draws(6, "deep", (5, 8), (3, 7)):
        pruned += sum(s.residues for s in run_direct(norm).levels)
        unpruned += sum(s.residues for s in reference_direct(norm, prune=False)[1])
    assert 5 * pruned <= 3 * unpruned  # at most 60%


@pytest.fixture
def residue_builds(monkeypatch):
    """The residues terms._residue builds during the test."""
    built = []
    real = terms_module._residue
    monkeypatch.setattr(terms_module, "_residue", lambda *a: built.append(real(*a)) or built[-1])
    return built


def test_exponent_bound_builds_only_the_residues_it_keeps(residue_builds):
    built = counted = 0
    for norm in prime_row_draws(6, "deep", (5, 8), (3, 7)):
        levels = reference_direct(norm)[1]
        residue_builds.clear()
        run = run_direct(norm)
        inner = [s.residues for s in run.levels[:-1]]
        assert inner == [s.residues for s in levels[:-1]]
        # every residue built at an inner level has exponent >= 0 at the
        # point, and the dropped ones are counted but never built
        assert all(sum(map(mul, L, run.config.point)) >= 0 for _, (_, L), _ in residue_builds)
        built += len(residue_builds)
        counted += sum(inner)
    assert (built, counted) == (104, 209)


def random_dense_terms(rng):
    """Dense terms over the slots (l1, l2, l3) sharing their factors, so
    that residues merge, most exponents with a zero entry on l1."""
    factors = list({terms_module.primitive(f)[1] for f in (
        [rng.randint(-3, 3) for _ in range(3)] for _ in range(6)) if any(f)})
    out = []
    for _ in range(3):
        L = [rng.choice((0, 0, rng.randint(-3, 3))), rng.randint(-3, 3), rng.randint(-3, 3)]
        den = rng.randint(1, 3)
        t = gcd(den, *L)
        out.append((Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)),
                    (den // t, tuple(c // t for c in L)),
                    tuple((f, 1) for f in rng.sample(factors, rng.randint(2, len(factors))))))
    return out


def test_sign_test_drops_exactly_the_negative_exponents():
    # the level with the bound keeps exactly the merged terms whose
    # exponent is >= 0 at the point, and its counts are those of the level
    # without the bound but for terms_out
    rng = random.Random(24)
    checked = held_out = 0
    while checked < 200:
        terms = random_dense_terms(rng)
        config = ContourConfig({v: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for v in (1, 2, 3)})
        try:
            every = terms_module.integrate_level(terms, 1, config)
        except lv.DivergentSlice:
            continue
        kept, after, stats = terms_module.integrate_level(terms, 1, config, prune=True)
        assert after == every[1]
        negative = [sum(map(mul, t[1][1], after.point)) < 0 for t in every[0]]
        assert kept == [t for t, neg in zip(every[0], negative) if not neg]
        assert stats == every[2]._replace(terms_out=len(kept))
        held_out += any(neg and not t[1][1][0] for t, neg in zip(every[0], negative))
        checked += 1
    assert held_out > 0  # some term whose exponent does not hold l1 is dropped


def sweep_instance(seed, m, n):
    """Draw (m, n) of the 461-draw sweep: signed draws from
    random.Random(seed) for m 2-5 and n 2-7, in that loop order."""
    rng = random.Random(seed)
    for m_ in range(2, 6):
        for n_ in range(2, 8):
            inst = lv.random_instance(rng, m_, n_, signed=True)
            if (m_, n_) == (m, n):
                return inst


# Sweep draws (seed, m, n) whose direct run meets a repeated pole only
# below pruned terms, with their volume by facet_volume.  facet_volume
# takes about 4 s on each m = 5, n = 7 draw, so those two are checked
# against the pinned volume and the transform's.
PRUNED_POLES = {
    (1, 5, 4): Fraction(2472490313, 992978532000),
    (9, 4, 7): Fraction(18776508850942714967862041911915469099243753,
                        5427386520351102049197528715215162433875030000000),
    (12, 4, 7): Fraction(10393450089908058203408908151, 1453134030321996712951112768716800),
    (13, 5, 5): Fraction(66823, 1529199000),
    (19, 5, 7): Fraction(5033477049294578576194371805241,
                         3549469710069459660312819077068800000),
    (20, 5, 7): Fraction(74334134759910141848466340607, 2552615048173177981289775390912000),
}


@pytest.mark.parametrize("key", sorted(PRUNED_POLES))
def test_repeated_pole_below_a_pruned_term(key):
    inst, volume = sweep_instance(*key), PRUNED_POLES[key]
    norm = lv.normalize(inst)
    if key[1:] == (5, 7):
        assert run_transform(norm).result == volume
    else:
        assert facet_volume(inst.rows, inst.rhs) == volume
    assert run_direct(norm).result == volume
    assert unpruned_volume(norm)[0] is lv.DegenerateInstance


def repair_draw(seed):
    """The instance that a REPAIR_DRAWS seed draws."""
    rng = random.Random(seed)
    m, n = rng.randint(3, 5), rng.randint(2, 5)
    return lv.random_instance(rng, m, n, signed=rng.random() < 0.5)


# (seed, abscissae): a path meets a root, and an exponent that the bound
# prunes at an earlier level holds that path's variable
REPAIR_DRAWS = [(5013, (1, 1, 1, 3)), (5058, (1, 1, 1, 1, 2)), (5067, (1, 1, 1, 1, 3))]


@pytest.mark.parametrize("seed,abscissae", REPAIR_DRAWS)
def test_repair_keeps_pruned_exponents_negative(seed, abscissae):
    # the root on the path counts as left of it, and no shift of the
    # path can turn a pruned exponent nonnegative: the pruned run gives
    # the volume of facet_volume and of the unpruned driver
    inst = repair_draw(seed)
    norm = lv.normalize(inst)
    assert fused(run_direct, norm, abscissae=abscissae) == outcome(
        reference_direct, norm, abscissae=abscissae)
    run, pruned = run_direct(norm, abscissae), []
    reference_direct(norm, abscissae, pruned=pruned)
    assert any(L.coeff(rec.var) for L in pruned for rec in run.config.ledger)
    volume = facet_volume(inst.rows, inst.rhs)
    assert run.result == volume
    unpruned = outcome(reference_direct, norm, abscissae, prune=False)
    if seed == 5013:
        # unpruned, the run meets a repeated pole below a pruned term
        assert unpruned[0] is lv.DegenerateInstance
    else:
        assert unpruned[0] == volume and unpruned[3] == run.config.ledger


# -- the pruned closing level -------------------------------------------
# close_level builds K only for alpha > 0 residues.

def closing_shapes(norm):
    """Direct's closing-level residues, built as Terms by the unfused
    path, grouped by shape: (alpha, q) -> [hits, sum of K].  Every factor
    left is the primitive last variable, so a residue's coefficient is K."""
    config = contour(norm, direct.method(norm.columns))
    order = integration_order(norm.columns)
    terms = [initial_term(norm)]
    for k in order[:-2]:
        terms, config, _ = reference.integrate_level(terms, k, config, BY_EXPONENT_SIGN)
    terms, sites, config, _ = reference._classified(terms, order[-2], config)
    shapes = {}
    for t in reference.integrate_var(terms, order[-2], config, BY_EXPONENT_SIGN, sites=sites):
        entry = shapes.setdefault((t.exponent.coeff(order[-1]), t.total_multiplicity), [0, 0])
        entry[0] += 1
        entry[1] += t.coeff
    return shapes


@pytest.fixture
def k_builds(monkeypatch):
    """The number of K values close_level builds during the test."""
    calls = []
    real = terms_module._pole_power
    monkeypatch.setattr(terms_module, "_pole_power", lambda *a: calls.append(a) or real(*a))
    return calls


def k_builds_per_draw(draws, k_builds):
    """For each draw the direct run does not refuse: (the K that
    close_level builds, the alpha > 0 residues, the alpha <= 0 ones), the
    residues counted on the unfused path."""
    for norm in draws:
        if type(outcome(run_direct, norm)) is tuple:
            continue
        shapes = closing_shapes(norm)
        k_builds.clear()
        run_direct(norm)
        yield (len(k_builds), sum(hits for (alpha, _), (hits, _) in shapes.items() if alpha > 0),
               sum(hits for (alpha, _), (hits, _) in shapes.items() if alpha <= 0))


def test_pruned_closing_level_on_prime_row_draws(k_builds):
    draws = prime_row_draws(40, 10)
    for norm in draws:
        assert_same(norm)
    dead = 0
    for built, alive, dropped in k_builds_per_draw(draws, k_builds):
        assert built == alive  # K for every alpha > 0 residue and no other
        dead += dropped
    assert dead > 0


def test_k_is_built_once_per_alpha_positive_residue_on_deep_draws(k_builds):
    # the sizes of the deep workload (m 5-8, n 3-7), where most of the
    # closing level's residues have alpha <= 0
    alive = dead = 0
    for built, kept, dropped in k_builds_per_draw(prime_row_draws(6, "deep", (5, 8), (3, 7)),
                                                  k_builds):
        assert built == kept
        alive += kept
        dead += dropped
    assert dead > alive > 0


def two_variable_terms():
    """Terms in l1 (integrated) and l2 (last).  At c = (3, 1) the exponent
    closes left and collects the roots of l1 (alpha 1), l1 + l2 (alpha 0)
    and l1 + 2*l2 (alpha -1) but not l1 - 5*l2 (root 5); the second term
    hits the alpha <= 0 shapes a second time."""
    l1, l2 = LinForm.var(1), LinForm.var(2)
    exponent = LinForm([(1, 1), (2, 1)])
    first = Term(Fraction(3, 2), exponent, tuple(
        (f, 1) for f in (l1, l1 + l2, l1 + 2 * l2, l1 - 5 * l2, l2)))
    second = Term(Fraction(-1, 5), exponent, tuple(
        (f, 1) for f in (l1 + l2, l1 + 2 * l2, l1 - 5 * l2, l2, l2)))
    return [canonical_term(t) for t in (first, second)]


def config_31():
    return ContourConfig({1: Fraction(3), 2: Fraction(1)})


def test_close_level_keeps_the_alpha_positive_powers(k_builds):
    for terms in (two_variable_terms()[:1], two_variable_terms()):
        k_builds.clear()
        powers, _, stats = close_level(terms, 1, 2, 3, config_31())
        merged, _, unfused = integrate_level(terms, 1, config_31())
        every = reference.power_terms(merged, 2)
        assert {q for _, q in every} == {4}
        assert powers == {alpha: K for (alpha, _), K in every.items() if alpha > 0}
        assert powers and len(every) > len(powers)  # both kinds occur
        # terms_out counts the powers kept, the rest of the level's stats
        # are those of the unfused level
        assert stats == unfused._replace(terms_out=len(powers))
        closed = sum(K * alpha ** 3 for alpha, K in powers.items()) / 6
        assert closed == reference.power_sum(every)
        # one K per alpha > 0 residue: the second term collects only the
        # alpha <= 0 roots of l1 + l2 and l1 + 2*l2
        assert len(k_builds) == 1
        # every term has degree 4 in l2, which is n + 1 for n = 3 only
        with pytest.raises(lv.MalformedH, match="l2-multiplicity 4, expected 3"):
            close_level(terms, 1, 2, 2, config_31())


def test_close_level_checks_terms_whose_poles_all_have_alpha_at_most_0():
    l1, l2, l3 = LinForm.var(1), LinForm.var(2), LinForm.var(3)
    exponent = LinForm([(1, 1), (2, 1)])
    factors = (l1 + l2, l1 + 2 * l2, l1 - 5 * l2)
    config = ContourConfig({1: Fraction(3), 2: Fraction(1), 3: Fraction(1)})
    term = canonical_term(Term(Fraction(1), exponent, tuple((f, 1) for f in factors + (l2 + l3,))))
    for n in (2, 3):  # the stray factor is refused before the degree is read
        with pytest.raises(lv.MalformedH, match="other than l1 and l2"):
            close_level([term], 1, 2, n, config)
    term = canonical_term(Term(Fraction(1), exponent, tuple((f, 1) for f in factors + (l2,))))
    powers, _, stats = close_level([term], 1, 2, 2, config)
    assert powers == {} and stats.terms_out == 0
    with pytest.raises(lv.MalformedH) as exc:
        close_level([term], 1, 2, 3, config)
    assert str(exc.value) == "surviving term has l2-multiplicity 3, expected 4"


def test_close_level_message_names_the_stray_factor():
    # dense term over the slots (l1, l2, p), closing l2 with p last: the
    # exponent (l1 + l2 + p)/2 closes left, where l2 + p has its root,
    # and the squared factor 3*l1 - 2*l2 + p still holds l1
    term = (Fraction(5, 7), (2, (1, 1, 1)), (((0, 1, 1), 1), ((3, -2, 1), 2)))
    config = ContourConfig({1: Fraction(1), 2: Fraction(1), P_VAR: Fraction(3)})
    with pytest.raises(lv.MalformedH) as exc:
        terms_module.close_level([term], 2, P_VAR, 1, config)
    assert str(exc.value) == ("denominator factor 3*l1 - 2*l2 + p of the last residue level "
                              "holds a variable other than l2 and p")


# -- the closing level's refusal order -------------------------------------
# Dense terms over the slots (l1, l2) or (l1, l2, l3), closing l1 with l2
# last at c = (3, 1[, 1]).  The first term that close_level refuses decides
# the error, and each term is checked for its closure (DivergentSlice,
# then a repeated pole) before its factors are scanned for MalformedH and
# its degree is read.
# Each call passes the n for which the terms' degree in l2 is n + 1, so
# the degree check refuses none of them.

CONFIG_2 = ContourConfig({1: Fraction(3), 2: Fraction(1)})
CONFIG_3 = ContourConfig({1: Fraction(3), 2: Fraction(1), 3: Fraction(1)})
# exponent l2 (no decay in l1) over l1 + l2 and l2^3: degree 1 in l1
DIVERGENT = (Fraction(2), (1, (0, 1)), (((1, 1), 1), ((0, 1), 3)))
# exponent l1 + l2 closes left, where (l1 + 2*l2)^2 has its root
REPEATED = (Fraction(3), (1, (1, 1)), (((1, 2), 2), ((0, 1), 2)))


def refusal(terms, config, n):
    with pytest.raises(lv.VolumeEngineError) as exc:
        terms_module.close_level(terms, 1, 2, n, config)
    return type(exc.value)


def test_close_level_refuses_a_divergent_slice_before_a_repeated_pole():
    assert refusal([DIVERGENT, REPEATED], CONFIG_2, 2) is lv.DivergentSlice
    assert refusal([DIVERGENT], CONFIG_2, 2) is lv.DivergentSlice
    assert refusal([REPEATED], CONFIG_2, 2) is lv.DegenerateInstance
    # term order decides between two refused terms
    assert refusal([REPEATED, DIVERGENT], CONFIG_2, 2) is lv.DegenerateInstance


def test_close_level_refuses_a_repeated_pole_before_a_stray_factor():
    # l2 + l3 holds a third variable; the repeated pole l1 + 2*l2 is refused first
    stray = ((0, 1, 1), 1)
    term = (Fraction(3), (1, (1, 1, 0)), (((1, 2, 0), 2), stray))
    assert refusal([term], CONFIG_3, 1) is lv.DegenerateInstance
    term = (Fraction(3), (1, (1, 1, 0)), (((1, 2, 0), 1), stray, ((0, 1, 0), 1)))
    assert refusal([term], CONFIG_3, 1) is lv.MalformedH


def test_close_level_never_scans_a_term_without_poles_on_its_closing_side():
    # l1 - 5*l2 has its root l1 = 5 right of the path at 3; the exponent
    # closes left, so the term collects nothing: neither its stray l2 + l3
    # nor its degree 2 (n + 1 only for n = 1, not for the n = 3 passed) is
    # checked
    term = (Fraction(3), (1, (1, 1, 0)), (((1, -5, 0), 1), ((0, 1, 1), 2)))
    powers, _, stats = terms_module.close_level([term], 1, 2, 3, CONFIG_3)
    assert powers == {}
    assert (stats.poles_found, stats.left, stats.residues, stats.terms_out) == (1, 0, 0, 0)
    # the same stray factor is refused once the term collects a pole
    term = (Fraction(3), (1, (1, 1, 0)), (((1, 5, 0), 1), ((0, 1, 1), 2)))
    assert refusal([term], CONFIG_3, 1) is lv.MalformedH
