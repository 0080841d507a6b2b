"""Direct method: worked example, generators, and structural properties."""
import itertools
import random
from fractions import Fraction

import pytest

import lapvol as lv
from lapvol.direct import run_direct
from lapvol.polytope import contour_seed
from lapvol.terms import ContourConfig

from conftest import SKIPPABLE, draw_valid_instance, frac_vec
from dense import final_level_value, initial_term, integrate_level
from linform import LinForm


def F(a, b=1):
    return Fraction(a, b)


@pytest.fixture(scope="module")
def worked():
    inst, vol = lv.paper_example()
    return lv.normalize(inst), vol


def test_initial_term_worked_example(worked):
    norm, _ = worked
    t = initial_term(norm)
    # primitive factors: l1 + 2l2 - l3 enters as -(-l1 - 2l2 + l3), so
    # its sign moves into the coefficient
    assert t.coeff == -1
    assert t.exponent == LinForm([(1, 1), (2, 1), (3, 1)])
    assert set(f for f, _ in t.denom) == {
        LinForm([(1, 1)]),
        LinForm([(2, 1)]),
        LinForm([(3, 1)]),
        LinForm([(1, 1), (2, -2), (3, 2)]),
        LinForm([(1, -1), (2, -2), (3, 1)]),
    }
    assert all(m == 1 for _, m in t.denom)


def test_initial_term_unit_square_degenerate():
    # each column is a variable factor: equal factors are one factor of
    # multiplicity 2, and the first level refuses the pole of order 2
    norm = lv.normalize(lv.make_instance([[1, 0], [0, 1]], [1, 1]))
    t = initial_term(norm)
    assert t.coeff == 1
    assert t.denom == ((LinForm.var(1), 2), (LinForm.var(2), 2))
    with pytest.raises(lv.DegenerateInstance) as err:
        run_direct(norm)
    assert "coincident" in str(err.value)
    assert "perturbation" in str(err.value)  # actionable hint present


def test_initial_term_m1_bypasses_degeneracy():
    norm = lv.normalize(lv.make_instance([[2, 3]], [1]))
    t = initial_term(norm)
    assert all(f.variables == (1,) for f, _ in t.denom)
    assert run_direct(norm).result == F(1, 12)  # (1/2)(1/3)/2!


def test_worked_example_volume(worked):
    norm, vol = worked
    assert run_direct(norm, abscissae=(3, 2, 1)).result == vol == F(17, 48)
    assert run_direct(norm).result == vol  # engine-chosen contour


def test_worked_example_branch_partials(worked):
    norm, _ = worked
    config = ContourConfig({1: F(3), 2: F(2), 3: F(1)})
    branches, config, _ = integrate_level([initial_term(norm)], 1, config)
    partials = []
    for branch in branches:
        out, _, _ = integrate_level([branch], 2, config)
        partials.append(sum((final_level_value(t, 3) for t in out), F(0)))
    assert partials == [F(-1, 8), F(23, 48), F(0)]
    assert sum(partials) == F(17, 48)


def test_node_counts_within_bound(worked):
    norm, _ = worked
    run = run_direct(norm, abscissae=(3, 2, 1))
    n = norm.n
    for k, lvl in enumerate(run.levels, start=1):
        assert lvl.terms_out <= (n + 1) ** k


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 15])
def test_simplex_volume(n):
    inst, vol = lv.simplex_instance(n)
    assert run_direct(lv.normalize(inst)).result == vol == F(1, __import__("math").factorial(n))


def test_perturbation_fixture_returns_exact_volume(worked):
    norm, vol = worked
    run = run_direct(norm, abscissae=(1, 1, 1))
    assert run.result == vol
    # one root of the level in l3 sits on its path Re(l3) = 1
    assert [(rec.var, rec.on_path) for rec in run.config.ledger] == [(3, 1)]


def test_bad_abscissae_rejected(worked):
    norm, _ = worked
    with pytest.raises(ValueError):
        run_direct(norm, abscissae=(1, 1))  # wrong arity
    with pytest.raises(ValueError):
        run_direct(norm, abscissae=(-1, 1, 1))  # violates c > 0
    with pytest.raises(ValueError):
        run_direct(norm, abscissae=(1, 5, 1))  # violates A'c > 0


def test_matches_two_constraint_closed_form():
    rng = random.Random(31)
    done = 0
    while done < 15:
        n = rng.randint(1, 8)
        a, b = frac_vec(rng, n), frac_vec(rng, n)
        try:
            expected = lv.m2_closed_form(a, b)
        except lv.GenericityViolated:
            continue
        try:
            norm = lv.normalize(lv.make_instance([a, b], [1, 1]))
            got = run_direct(norm).result
        except SKIPPABLE:
            continue
        assert got == expected
        done += 1


def test_row_permutation_invariance():
    rng = random.Random(32)
    done = 0
    while done < 8:
        m, n = rng.choice([2, 3]), rng.randint(2, 5)
        inst, _, v0 = draw_valid_instance(rng, m, n, signed=True)
        perm = list(range(m))
        rng.shuffle(perm)
        permuted = lv.make_instance(
            [inst.rows[i] for i in perm], [inst.rhs[i] for i in perm]
        )
        try:
            assert run_direct(lv.normalize(permuted)).result == v0
        except SKIPPABLE:
            continue
        done += 1


def test_scaling_law():
    rng = random.Random(33)
    for _ in range(5):
        m, n = rng.choice([2, 3]), rng.randint(1, 5)
        inst, _, base = draw_valid_instance(rng, m, n)
        for t in (F(1, 2), F(2), F(3)):
            scaled = lv.make_instance(inst.rows, [t * bi for bi in inst.rhs])
            assert run_direct(lv.normalize(scaled)).result == t**n * base


def test_monotone_under_added_constraint():
    rng = random.Random(34)
    done = 0
    while done < 8:
        inst, _, v0 = draw_valid_instance(rng, 2, rng.randint(2, 4))
        extra = lv.random_instance(rng, 1, inst.n)
        bigger = lv.make_instance(
            list(inst.rows) + list(extra.rows), list(inst.rhs) + [F(1)]
        )
        try:
            v1 = run_direct(lv.normalize(bigger)).result
        except SKIPPABLE:
            continue
        assert 0 < v1 <= v0
        # spot-check the smaller body against the Monte Carlo oracle
        if done == 0:
            est = lv.mc_volume(bigger, 200_000, seed=99)
            assert abs(est.estimate - float(v1)) <= 3 * est.stderr + 1e-12
        done += 1


def test_generic_m5_n6_merges_like_terms():
    # generic data in the make-up of the benchmark's draws: distinct primes
    # in row 1, other entries nonzero in [-999, 999]
    rng = random.Random(56)
    primes = [1009, 2003, 3001, 4001, 5003, 6007, 7001, 8009, 9001]
    A = [rng.sample(primes, 6)]
    A += [[rng.choice((-1, 1)) * rng.randint(1, 999) for _ in range(6)] for _ in range(4)]
    b = [rng.randint(1, 999) for _ in range(5)]
    norm = lv.normalize(lv.make_instance(A, b))
    n = norm.n
    run = run_direct(norm)  # asserts its node bound on every level
    for k, lvl in enumerate(run.levels, start=1):
        assert lvl.terms_out <= lvl.residues <= (n + 1) ** k
    assert any(lvl.residues > lvl.terms_out for lvl in run.levels)
    tr = lv.run_transform(norm)
    for k, lvl in enumerate(tr.levels, start=1):
        assert lvl.terms_out <= lvl.residues <= (n + 1) ** k
    assert run.result == tr.result > 0


# Generic instances in the benchmark's make-up (a row of distinct primes,
# signed entries elsewhere), m = 3 and m = 4, n = 4.
ORDER_CASES = [
    ([[7001, 9001, 1009, 3001], [52, 62, 75, -65], [-37, -97, -80, 69]], [91, 78, 19]),
    ([[1009, 2003, 9001, 3001], [-95, 33, -78, -75], [-56, 93, 70, 65]], [35, 5, 4]),
    ([[3001, 2003, 9001, 1009], [98, 61, 27, -63], [-50, 78, -90, 35], [-76, -41, -3, -84]],
     [70, 2, 49, 88]),
    ([[5003, 6007, 7001, 8009], [-60, -84, -21, -48], [32, 70, -74, -2], [-53, 24, 21, -18]],
     [80, 80, 57, 17]),
    ([[1, 1], [-2, 2], [2, -1]], [1, 1, 1]),  # the paper's worked example
]


def volume_in_order(norm, order):
    """The direct method integrating the variables in ``order``, the last
    one in closed form, on the engine-chosen contour."""
    c = contour_seed(norm, None)
    config = ContourConfig({i + 1: c[i] for i in range(norm.m)})
    terms = [initial_term(norm)]
    for k in order[:-1]:
        terms, config, _ = integrate_level(terms, k, config)
    return sum((final_level_value(t, order[-1]) for t in terms), F(0))


@pytest.mark.parametrize("A,b", ORDER_CASES)
def test_every_integration_order_gives_the_volume(A, b):
    norm = lv.normalize(lv.make_instance(A, b))
    run = run_direct(norm)
    for order in itertools.permutations(range(1, norm.m + 1)):
        assert volume_in_order(norm, order) == run.result
    assert run.result == lv.run_transform(norm).result


@pytest.mark.parametrize("A,b", ORDER_CASES)
def test_sign_order_and_first_level_residues(A, b):
    norm = lv.normalize(lv.make_instance(A, b))
    run = run_direct(norm)
    positives = [sum(1 for a in row if a > 0) for row in norm.rows]
    order = [lvl.var for lvl in run.levels] + [run.last]
    assert sorted(order) == list(range(1, norm.m + 1))
    # fewest positive entries first, most last, ties to the lower index
    assert order == sorted(order, key=lambda k: (positives[k - 1], k))
    # every factor is positive at the seed and the exponent closes left,
    # so level 1 collects the variable's own factor and each column
    # factor with a positive coefficient on it
    assert run.levels[0].residues == 1 + positives[order[0] - 1]


def test_refused_deep_draw_returns_its_volume():
    # the benchmark's deep seed-12 draw r78-m5n6: integrated in ascending
    # variable order it met a pole of order 2 at l4 = -8/79*l5 and was
    # refused (exit 6); the sign order integrates l2, l4, l3, l5 and
    # returns the volume transform finds
    A = [[7507, 4177, 4957, 7481, 1097, 2803],
         [-328, -760, 205, -815, 142, -789],
         [631, 532, -556, 781, -906, 885],
         [135, 22, -729, -672, -756, -356],
         [287, 22, -729, -536, 120, 990]]
    b = [81, 679, 199, 32, 316]
    norm = lv.normalize(lv.make_instance(A, b))
    run = run_direct(norm)
    assert [lvl.var for lvl in run.levels] + [run.last] == [2, 4, 3, 5, 1]
    assert run.result == lv.run_transform(norm).result == F(31381059609, 286041585816420767146640)
