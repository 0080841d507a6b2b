"""Closed-form oracles, generators, and the Monte Carlo estimator."""
import math
import random
from fractions import Fraction

import pytest

import lapvol as lv
from lapvol import lp
from lapvol.oracle import (
    box_instance,
    identity_check,
    known_instance,
    m2_closed_form,
    mc_volume,
    paper_example,
    simplex_instance,
)
from lapvol.polytope import certify

from conftest import frac_vec


def F(a, b=1):
    return Fraction(a, b)


# -- two-constraint closed form -----------------------------------------


def test_one_dimensional_interval():
    # {x >= 0, x <= 1, 2x <= 1} is [0, 1/2]
    assert m2_closed_form([1], [2]) == F(1, 2)


def test_swapped_parameters_agree():
    rng = random.Random(1)
    done = 0
    while done < 30:
        n = rng.randint(1, 10)
        a, b = frac_vec(rng, n), frac_vec(rng, n)
        try:
            first = m2_closed_form(a, b)
        except lv.GenericityViolated:
            continue
        assert first == m2_closed_form(b, a)
        assert first > 0
        done += 1


def test_genericity_rejections():
    with pytest.raises(lv.GenericityViolated):
        m2_closed_form([1, 2], [1, 3])  # a_1 == b_1
    with pytest.raises(lv.GenericityViolated):
        m2_closed_form([1, 2], [2, 4])  # equal ratios
    with pytest.raises(lv.GenericityViolated):
        m2_closed_form([0, 2], [1, 3])  # zero entry
    with pytest.raises(lv.GenericityViolated):
        m2_closed_form([-1, 2], [2, 3])  # pole-side condition needs a > 0


def test_matches_engine_on_two_rows():
    rng = random.Random(2)
    done = 0
    while done < 10:
        n = rng.randint(1, 6)
        a, b = frac_vec(rng, n), frac_vec(rng, n)
        try:
            expected = m2_closed_form(a, b)
        except lv.GenericityViolated:
            continue
        norm = lv.normalize(lv.make_instance([a, b], [1, 1]))
        assert lv.run_direct(norm).result == expected
        done += 1


# -- the companion identity ----------------------------------------------


def test_identity_n1_is_algebra():
    for a1, b1 in [(F(3), F(5)), (F(-2), F(7, 3)), (F(1, 4), F(-5))]:
        assert identity_check([a1], [b1])


def test_identity_random():
    rng = random.Random(3)
    for n in range(1, 9):
        done = 0
        while done < 40:
            a = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            try:
                assert identity_check(a, b)
            except lv.GenericityViolated:
                continue
            done += 1


def test_identity_rejects_equal_entries():
    with pytest.raises(lv.GenericityViolated):
        identity_check([2, 3], [2, 5])


# -- known instances -------------------------------------------------------


def test_simplex_generator():
    inst, vol = simplex_instance(3)
    assert vol == F(1, 6)
    assert inst.rows == ((F(1), F(1), F(1)),)
    assert lv.run_direct(lv.normalize(inst)).result == vol


def test_box_generator():
    inst, vol = box_instance(2, [1, 1])
    assert vol == 1
    inst2, vol2 = box_instance(3, [F(1, 2), 2, 3])
    assert vol2 == 3


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_box_instance_is_the_identity_instance(n):
    # the identity rows are built as tuples once, without make_instance's
    # copy, and give the same instance and types
    sides = [F(k + 1, 3) if k % 2 else k + 2 for k in range(n)]
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    for given in (None, sides):
        inst, vol = box_instance(n, given)
        want = lv.make_instance(identity, [Fraction(v) for v in given or [1] * n])
        assert inst == want
        assert [type(v) for row in inst.rows for v in row] == [int] * (n * n)
        assert [type(v) for v in inst.rhs] == [Fraction] * n
        assert vol == (F(1) if given is None else F(math.prod(sides)))


def test_box_instance_refuses_a_wrong_side_count():
    for n, sides in ((2, [1]), (1, [1, 2]), (0, None)):
        with pytest.raises(ValueError):
            box_instance(n, sides)


def test_paper_example_generator():
    inst, vol = paper_example()
    assert vol == F(17, 48)
    assert lv.run_direct(lv.normalize(inst)).result == vol


def test_known_instance_dispatch():
    assert known_instance("simplex", 4)[1] == F(1, 24)
    assert known_instance("box", 2)[1] == 1
    assert known_instance("paper-example")[1] == F(17, 48)
    with pytest.raises(ValueError):
        known_instance("octahedron")


# -- Monte Carlo ------------------------------------------------------------


def test_mc_same_seed_is_bit_identical():
    inst, _ = paper_example()
    a = mc_volume(inst, 100_000, seed=5)
    b = mc_volume(inst, 100_000, seed=5)
    assert (a.estimate, a.stderr, a.samples) == (b.estimate, b.stderr, b.samples)


def test_mc_paper_example_within_three_sigma():
    inst, vol = paper_example()
    est = mc_volume(inst, 1_000_000, seed=20260810)
    assert abs(est.estimate - float(vol)) <= 3 * est.stderr


def test_mc_simplex2():
    inst, vol = simplex_instance(2)
    est = mc_volume(inst, 1_000_000, seed=7)
    assert abs(est.estimate - 0.5) <= 3 * est.stderr


def test_mc_box_bound_is_certified():
    inst, vol = box_instance(2, [2, 3])
    est = mc_volume(inst, 400_000, seed=8)
    # the certified box covers the body: sides 2 and 3 both fit
    assert est.box[0] >= 2 and est.box[1] >= 3
    assert abs(est.estimate - float(vol)) <= 3 * est.stderr


@pytest.mark.parametrize("make", [
    lambda: paper_example()[0],
    lambda: lv.make_instance([[1, 2, 3], [3, -1, 1]], [2, 3]),
    lambda: lv.random_instance(random.Random(11), 3, 4),
])
def test_mc_box_holds_the_body(make):
    inst = make()
    est = mc_volume(inst, 1000, seed=0)
    # every side is max x_j over the body, found by an exact LP on the raw rows
    for j, side in enumerate(est.box):
        unit = [int(k == j) for k in range(inst.n)]
        status, _, top = lp.maximize(unit, inst.rows, inst.rhs)
        assert status == lp.OPTIMAL and top == side
    # so the box lies in the cube [0, sum(u)]^n of the compactness witness
    assert max(est.box) <= sum(certify(lv.normalize(inst).columns)[1])


def test_mc_box_beats_the_cube_on_paper_example():
    # sampling the cube [0, sum(u)]^2 = [0, 3]^2 gave stderr 0.003903 at
    # this seed and sample count; the bounding box [0, 2/3] x [0, 3/4]
    # samples 1/18 of its area
    est = mc_volume(paper_example()[0], 200_000, seed=1)
    assert est.box == (Fraction(2, 3), Fraction(3, 4))
    assert est.stderr < 0.003903 / 4


def test_mc_rejects_unbounded():
    with pytest.raises(lv.NotCompact):
        mc_volume(lv.make_instance([[1, -1]], [1]), 1000, seed=0)
