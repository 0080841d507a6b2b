"""Associated-transform method: worked example and the H-shape contract."""
import random
from fractions import Fraction

import pytest

import lapvol as lv
from lapvol.linforms import P_VAR
from lapvol.polytope import integer_columns
from lapvol.terms import Side
from lapvol.transform import eliminated_var, run_transform

from conftest import SKIPPABLE, draw_valid_instance, frac_vec
from dense import substituted_term
from linform import LinForm


def F(a, b=1):
    return Fraction(a, b)


@pytest.fixture(scope="module")
def worked():
    inst, vol = lv.paper_example()
    return lv.normalize(inst), vol


def test_substituted_term_worked_example(worked):
    norm, _ = worked
    t = substituted_term(norm)
    assert t.exponent == LinForm.var(P_VAR)  # exp(l1+l2+l3) = exp(p)
    assert t.coeff == 1
    # l1 = p - l2 - l3 everywhere
    assert set(f for f, _ in t.denom) == {
        LinForm([(P_VAR, 1), (2, -1), (3, -1)]),
        LinForm([(2, 1)]),
        LinForm([(3, 1)]),
        LinForm([(P_VAR, 1), (2, -3), (3, 1)]),
        LinForm([(P_VAR, 1), (2, 1), (3, -2)]),
    }


def test_substituted_term_m2_shape():
    a, b = [F(1), F(2)], [F(3), F(1)]
    norm = lv.normalize(lv.make_instance([a, b], [1, 1]))
    t = substituted_term(norm)
    expected = {LinForm([(P_VAR, 1), (2, -1)]), LinForm([(2, 1)])}
    for j in range(2):
        expected.add(LinForm([(P_VAR, a[j]), (2, b[j] - a[j])]))
    assert set(f for f, _ in t.denom) == expected


def test_substituted_term_m1():
    norm = lv.normalize(lv.make_instance([[2, 3]], [1]))
    t = substituted_term(norm)
    assert all(f.variables == (P_VAR,) for f, _ in t.denom)


def test_worked_example_constant_and_volume(worked):
    norm, vol = worked
    run = run_transform(norm, abscissae=(1, 1, 1))
    assert run.H_coefficient == F(17, 24)
    assert run.result == vol == F(17, 48)
    run_default = run_transform(norm)
    assert run_default.H_coefficient == F(17, 24)


def test_no_exponentials_anywhere(worked):
    norm, _ = worked
    run = run_transform(norm)
    # no exponent holds an integrated variable; the config has the path of p
    assert P_VAR in run.config.abscissae
    assert run.result == F(17, 48)


def test_m1_reads_constant_directly():
    norm = lv.normalize(lv.make_instance([[2, 3]], [1]))
    run = run_transform(norm)
    assert run.H_coefficient == F(1, 6)
    assert run.result == F(1, 12)


@pytest.mark.parametrize("n", [1, 3, 7, 12])
def test_simplex_row(n):
    inst, vol = lv.simplex_instance(n)
    assert run_transform(lv.normalize(inst)).result == vol


def test_unit_square_degenerate():
    # l1 = p - l2 and l2 each appear twice: one factor of multiplicity 2
    # each, and the first level refuses the pole of order 2
    norm = lv.normalize(lv.make_instance([[1, 0], [0, 1]], [1, 1]))
    t = substituted_term(norm)
    assert t.coeff == 1
    assert t.denom == ((LinForm([(2, -1), (P_VAR, 1)]), 2), (LinForm.var(2), 2))
    with pytest.raises(lv.DegenerateInstance) as err:
        run_transform(norm)
    assert "coincident" in str(err.value)
    assert "perturbation" in str(err.value)


def test_perturbation_on_p_collision(worked):
    # c = (1,1,2) places the pole l3 = p/2 exactly on Re(l3) = 2
    norm, vol = worked
    run = run_transform(norm, abscissae=(1, 1, 2))
    assert run.result == vol
    assert len(run.config.ledger) >= 1


def test_side_choice_independence(worked):
    norm, vol = worked
    for k in (2, 3):
        for side in (Side.LEFT, Side.RIGHT):
            run = run_transform(norm, force_sides={k: side})
            assert run.H_coefficient == F(17, 24), (k, side)
            assert run.result == vol


def test_side_choice_independence_random():
    rng = random.Random(41)
    done = 0
    while done < 6:
        m, n = rng.choice([2, 3]), rng.randint(2, 5)
        inst, norm, v = draw_valid_instance(rng, m, n, signed=True)
        for k in set(range(1, m + 1)) - {eliminated_var(norm.columns)}:
            for side in (Side.LEFT, Side.RIGHT):
                try:
                    assert run_transform(norm, force_sides={k: side}).result == v
                except SKIPPABLE:
                    continue
        done += 1


def test_eliminated_var_is_the_most_positive_row():
    assert eliminated_var(integer_columns([[1, -1, 2], [3, 1, 2], [-1, 5, 4]])) == 2
    assert eliminated_var(integer_columns([[-1, 1], [1, -1], [1, 1]])) == 3
    assert eliminated_var(integer_columns([[1, -1], [-1, 1]])) == 1  # ties to the lowest index


def test_positive_row_moved_last():
    # the all-positive row eliminates its own variable wherever it sits,
    # so moving it last changes neither the residue tree nor the volume
    A = [[3001, 2003, 9001, 1009, 7001], [98, 61, 27, -63, -5],
         [-50, 78, -90, 35, 11], [-76, -41, -3, -84, 29]]
    b = [70, 2, 49, 88]
    norm = lv.normalize(lv.make_instance(A, b))
    moved = lv.normalize(lv.make_instance(A[1:] + A[:1], b[1:] + b[:1]))
    assert eliminated_var(moved.columns) == 4
    c = norm.interior  # the same contour, its entries moved with the rows
    base = run_transform(norm, abscissae=c)
    run = run_transform(moved, abscissae=c[1:] + c[:1])
    assert [lvl.residues for lvl in run.levels] == [lvl.residues for lvl in base.levels]
    assert sum(lvl.residues for lvl in run.levels) == 9
    assert run.result == base.result == lv.run_direct(norm).result


def test_matches_two_constraint_closed_form():
    rng = random.Random(42)
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
            got = run_transform(norm).result
        except SKIPPABLE:
            continue
        assert got == expected
        done += 1


def test_exact_agreement_with_direct():
    rng = random.Random(43)
    for _ in range(10):
        m, n = rng.choice([2, 3, 4]), rng.randint(2, 6)
        _, norm, v = draw_valid_instance(rng, m, n, signed=True)
        assert lv.run_direct(norm).result == lv.run_transform(norm).result == v
