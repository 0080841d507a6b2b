"""Exact scalars, the text of a form, and the tests' LinForm algebra."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lapvol.linforms import P_VAR, form_str, integer_scaled, rat, var_name

from linform import LinForm


def lf(pairs):
    return LinForm(pairs)


def test_rat_parses_strings_and_ints():
    assert rat("-3/7") == Fraction(-3, 7)
    assert rat(5) == Fraction(5)
    assert rat(Fraction(2, 4)) == Fraction(1, 2)


def test_rat_refuses_floats():
    with pytest.raises(TypeError):
        rat(0.1)


@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60)), max_size=6))
def test_integer_scaled_is_the_least_common_scale(values):
    k, ints = integer_scaled(values)
    assert k >= 1 and all(type(v) is int for v in ints)
    assert [Fraction(v, k) for v in ints] == values
    assert k == math.lcm(*(Fraction(v).denominator for v in values))  # 1 for no values


def test_integer_scaled_keeps_ints_as_they_are():
    values = (3, -10**30, 0)
    k, ints = integer_scaled(values)
    assert k == 1 and all(a is b for a, b in zip(ints, values))
    k, ints = integer_scaled([Fraction(4, 2), 5])  # integral Fractions become ints
    assert (k, ints) == (1, (2, 5)) and type(ints[0]) is int


def test_canonical_form_drops_zeros():
    f = lf([(1, 1), (2, 0), (3, "2/2"), (3, -1)])
    assert f.items() == ((1, Fraction(1)),)
    assert f.coeff(2) == 0
    assert not f.is_zero
    assert LinForm.zero().is_zero


def test_structural_equality_is_mathematical_equality():
    assert lf([(1, 2), (2, -4)]) == lf([(2, -4), (1, 2)])
    assert lf([(1, 1)]) - lf([(1, 1)]) == LinForm.zero()
    assert hash(lf([(1, 2)])) == hash(lf([(1, "2/1")]))


def test_ordering_of_p():
    assert P_VAR > 10**6
    assert var_name(P_VAR) == "p"
    assert var_name(3) == "l3"
    f = lf([(P_VAR, 1), (1, 1)])
    assert f.variables == (1, P_VAR)


def test_substitute_worked_example():
    # l1 -> 2*l2 - 2*l3 inside (l1 + 2*l2 - l3) gives 4*l2 - 3*l3
    target = lf([(1, 1), (2, 2), (3, -1)])
    root = lf([(2, 2), (3, -2)])
    assert target.substitute(1, root) == lf([(2, 4), (3, -3)])


def test_substitute_trivial_cases():
    assert lf([(1, 1), (2, 1), (3, 1)]).substitute(1, LinForm.zero()) == lf([(2, 1), (3, 1)])
    assert lf([(2, 3), (3, -1)]).substitute(2, LinForm.var(P_VAR)) == lf([(P_VAR, 3), (3, -1)])
    # var absent: unchanged
    f = lf([(2, 1)])
    assert f.substitute(1, lf([(3, 5)])) == f


def test_evaluate_paper_contour():
    f = lf([(1, 1), (2, -2), (3, 2)])
    assert f.evaluate({1: Fraction(3), 2: Fraction(2), 3: Fraction(1)}) == 1
    assert LinForm.zero().evaluate({}) == 0
    # the pathological equal-abscissae case evaluates to an exact zero
    assert lf([(3, 1), (2, -1)]).evaluate({2: Fraction(1), 3: Fraction(1)}) == 0


def test_evaluate_missing_variable():
    with pytest.raises(KeyError):
        lf([(1, 1), (2, 1)]).evaluate({1: Fraction(1)})


def test_solve_for_examples():
    leading, root = lf([(1, 1), (2, -2), (3, 2)]).solve_for(1)
    assert leading == 1 and root == lf([(2, 2), (3, -2)])

    a, b = Fraction(5, 3), Fraction(-7, 2)
    leading, root = lf([(1, a), (2, b)]).solve_for(1)
    assert leading == a and root == lf([(2, -b / a)])

    leading, root = LinForm.var(2).solve_for(2)
    assert leading == 1 and root.is_zero


def test_solve_for_absent_variable():
    with pytest.raises(ValueError):
        lf([(2, 1)]).solve_for(1)


def parallel(f, g):
    """Proportional forms are exactly those sharing a primitive form."""
    return f.primitive()[1] == g.primitive()[1]


def test_parallel():
    assert parallel(lf([(1, 2), (2, -2)]), lf([(1, 1), (2, -1)]))
    assert not parallel(lf([(1, 2), (2, -2)]), lf([(1, 1), (2, 1)]))
    assert not parallel(lf([(1, 1)]), lf([(1, 1), (2, 1)]))
    assert parallel(LinForm.zero(), LinForm.zero())
    assert not parallel(LinForm.zero(), lf([(1, 1)]))


def test_primitive_examples():
    scale, form = lf([(1, "4/3"), (2, -2)]).primitive()
    assert form.items() == ((1, -2), (2, 3)) and scale == Fraction(-2, 3)
    assert all(type(c) is int for _, c in form.items())
    # the highest-index variable decides the sign: p in the transform
    scale, form = lf([(2, 6), (P_VAR, -4)]).primitive()
    assert form == lf([(2, -3), (P_VAR, 2)]) and scale == -2
    assert lf([(3, 5)]).primitive() == (5, lf([(3, 1)]))
    assert LinForm.zero().primitive() == (1, LinForm.zero())


small_rats = st.fractions(min_value=-10, max_value=10, max_denominator=12)
forms = st.builds(
    LinForm,
    st.lists(st.tuples(st.integers(min_value=1, max_value=4), small_rats), max_size=4),
)
points = st.fixed_dictionaries({k: small_rats for k in (1, 2, 3, 4)})


@given(forms, forms, points)
def test_evaluate_is_linear(f, g, at):
    assert (f + g).evaluate(at) == f.evaluate(at) + g.evaluate(at)


@given(forms, small_rats, points)
def test_evaluate_scales(f, s, at):
    assert (f * s).evaluate(at) == s * f.evaluate(at)


@given(forms)
def test_solve_substitute_round_trip(f):
    for var in f.variables:
        _, root = f.solve_for(var)
        assert f.substitute(var, root).is_zero


@given(small_rats, small_rats, small_rats)
def test_rational_arithmetic_is_exact(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    if z != 0:
        assert (x / z) * z == x


@given(forms, small_rats)
def test_primitive_is_canonical(f, s):
    scale, form = f.primitive()
    assert form * scale == f
    if f.is_zero:
        return
    coeffs = [c for _, c in form.items()]
    assert all(type(c) is int for c in coeffs)
    assert math.gcd(*coeffs) == 1 and coeffs[-1] > 0
    assert form.primitive() == (1, form)
    if s != 0:
        # proportional forms map to the same primitive form
        assert (f * s).primitive()[1] == form


coeffs = st.one_of(st.integers(-3, 3), small_rats, st.sampled_from([Fraction(1), Fraction(-1)]))
pairs = st.dictionaries(st.sampled_from([1, 2, 3, P_VAR]), coeffs, max_size=4).map(
    lambda d: sorted(d.items()))


@given(pairs)
def test_form_str_writes_what_linform_writes(items):
    assert form_str(items) == str(LinForm(items))


def test_form_str_examples():
    assert form_str([]) == "0" == form_str([(1, 0)])
    assert form_str([(1, -1), (P_VAR, 1)]) == "-l1 + p"
    assert form_str([(2, Fraction(-2, 3)), (3, 1), (P_VAR, -5)]) == "-2/3*l2 + l3 - 5*p"


def test_module_doctests():
    import doctest

    import lapvol.linforms
    import linform

    for mod in (lapvol.linforms, linform):
        failures, attempted = doctest.testmod(mod)
        assert failures == 0 and attempted
