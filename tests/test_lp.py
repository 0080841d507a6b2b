"""Exact simplex tests, including randomized maximization against scipy."""
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from scipy.optimize import linprog

import lapvol as lv
from lapvol import lp, polytope

from conftest import PRIMES


def test_trivially_feasible():
    # a zero objective asks for feasibility only: the start basis x = 0
    # answers it without a pivot
    status, x, val = lp.maximize([0, 0], [[1, 0], [-1, 1]], [1, 0])
    assert status == lp.OPTIMAL
    assert x == (0, 0) and val == 0


def test_compactness_system_of_worked_example():
    # the margin LP of rows (1,1), (-2,2), (2,-1) over (c, t) >= 0:
    # t - c_i <= 0, t - (A'c)_j <= 0, sum(c) <= 1; its witness c yields
    # the compactness witness u = c / min_j (A'c)_j with A'u >= 1
    rows = [(1, 1), (-2, 2), (2, -1)]
    A = [[-int(k == i) for k in range(3)] + [1] for i in range(3)]
    A += [[-rows[i][j] for i in range(3)] + [1] for j in range(2)]
    A.append([1, 1, 1, 0])
    status, x, t_star = lp.maximize([0, 0, 0, 1], A, [0] * 5 + [1])
    assert status == lp.OPTIMAL and t_star == Fraction(1, 3)
    c = x[:3]
    col = [sum(rows[i][j] * c[i] for i in range(3)) for j in range(2)]
    u = [v / min(col) for v in c]
    assert all(v >= 0 for v in u)
    for j in range(2):
        assert sum(rows[i][j] * u[i] for i in range(3)) >= 1
    # the hand-checked witness u = (1,0,0) satisfies the same system
    hand = (1, 0, 0)
    for j in range(2):
        assert sum(rows[i][j] * hand[i] for i in range(3)) >= 1


def test_maximize_simple():
    status, x, val = lp.maximize([3, 2], [[1, 1], [1, 3]], [4, 6])
    assert status == lp.OPTIMAL
    assert val == 12 and x == (Fraction(4), Fraction(0))


def test_maximize_unbounded():
    assert lp.maximize([1], [], []) == (lp.UNBOUNDED, None, None)
    assert lp.maximize([1, 1], [[1, -1]], [1]) == (lp.UNBOUNDED, None, None)


def test_degenerate_ties_terminate():
    # classic cycling-prone shape; Bland's rule must terminate
    status, x, val = lp.maximize(
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            [Fraction(1, 4), -60, Fraction(-1, 25), 9],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3],
            [0, 0, 1, 0],
        ],
        [0, 0, 1],
    )
    assert status == lp.OPTIMAL
    assert val == Fraction(1, 20)


def test_negative_rhs_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        lp.maximize([1], [[1]], [-1])


@pytest.mark.parametrize("seed", range(8))
def test_random_feasibility_matches_scipy(seed):
    # random maximizations over {x >= 0, Ax <= b, b >= 0}: the status, the
    # feasibility of the witness and the optimal value must all match
    # HiGHS
    rng = random.Random(seed)
    for _ in range(25):
        nv = rng.randint(1, 4)
        nc = rng.randint(0, 6)
        A = [[rng.randint(-4, 4) for _ in range(nv)] for _ in range(nc)]
        b = [rng.randint(0, 5) for _ in range(nc)]
        obj = [rng.randint(-3, 3) for _ in range(nv)]
        status, x, val = lp.maximize(obj, A, b)
        ref = linprog(
            c=-np.array(obj, dtype=float),
            A_ub=np.array(A, dtype=float).reshape(nc, nv) if nc else None,
            b_ub=np.array(b, dtype=float) if nc else None,
            bounds=[(0, None)] * nv, method="highs",
        )
        assert ref.status in (0, 3), ref.message  # optimal or unbounded
        if ref.status == 3:
            assert status == lp.UNBOUNDED, (A, b, obj)
            continue
        assert status == lp.OPTIMAL, (A, b, obj)
        assert all(v >= 0 for v in x)
        for row, bi in zip(A, b):
            assert sum(a * v for a, v in zip(row, x)) <= bi
        assert val == sum(c * v for c, v in zip(obj, x))
        assert abs(float(val) - (-ref.fun)) <= 1e-9 * max(1.0, abs(ref.fun)), (A, b, obj)


# -- the pivot sequence, pinned against the dense tableau ---------------------


def dense_maximize(objective, A, b):
    """The dense-tableau Bland simplex that the condensed integer tableau
    of lp.maximize replaced: slack identity block stored, Fraction
    entries.  Same rule on the same variable ids, so the two must return
    the same (status, x, value) on every input."""
    cost = [Fraction(v) for v in objective]
    n, m = len(cost), len(A)
    tab = [[Fraction(v) for v in row] + [Fraction(int(k == i)) for k in range(m)]
           for i, row in enumerate(A)]
    basis = list(range(n, n + m))
    val = [Fraction(v) for v in b]
    red = cost + [Fraction(0)] * m
    z = Fraction(0)
    while True:
        enter = next((j for j, r in enumerate(red) if r > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = val[i] / a
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            return lp.UNBOUNDED, None, None
        inv = 1 / tab[leave][enter]
        piv_row = tab[leave] = [v * inv for v in tab[leave]]
        piv_val = val[leave] = val[leave] * inv
        for i in range(m):
            f = tab[i][enter]
            if i != leave and f != 0:
                tab[i] = [v - f * w for v, w in zip(tab[i], piv_row)]
                val[i] -= f * piv_val
        basis[leave] = enter
        f = red[enter]
        z += f * piv_val
        red = [v - f * w for v, w in zip(red, piv_row)]
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = val[i]
    return lp.OPTIMAL, tuple(x), z


def scipy_test_lps(seed):
    """The 25 maximizations test_random_feasibility_matches_scipy draws."""
    rng = random.Random(seed)
    for _ in range(25):
        nv = rng.randint(1, 4)
        nc = rng.randint(0, 6)
        A = [[rng.randint(-4, 4) for _ in range(nv)] for _ in range(nc)]
        b = [rng.randint(0, 5) for _ in range(nc)]
        obj = [rng.randint(-3, 3) for _ in range(nv)]
        yield obj, A, b


def margin_lp(columns):
    """The (objective, A, b) of the full margin LP over the rows whose
    integer columns are ``columns``, as lp.maximize takes them: variables
    c_1..c_m, t >= 0, maximize the margin t.  find_strict_interior solves
    row-generation relaxations of it; this is the reference whose dense
    Bland vertex dense_seed reads."""
    m = len(columns[0][1])
    A = [[-int(k == i) for k in range(m)] + [1] for i in range(m)]   # t - c_i <= 0
    A += [[-a for a in col] + [den] for den, col in columns]         # D_j (t - (A'c)_j) <= 0
    A.append([1] * m + [0])                                          # sum(c) <= 1
    return [0] * m + [1], A, [0] * (m + len(columns)) + [1]


def test_matches_dense_reference_on_scipy_test_lps():
    for seed in range(8):
        for args in scipy_test_lps(seed):
            assert lp.maximize(*args) == dense_maximize(*args), args


def test_matches_dense_reference_on_cycling_case():
    args = (
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            [Fraction(1, 4), -60, Fraction(-1, 25), 9],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3],
            [0, 0, 1, 0],
        ],
        [0, 0, 1],
    )
    assert lp.maximize(*args) == dense_maximize(*args)


@pytest.mark.parametrize("m,n", [(2, 24), (2, 40), (3, 32), (4, 17), (5, 7), (5, 12),
                                 (6, 4), (7, 30), (8, 3), (8, 40)])
def test_margin_lps_of_generic_rows_match_dense_reference(m, n):
    # a positive first row and mixed-sign others, each divided by its own b
    # entry as normalize does, so the rows have non-unit denominators and
    # the per-row lcm scaling of the tableau is exercised
    rng = random.Random(f"{m}x{n}")
    A = [[rng.randint(1, 999) for _ in range(n)]]
    A += [[rng.choice((-1, 1)) * rng.randint(1, 999) for _ in range(n)] for _ in range(m - 1)]
    inst = lv.make_instance(A, [rng.randint(1, 999) for _ in range(m)])
    rows = polytope.column_rows(polytope.scale_and_dedupe(inst)[0])
    assert any(v.denominator > 1 for row in rows for v in row)
    args = margin_lp(polytope.integer_columns(rows))
    result = lp.maximize(*args)
    assert result[0] == lp.OPTIMAL and result[2] > 0
    assert result == dense_maximize(*args)


@pytest.mark.parametrize("block", range(6))
def test_margin_lps_of_signed_draws_match_dense_reference(block):
    # small signed entries over denominators 1..3 give ratio-test ties and
    # optima at several vertices: on draws 75, 118 and 135 an entering rule
    # by column position, not variable id, returns another optimal vertex
    for seed in range(25 * block, 25 * block + 25):
        rng = random.Random(seed)
        inst = lv.random_instance(rng, rng.randint(2, 8), rng.randint(2, 12), signed=True)
        args = margin_lp(polytope.integer_columns(
            polytope.column_rows(polytope.scale_and_dedupe(inst)[0])))
        assert lp.maximize(*args) == dense_maximize(*args), seed


def test_gate_failing_margin_lp_matches_dense_reference(lp_calls):
    # the refusal is decided by the one relaxation solve, whose t* = 0
    # bounds the margin LP's; the margin LP itself has t* = 0 too
    inst = lv.random_instance(random.Random(1), 2, 3, signed=True)
    rows = polytope.column_rows(polytope.scale_and_dedupe(inst)[0])
    columns = polytope.integer_columns(rows)
    with pytest.raises(lv.NotPointed):
        polytope.find_strict_interior(columns)
    (args,) = lp_calls
    assert (lp_calls, "not pointed") == row_generation_reference(columns)
    result = lp.maximize(*args)
    assert result[0] == lp.OPTIMAL and result[2] == 0
    assert result == dense_maximize(*args)
    result = lp.maximize(*margin_lp(columns))
    assert result[0] == lp.OPTIMAL and result[2] == 0
    assert result == dense_maximize(*margin_lp(columns))


# -- ints taken as they are ---------------------------------------------------


def _mixed(values, first):
    """Alternate ints and Fractions along ``values``, starting with an
    int when ``first`` is 0."""
    return [Fraction(v) if (k + first) % 2 else int(v) for k, v in enumerate(values)]


def test_int_fraction_and_mixed_inputs_agree():
    for seed in range(8):
        for obj, A, b in scipy_test_lps(seed):
            expected = lp.maximize(obj, A, b)
            as_fractions = ([Fraction(v) for v in obj], [[Fraction(v) for v in row] for row in A],
                            [Fraction(v) for v in b])
            mixed = (_mixed(obj, 0), [_mixed(row, i) for i, row in enumerate(A)], _mixed(b, 1))
            assert lp.maximize(*as_fractions) == expected, (obj, A, b)
            assert lp.maximize(*mixed) == expected, (obj, A, b)
    # a Fraction LP with integral entries given as ints: the cycling case
    obj = [Fraction(3, 4), -150, Fraction(1, 50), -6]
    A = [[Fraction(1, 4), -60, Fraction(-1, 25), 9], [Fraction(1, 2), -90, Fraction(-1, 50), 3],
         [0, 0, 1, 0]]
    expected = lp.maximize(obj, A, [0, 0, 1])
    as_fractions = ([Fraction(v) for v in obj], [[Fraction(v) for v in row] for row in A],
                    [Fraction(0), Fraction(0), Fraction(1)])
    assert lp.maximize(*as_fractions) == expected == dense_maximize(obj, A, [0, 0, 1])


@pytest.mark.parametrize("args", [
    ([1.0], [[1]], [1]),
    ([1], [[0.5]], [1]),
    ([1], [[1]], [1.0]),
])
def test_float_entry_refused(args):
    with pytest.raises(TypeError, match="float"):
        lp.maximize(*args)


@pytest.mark.parametrize("block", range(2))
def test_margin_lp_on_integer_columns_matches_fraction_rows(block):
    # find_strict_interior writes column j as [-D_j A_1j .. -D_j A_mj, D_j]:
    # the integer row lp.maximize derived from [-A_1j .. -A_mj, 1]
    for seed in range(300 + 25 * block, 325 + 25 * block):
        rng = random.Random(seed)
        inst = lv.random_instance(rng, rng.randint(1, 6), rng.randint(1, 12), signed=True)
        rows = polytope.column_rows(polytope.scale_and_dedupe(inst)[0])
        args = margin_lp(polytope.integer_columns(rows))
        m, n = len(rows), len(rows[0])
        A = [[-int(k == i) for k in range(m)] + [1] for i in range(m)]
        A += [[-rows[i][j] for i in range(m)] + [1] for j in range(n)]
        A.append([1] * m + [0])
        as_rows = ([0] * m + [1], A, [0] * (m + n) + [1])
        assert lp.maximize(*args) == lp.maximize(*as_rows) == dense_maximize(*as_rows), seed


# -- the closed-form seed where A'1 >= 1 --------------------------------------


def closed_form_cases():
    """Instances of the benchmark's make-up (m 2-8, n 3-40), signed draws
    and the paper example, whose column 1 sums to exactly 1."""
    rng = random.Random("closed-form seed")
    cases = [lv.paper_example()[0]]
    for _ in range(40):
        m, n = rng.randint(2, 8), rng.randint(3, 40)
        A = [rng.sample(PRIMES, n)] + [
            [rng.choice((-1, 1)) * rng.randint(1, 999) for _ in range(n)] for _ in range(m - 1)]
        cases.append(lv.make_instance(A, [rng.randint(1, 999) for _ in range(m)]))
    for _ in range(80):
        cases.append(lv.random_instance(rng, rng.randint(1, 6), rng.randint(1, 8), signed=True))
    return cases


def dense_seed(columns):
    """The integer-scaled c of the dense Bland vertex of the full margin
    LP, or None where its t* is 0: what find_strict_interior must
    return or refuse."""
    m = len(columns[0][1])
    status, x, t_star = dense_maximize(*margin_lp(columns))
    assert status == lp.OPTIMAL
    if t_star == 0:
        return None
    scale = lcm(*(v.denominator for v in x[:m]))
    return tuple(v * scale for v in x[:m])


def row_generation_reference(columns):
    """The LP solves find_strict_interior makes on the columns, replayed
    with dense_maximize and Fraction arithmetic: (the argument tuples of
    the solves in order, the path taken).  The relaxation keeps the
    columns with sum(col) < D_j and adds every column its optimum
    violates; an optimum that violates none is the seed."""
    m = len(columns[0][1])
    kept = [j for j, (den, col) in enumerate(columns) if sum(col) < den]
    if not kept:
        return [], "closed form"
    calls = []
    while True:
        calls.append(polytope.relaxed_lp(columns, kept))
        _, x, t_star = dense_maximize(*calls[-1])
        if t_star == 0:
            return calls, "not pointed"
        c = [v + x[m] for v in x[:m]]
        cut = [j for j, (den, col) in enumerate(columns)
               if sum(a * v for a, v in zip(col, c)) < den * x[m]]
        if not cut:
            break
        kept += cut
    return calls, "accepted in round 1" if len(calls) == 1 else "accepted after a cut"


def test_closed_form_seed_is_the_margin_lps_unique_optimum(lp_calls):
    closed = solved = ties = 0
    for inst in closed_form_cases():
        columns = polytope.scale_and_dedupe(inst)[0]
        m = len(columns[0][1])
        status, x, t_star = dense_maximize(*margin_lp(columns))
        assert status == lp.OPTIMAL
        calls, path = row_generation_reference(columns)
        lp_calls.clear()
        try:
            c = polytope.find_strict_interior(columns)
        except lv.NotPointed:
            assert t_star == 0 and path == "not pointed" and lp_calls == calls
            continue
        if all(sum(col) >= den for den, col in columns):
            # the reference's optimum is the uniform c at t* = 1/m, and the
            # seed is all ones without an LP
            assert t_star == Fraction(1, m) and x[:m] == (Fraction(1, m),) * m
            assert c == (1,) * m and all(type(v) is int for v in c)
            assert not lp_calls and path == "closed form"
            closed += 1
            ties += any(sum(col) == den for den, col in columns)
        else:
            scale = lcm(*(v.denominator for v in x[:m]))
            assert lp_calls == calls and c == tuple(v * scale for v in x[:m])
            assert all(type(v) is int for v in c)
            solved += 1
    assert closed and solved and ties


# -- row generation: the relaxation's vertex against the margin LP's ---------


def seed_identity_cases():
    """Signed draws (m 2-8, n 2-12) and draws of the benchmark's make-up
    at its wide and deep sizes, as integer columns."""
    for seed in range(200):
        rng = random.Random(seed)
        inst = lv.random_instance(rng, rng.randint(2, 8), rng.randint(2, 12), signed=True)
        yield polytope.scale_and_dedupe(inst)[0]
    rng = random.Random("seed identity")
    for m, n in [(2, 24), (2, 40), (5, 4), (5, 7), (6, 3), (7, 3), (8, 3)] * 4:
        A = [rng.sample(PRIMES, n)] + [
            [rng.choice((-1, 1)) * rng.randint(1, 999) for _ in range(n)] for _ in range(m - 1)]
        inst = lv.make_instance(A, [rng.randint(1, 999) for _ in range(m)])
        yield polytope.scale_and_dedupe(inst)[0]


def test_seed_is_the_dense_bland_vertex_on_every_path(lp_calls):
    # the seed is the relaxation's vertex; that it is also the full margin
    # LP's Bland vertex is measured here, not promised: it holds on every
    # case, those whose relaxation optimum is not unique included
    paths = {}
    for columns in seed_identity_cases():
        calls, path = row_generation_reference(columns)
        lp_calls.clear()
        try:
            c = polytope.find_strict_interior(columns)
        except lv.NotPointed:
            c = None
        assert lp_calls == calls, columns
        assert c == dense_seed(columns), columns
        assert (c is None) == (path == "not pointed")
        paths[path] = paths.get(path, 0) + 1
    assert set(paths) == {"closed form", "accepted in round 1", "accepted after a cut",
                          "not pointed"}, paths
