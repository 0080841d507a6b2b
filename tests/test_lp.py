"""Exact simplex tests, including randomized maximization against scipy."""
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from lapvol import lp


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
    status, x, val = lp.maximize([1], [], [])
    assert status == lp.UNBOUNDED and x is None and val is None
    status, x, val = lp.maximize([1, 1], [[1, -1]], [1])
    assert status == lp.UNBOUNDED and x is None and val is None


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
