"""Normalization and the margin LP that certifies both gates."""
import random
from fractions import Fraction

import pytest

import lapvol as lv
from lapvol import lp
from lapvol.polytope import (
    compact_witness,
    certify,
    column_rows,
    find_strict_interior,
    integer_columns,
    is_strict_interior,
    make_instance,
    normalize,
    scale_and_dedupe,
)

from conftest import LP_SOLVED_ROWS, draw_valid_instance
from test_lp import dense_seed


def F(v):
    return Fraction(v)


def rows_of(*rows):
    return tuple(tuple(Fraction(v) for v in r) for r in rows)


# -- scaling / cleanup -------------------------------------------------


def test_scale_noop_on_unit_rhs():
    inst = make_instance([[1, 1], [-2, 2], [2, -1]], [1, 1, 1])
    columns, dropped, merged = scale_and_dedupe(inst)
    assert column_rows(columns) == inst.rows and dropped == 0 and merged == 0


def test_scale_divides_rows():
    inst = make_instance([[2, 2]], [2])
    columns, _, _ = scale_and_dedupe(inst)
    assert column_rows(columns) == rows_of((1, 1))


def test_scale_merges_duplicates():
    inst = make_instance([[1, 1], [2, 2]], [1, 2])
    columns, dropped, merged = scale_and_dedupe(inst)
    assert column_rows(columns) == rows_of((1, 1)) and merged == 1


def test_vacuous_rows_dropped():
    inst = make_instance([[0, 0], [1, 1]], [1, 1])
    columns, dropped, _ = scale_and_dedupe(inst)
    assert column_rows(columns) == rows_of((1, 1)) and dropped == 1


def test_nonpositive_b_rejected():
    with pytest.raises(lv.NonpositiveB):
        scale_and_dedupe(make_instance([[1, 1]], [0]))
    with pytest.raises(lv.NonpositiveB):
        scale_and_dedupe(make_instance([[1, 1], [1, 2]], [1, -3]))


def test_empty_after_cleanup():
    with pytest.raises(lv.EmptyAfterCleanup):
        scale_and_dedupe(make_instance([[0, 0]], [5]))


# -- compactness -------------------------------------------------------


def test_compact_worked_example():
    assert compact_witness(rows_of((1, 1), (-2, 2), (2, -1))) is not None


def test_compact_unit_box_pattern():
    assert compact_witness(rows_of((1, 0), (0, 1))) is not None


def test_not_compact_single_row():
    assert compact_witness(rows_of((1, -1))) is None


def test_compact_witness_verifies():
    rows = rows_of((1, 1), (-2, 2), (2, -1))
    u = compact_witness(rows)
    assert u is not None and all(v >= 0 for v in u)
    for j in range(2):
        assert sum(rows[i][j] * u[i] for i in range(3)) >= 1


# -- strict interior / pointedness -------------------------------------


def test_interior_worked_example():
    rows = rows_of((1, 1), (-2, 2), (2, -1))
    c = find_strict_interior(integer_columns(rows))
    assert all(v > 0 for v in c)
    for j in range(2):
        assert sum(rows[i][j] * c[i] for i in range(3)) > 0
    # the worked contour (3,2,1) is itself a valid witness of the system
    hand = (F(3), F(2), F(1))
    assert all(v > 0 for v in hand)
    for j in range(2):
        assert sum(rows[i][j] * hand[i] for i in range(3)) > 0


def test_interior_identity_rows():
    c = find_strict_interior(integer_columns(rows_of((1, 0), (0, 1))))
    assert all(v > 0 for v in c)


def test_not_pointed():
    with pytest.raises(lv.NotPointed):
        find_strict_interior(integer_columns(rows_of((-1, 1))))


def test_normalize_full_pipeline():
    inst, _ = lv.paper_example()
    norm = normalize(inst)
    assert norm.m == 3 and norm.n == 2
    assert norm.columns == integer_columns(norm.rows)
    assert all(v > 0 for v in norm.interior)
    assert reference_is_strict_interior(norm.rows, norm.interior)
    u = certify(norm.columns)[1]
    assert all(v >= 0 for v in u)
    assert all(v >= 1 for v in reference_column_sums(norm.rows, u))


def test_normalize_solves_one_lp(seed_calls, lp_calls):
    # the seed is found once per instance: in closed form where A'1 >= 1,
    # and on LP_SOLVED_ROWS by one relaxation solve, whose vertex is the
    # full margin LP's Bland vertex there too
    for inst, lp_solved in ((lv.paper_example()[0], 0),
                            (make_instance(LP_SOLVED_ROWS, [1, 1, 1]), 1)):
        seed_calls.clear()
        lp_calls.clear()
        norm = normalize(inst)
        assert len(seed_calls) == 1 and len(lp_calls) == lp_solved
        assert norm.interior == dense_seed(norm.columns)
        # the compactness witness of certify is exact: u >= 0 and A'u >= 1
        u = certify(norm.columns)[1]
        assert all(v >= 0 for v in u)
        for j in range(norm.n):
            assert sum(norm.rows[i][j] * u[i] for i in range(norm.m)) >= 1


def test_normalize_rejects_unbounded():
    with pytest.raises(lv.NotCompact):
        normalize(make_instance([[1, -1]], [1]))


# -- the integer seed check against the Fraction reference -------------


def reference_column_sums(rows, c):
    """A'c in Fractions, one entry per column."""
    return tuple(sum(row[j] * ci for row, ci in zip(rows, c)) for j in range(len(rows[0])))


def reference_is_strict_interior(rows, c):
    """c > 0 and A'c > 0 decided in Fractions on the rows: the check that
    is_strict_interior decides on the integer columns."""
    return all(v > 0 for v in c) and all(v > 0 for v in reference_column_sums(rows, c))


def test_integer_columns_scale_each_column():
    rows = rows_of(("1/2", "2/3", 0), ("-3/4", 5, "-7/3"))
    assert integer_columns(rows) == ((4, (2, -3)), (3, (2, 15)), (3, (0, -7)))


@pytest.mark.parametrize("seed", range(4))
def test_seed_check_matches_fraction_reference(seed):
    rng = random.Random(seed)
    zero_entry = zero_sum = accepted = 0
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        rows = tuple(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
                     for _ in range(m))
        columns = integer_columns(rows)
        cases = [
            [Fraction(rng.randint(-1, 9), rng.randint(1, 5)) for _ in range(m)],
            [rng.randint(0, 9) for _ in range(m)],  # ints are seeds too
        ]
        # a c > 0 with (A'c)_j = 0 exactly: solve column j for the last entry
        j = rng.randrange(n)
        if m > 1 and rows[-1][j] != 0:
            rest = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(m - 1)]
            last = -sum(row[j] * v for row, v in zip(rows, rest)) / rows[-1][j]
            cases.append(rest + [last])
        for c in cases:
            expected = reference_is_strict_interior(rows, c)
            assert is_strict_interior(columns, c) == expected, (rows, c)
            zero_entry += any(v == 0 for v in c)
            zero_sum += all(v > 0 for v in c) and 0 in reference_column_sums(rows, c)
            accepted += expected
    # every boundary the integer check must decide exactly was met
    assert zero_entry and zero_sum and accepted


@pytest.mark.parametrize("seed", range(3))
def test_certificate_matches_fraction_reference(seed):
    rng = random.Random(200 + seed)
    checked = 0
    for _ in range(40):
        inst = lv.random_instance(rng, rng.randint(1, 5), rng.randint(1, 8), signed=True)
        rows = column_rows(scale_and_dedupe(inst)[0])
        try:
            c, u = certify(integer_columns(rows))
        except lv.NotCompact:
            continue
        assert all(v.denominator == 1 for v in c)
        assert reference_is_strict_interior(rows, c)
        assert u == tuple(v / min(reference_column_sums(rows, c)) for v in c)
        checked += 1
    assert checked


# -- cross-checks against independent formulations ---------------------


def _recession_direction(rows):
    """Nonzero d >= 0 with Ad <= 0, found by an LP on the primal side:
    maximize 1'd over {d >= 0, Ad <= 0, 1'd <= 1}, whose optimum is 1
    iff such a direction exists (and 0 otherwise)."""
    n = len(rows[0])
    status, d, value = lp.maximize([1] * n, [list(row) for row in rows] + [[1] * n],
                                   [0] * len(rows) + [1])
    assert status == lp.OPTIMAL and value in (0, 1)
    return d if value == 1 else None


@pytest.mark.parametrize("seed", range(6))
def test_noncompact_has_recession_direction(seed):
    rng = random.Random(seed)
    found = 0
    for _ in range(60):
        inst = lv.random_instance(rng, rng.randint(1, 3), rng.randint(1, 3), signed=True)
        rows = column_rows(scale_and_dedupe(inst)[0])
        if compact_witness(rows) is not None:
            continue
        d = _recession_direction(rows)
        assert d is not None
        assert any(v > 0 for v in d) and all(v >= 0 for v in d)
        for row in rows:
            assert sum(r * v for r, v in zip(row, d)) <= 0
        found += 1
    assert found > 0


def _bounded_by_coordinate_lps(rows):
    """Boundedness oracle: max x_j over {x >= 0, Ax <= 1} finite for all j."""
    n = len(rows[0])
    for j in range(n):
        obj = [1 if k == j else 0 for k in range(n)]
        status, *_ = lp.maximize(obj, rows, [1] * len(rows))
        if status == lp.UNBOUNDED:
            return False
        assert status == lp.OPTIMAL
    return True


@pytest.mark.parametrize("seed", range(6))
def test_gates_match_boundedness_oracle(seed):
    # pointedness and compactness both coincide with LP boundedness in
    # every coordinate direction on small instances
    rng = random.Random(100 + seed)
    for _ in range(25):
        inst = lv.random_instance(rng, rng.randint(1, 3), rng.randint(1, 3), signed=True)
        rows = column_rows(scale_and_dedupe(inst)[0])
        bounded = _bounded_by_coordinate_lps(rows)
        assert (compact_witness(rows) is not None) == bounded
        pointed = True
        try:
            find_strict_interior(integer_columns(rows))
        except lv.NotPointed:
            pointed = False
        assert pointed == bounded


def test_normalize_preserves_volume_monte_carlo():
    rng = random.Random(77)
    inst, _, exact = draw_valid_instance(rng, 2, 2)
    # scale b away from 1, then check the normalized body has the stated
    # volume relation via two independent MC estimates
    t = Fraction(3, 2)
    scaled = make_instance(inst.rows, [t * b for b in inst.rhs])
    est_scaled = lv.mc_volume(scaled, 200_000, seed=13)
    est_norm = lv.mc_volume(inst, 200_000, seed=14)
    # vol(scaled) = t^n vol(input); each estimate within 3 stderr
    n = inst.n
    assert abs(est_norm.estimate - float(exact)) <= 3 * est_norm.stderr + 1e-12
    assert abs(est_scaled.estimate - float(t**n * exact)) <= 3 * est_scaled.stderr + 1e-12
