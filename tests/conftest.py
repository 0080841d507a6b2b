import random
from fractions import Fraction

import pytest

import lapvol as lv
from lapvol import lp, polytope

SKIPPABLE = (lv.NotCompact, lv.NotPointed, lv.DegenerateInstance)


def draw_valid_instance(rng: random.Random, m: int, n: int, signed: bool = False,
                        max_attempts: int = 500):
    """A random instance that passes validation and both symbolic methods;
    degenerate or unbounded draws are rejected and redrawn."""
    for _ in range(max_attempts):
        inst = lv.random_instance(rng, m, n, signed=signed)
        try:
            norm = lv.normalize(inst)
            vd = lv.run_direct(norm).result
            vt = lv.run_transform(norm).result
        except SKIPPABLE:
            continue
        assert vd == vt
        return inst, norm, vd
    raise AssertionError(f"no valid instance found in {max_attempts} draws (m={m}, n={n})")


def frac_vec(rng: random.Random, n: int, num_hi: int = 9, den_hi: int = 4):
    return [Fraction(rng.randint(1, num_hi), rng.randint(1, den_hi)) for _ in range(n)]


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except lv.VolumeEngineError as exc:
        return type(exc), str(exc)


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


PRIMES = [p for p in range(1009, 2000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def prime_row_draws(count, seed, ms=(2, 6), ns=(2, 5)):
    """Instances of the benchmark's make-up: row 1 distinct primes, rows
    2..m mixed-sign integers, b positive integers; m and n drawn from
    the inclusive ranges ``ms`` and ``ns``."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n = rng.randint(*ms), rng.randint(*ns)
        A = [rng.sample(PRIMES, n)] + [
            [rng.choice((-1, 1)) * rng.randint(1, 999) for _ in range(n)] for _ in range(m - 1)]
        out.append(lv.normalize(lv.make_instance(A, [rng.randint(1, 999) for _ in range(m)])))
    return out


@pytest.fixture
def lp_calls(monkeypatch):
    """The argument tuples of every lp.maximize call made during the test."""
    calls = []
    real = lp.maximize
    monkeypatch.setattr(lp, "maximize", lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.fixture
def seed_calls(monkeypatch):
    """The columns of every polytope.find_strict_interior call made
    during the test."""
    calls = []
    real = polytope.find_strict_interior
    monkeypatch.setattr(polytope, "find_strict_interior",
                        lambda columns: calls.append(columns) or real(columns))
    return calls


# A'1 >= 1 holds on the paper example (column 1 sums to exactly 1), so its
# contour seed is the margin LP's closed-form optimum; on these rows
# column 1 sums to 0 and one LP is solved: the relaxation over column 1,
# whose optimum t* = 1/4 lies on an edge of optima; its vertex is the seed.
LP_SOLVED_ROWS = [[1, 1], [-2, 2], [1, -2]]
