import random
from fractions import Fraction

import pytest

import lapvol as lv
from lapvol import lp

SKIPPABLE = (lv.NotCompact, lv.NotPointed, lv.DegenerateInstance, lv.DivergentSlice)


def draw_valid_instance(rng: random.Random, m: int, n: int, signed: bool = False,
                        max_attempts: int = 500):
    """A random instance that passes validation and both symbolic methods;
    degenerate or unbounded draws are rejected and redrawn."""
    for _ in range(max_attempts):
        inst = lv.random_instance(rng, m, n, signed=signed)
        try:
            norm = lv.normalize(inst)
            vd = lv.volume_direct(norm)
            vt = lv.volume_transform(norm)
        except SKIPPABLE:
            continue
        assert vd == vt
        return inst, norm, vd
    raise AssertionError(f"no valid instance found in {max_attempts} draws (m={m}, n={n})")


def frac_vec(rng: random.Random, n: int, num_hi: int = 9, den_hi: int = 4):
    return [Fraction(rng.randint(1, num_hi), rng.randint(1, den_hi)) for _ in range(n)]


@pytest.fixture
def lp_calls(monkeypatch):
    """The argument tuples of every lp.maximize call made during the test."""
    calls = []
    real = lp.maximize
    monkeypatch.setattr(lp, "maximize", lambda *a: calls.append(a) or real(*a))
    return calls
