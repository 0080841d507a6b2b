"""The balanced-tree sums of the residue engine keep every Fraction.

:func:`lapvol.terms.tree_sum` reassociates the exact additions of
``close_level``, the closed form of ``engine.run`` and
``merge_like_terms``.  Fraction
addition is exact, so the order must not change a value; the pinned
digests below were recorded with the running (one term at a time) sums
the tree replaced.  ``engine.run`` divides the closed form's sum by n!
as a Fraction, so every volume is a Fraction in lowest terms.
"""
import hashlib
import importlib.util
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import lapvol as lv
from lapvol import engine
from lapvol.terms import tree_sum

from conftest import prime_row_draws

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

_fractions = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)


@given(st.lists(_fractions, max_size=40))
@example([])
@example([Fraction(-3, 7)])
@example([Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)])
@example([Fraction(1, 2), Fraction(-1, 2), Fraction(2, 9), Fraction(-7, 4)])
def test_tree_sum_equals_the_left_fold(values):
    before = list(values)
    total = tree_sum(values)
    assert values == before  # the argument is left as it was
    assert total == sum(values)
    assert type(total) is type(sum(values))
    if len(values) == 1:
        assert total is values[0]


def node_census():
    spec = importlib.util.spec_from_file_location("node_census", SCRIPTS / "node_census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of str(volume) of the first three shuffled draws at m = 3, n = 24
SHUFFLED_3_24 = (
    "fd900fd40cd6560c8f8e2e866bdba4d7b4898778e417e49bb68f16c89c4917a6",
    "08a2e81571da14d69fa92f1ada399fe92d82878606b7a6c65ccc4eab33521205",
    "28c691f192f8ab4595931084a7a1b5e9af5a43041f1e3216945c4fc809f67172",
)


def test_shuffled_volumes_are_pinned():
    draw = node_census().shuffled_instance
    rng = random.Random("shuffled:3:24")
    for pinned in SHUFFLED_3_24:
        norm = lv.normalize(draw(rng, 3, 24))
        for volume in (lv.run_direct(norm).result, lv.run_transform(norm).result):
            assert hashlib.sha256(str(volume).encode()).hexdigest() == pinned


@pytest.mark.parametrize("run", [lv.run_direct, lv.run_transform])
def test_every_volume_is_a_fraction_in_lowest_terms(run):
    # m = 1 (the simplices) has no residue level, its sum a single term
    instances = [lv.simplex_instance(n)[0] for n in (1, 2, 7)] + [lv.paper_example()[0]]
    norms = [lv.normalize(inst) for inst in instances] + prime_row_draws(12, "fraction")
    for norm in norms:
        volume = run(norm).result
        assert type(volume) is Fraction and volume > 0
        assert gcd(volume.numerator, volume.denominator) == 1


def test_an_empty_closing_sum_is_the_fraction_zero(monkeypatch):
    # tree_sum of no powers is the int 0, which the division by n! must
    # not turn into a float
    real = engine.close_level
    monkeypatch.setattr(engine, "close_level", lambda *a: ({},) + real(*a)[1:])
    for run in (lv.run_direct, lv.run_transform):
        volume = run(lv.normalize(lv.paper_example()[0])).result
        assert type(volume) is Fraction and volume == 0
