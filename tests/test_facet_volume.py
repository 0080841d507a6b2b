"""Lasserre's facet recursion (``facet_volume``), an exact reference that
shares no code with lapvol, against closed forms; then both methods
against it on inputs whose start term holds equal factors."""
import json
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

import lapvol as lv
from lapvol import direct, engine
from lapvol.direct import run_direct
from lapvol.transform import run_transform

from conftest import outcome
from facet_volume import facet_volume

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


# -- the reference against closed forms --------------------------------------


@pytest.mark.parametrize("sides", [[3], [1, 1], [2, "1/3"], [1, 2, 3], ["1/2", 5, 1, "7/3"],
                                   [1, 1, 1, 1, 1]])
def test_box(sides):
    n = len(sides)
    A = [[int(j == i) for j in range(n)] for i in range(n)]
    assert facet_volume(A, sides) == prod(Fraction(s) for s in sides)


@pytest.mark.parametrize("row,b", [([1], 2), ([1, 1], 1), (["1/2", 3, 2], "5/7"),
                                   ([2, 1, 3, "1/4"], 3), ([1, 2, 3, 4, 5, 6], 1)])
def test_simplex(row, b):
    # {x >= 0, a.x <= b} = b^n / (n! prod a)
    n = len(row)
    expected = Fraction(b) ** n / factorial(n) / prod(Fraction(a) for a in row)
    assert facet_volume([row], [b]) == expected


def test_paper_example():
    doc = json.loads((INSTANCES / "paper-example.json").read_text())
    assert facet_volume(doc["A"], doc["b"]) == Fraction(17, 48)


@pytest.mark.parametrize("A,b,expected", [
    # the unit square cut by x1 + x2 <= 3/2: 1 - (1/2)^2/2
    ([[1, 0], [0, 1], [1, 1]], [1, 1, "3/2"], Fraction(7, 8)),
    # a repeated row (scaled), and a row that never binds
    ([[1, 0], [2, 0], [0, 1], [1, 1]], [1, 2, 1, 5], Fraction(1)),
    # the unit cube cut by x1 + x2 + x3 <= 1/2: the simplex alone
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], [1, 1, 1, "1/2"], Fraction(1, 48)),
])
def test_cut_and_redundant_rows(A, b, expected):
    assert facet_volume(A, b) == expected


# -- both methods against it where equal factors meet --------------------------


def pole(order, root):
    return (lv.DegenerateInstance,
            f"pole of order {order} at {root}; coincident denominator factors before the "
            "final level. A tiny random perturbation of A removes the coincidence at the "
            "price of an approximate volume.")


# Signed draws of scripts/output_digest.py (random_instance(Random(7), m, n,
# signed=True), draw k) whose start term has equal factors, with their
# volume and, for each method, None where it returns the volume, else its
# refusal.
EQUAL_FACTORS = {
    28: ([["1/3", "1/3", "6"], ["-3/2", "-3/2", "1/3"]], Fraction(1, 4), None, None),
    75: ([["1", "2", "3", "6", "-1/3", "-1", "3/2"], ["1/3", "-1", "1", "-1/2", "3/2", "4", "3"]],
         Fraction(33086446121051, 2810396024982000000), pole(2, "l1 = -1/3*l2"), None),
    97: ([["-1", "6", "-2/3", "2", "-1", "-1/3"], ["3", "-3", "5/2", "-1", "1", "1/3"]],
         Fraction(718529, 18252000), pole(2, "l1 = 1/2*l2"), pole(2, "l1 = 1/3*p")),
    117: ([["3/2", "1", "-2", "3/2", "5"], ["3", "2", "2", "3", "1/3"],
           ["-3/2", "-1", "-1", "1/3", "-1/3"]],
          Fraction(96923, 526802400), pole(3, "l1 = -2*l2"), None),
    202: ([["5/2", "-2/3", "3", "-2", "5/3"], ["-2/3", "5/3", "2", "5", "-1"]],
          Fraction(3914401, 1539502550), None, pole(2, "l2 = 2/7*p")),
    241: ([["2/3", "3/2", "2", "2", "5/3", "1"], ["-1/2", "-2", "-1", "1", "2", "1/2"]],
          Fraction(123449, 592562880), pole(2, "l2 = -2*l1"), None),
    255: ([["-2/3", "1", "3", "-1", "2", "-1", "3"], ["2", "5", "1", "5/3", "-2/3", "1", "-1"],
           ["2", "2", "3", "-2/3", "4/3", "2", "2"]],
          Fraction(9690324463, 662444310528000), pole(2, "l1 = 1/3*l2 - 2/3*l3"),
          pole(2, "l1 = 3*l2 - 2*p")),
    289: ([["5/2", "-2", "4", "6"], ["5/2", "1/3", "6", "6"]], Fraction(1, 720),
          pole(2, "l1 = -l2"), None),
    316: ([["1", "-1/2", "1"], ["2", "3", "2"]], Fraction(1, 72), pole(2, "l1 = -2*l2"), None),
    340: ([["2/3", "3/2", "-2/3", "2/3", "4/3"], ["-2/3", "5/3", "6", "3", "6"]],
          Fraction(26861, 33105600), pole(2, "l1 = -9/2*l2"), None),
}


@pytest.mark.parametrize("k", sorted(EQUAL_FACTORS))
def test_equal_start_factors(k):
    A, volume, by_direct, by_transform = EQUAL_FACTORS[k]
    b = [1] * len(A)
    assert facet_volume(A, b) == volume
    norm = lv.normalize(lv.make_instance([[Fraction(v) for v in row] for row in A], b))
    start = engine.start_term(norm, direct.method(norm.columns))
    assert max(mult for _, mult in start[2]) > 1  # a repeated factor from the input
    assert outcome(lambda: run_direct(norm).result) == (by_direct or volume)
    assert outcome(lambda: run_transform(norm).result) == (by_transform or volume)
