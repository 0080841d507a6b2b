"""Seeded inputs for the three benchmark workloads.

Every random instance has integer data of the same make-up:

* row 1 holds n distinct primes from [1009, 9973], so the body is
  bounded and pointed (a positive row gives both gates a witness);
* rows 2..m hold nonzero integers from [-999, 999], signs drawn at
  random (mixed-sign);
* b holds integers from [1, 999].

Because every prime in row 1 exceeds every other entry in absolute
value, no two columns are proportional and no column is a multiple of a
coordinate axis, so the initial denominator factors of both methods are
pairwise non-parallel on every draw.  For m = 2 the same argument keeps
the scaled rows a = A1/b1 and b = A2/b2 generic for the closed form
(a_j != b_j, the ratios a_j/b_j pairwise distinct).  Every draw is
attempted; none is dropped or drawn again.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List, Optional, Tuple

ENTRY_MAX = 999
PRIMES = tuple(
    p for p in range(1009, 10000) if all(p % d for d in range(2, int(p ** 0.5) + 1))
)

# One round of each workload is one instance per (m, n) cell, in this
# order.  Every round holds every cell, so the mix of sizes is the same in
# every run and only the draws within a cell vary with the seed.
WIDE_CELLS = tuple((2, n) for n in (24, 28, 32, 36, 40))
# m from 5 to 8 and n from 3 to 7.  (5, 8), (6, 5) and (7, 4) are left
# out: their slowest draws took 4-9 times their fastest, and with (5, 8)
# in the rounds volumes_per_s and peak_rss_mb moved by 15-17% from seed
# to seed
DEEP_CELLS = ((5, 4), (5, 6), (5, 7), (6, 3), (6, 4), (7, 3), (8, 3))
SMALL_CELLS = tuple((m, n) for m in (2, 3, 4) for n in (2, 3, 4, 5))
# Fixtures of the small workload: committed files and `lapvol --gen` output,
# each with its volume known in closed form.
SMALL_FILES = (("paper-example.json", Fraction(17, 48)), ("simplex3.json", Fraction(1, 6)))
SMALL_SIMPLICES = (2, 4, 6)

WORKLOADS = ("wide", "deep", "small")


@dataclass(frozen=True)
class Case:
    """One instance and how its volume is checked.

    ``check`` is "closed_form" (exact m = 2 formula), "qhull" (float
    volume of the vertex hull) or "known" (exact volume in ``known``).
    Random cases carry their data in ``A`` and ``b``; fixtures name a
    file in ``path`` instead.
    """

    name: str
    check: str
    A: Tuple[Tuple[int, ...], ...] = ()
    b: Tuple[int, ...] = ()
    known: Optional[Fraction] = None
    path: Optional[str] = None


def generic_instance(rng: random.Random, m: int, n: int):
    """(A, b) of the make-up described in the module docstring."""
    A = [tuple(rng.sample(PRIMES, n))]
    for _ in range(m - 1):
        A.append(tuple(rng.choice((-1, 1)) * rng.randint(1, ENTRY_MAX) for _ in range(n)))
    b = tuple(rng.randint(1, ENTRY_MAX) for _ in range(m))
    return tuple(A), b


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def simplex_volume(n: int) -> Fraction:
    return Fraction(1, factorial(n))


def round_cases(workload: str, rng: random.Random, index: int, fixtures: List[Case]) -> List[Case]:
    """The instances of one round; successive calls on one ``rng`` give
    fresh draws, so every round of a run holds new random instances."""
    if workload == "wide":
        cells, check = list(WIDE_CELLS), "closed_form"
    elif workload == "deep":
        cells, check = list(DEEP_CELLS), "qhull"
    elif workload == "small":
        cells, check = list(SMALL_CELLS), "qhull"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cases = []
    for m, n in cells:
        A, b = generic_instance(rng, m, n)
        cases.append(Case(f"r{index}-m{m}n{n}", check, A, b))
    return cases + list(fixtures)
