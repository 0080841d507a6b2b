"""Independent ground truth: the two-constraint closed form and its
companion identity, known-volume generators, and a seeded hit-or-miss
Monte Carlo estimator over the body's exact bounding box.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import lp
from .errors import GenericityViolated
from .linforms import rat
from .polytope import NormalizedInstance, PolytopeInstance, make_instance, normalize


def _genericity(a: Sequence[Fraction], b: Sequence[Fraction]) -> None:
    n = len(a)
    if n != len(b) or n == 0:
        raise GenericityViolated("a and b must be nonempty vectors of equal length")
    for j in range(n):
        if a[j] == 0 or b[j] == 0:
            raise GenericityViolated(f"entry {j}: a_j and b_j must be nonzero")
        if a[j] == b[j]:
            raise GenericityViolated(f"entry {j}: a_j must differ from b_j")
    ratios = [a[j] / b[j] for j in range(n)]
    if len(set(ratios)) != n:
        raise GenericityViolated("the ratios a_j/b_j must be pairwise distinct")


def m2_closed_form(a: Sequence, b: Sequence) -> Fraction:
    """Exact volume of {x >= 0, a.x <= 1, b.x <= 1} in closed form:

        (1/n!) * [ 1/prod(b_j)
                   - sum over {j : b_j/a_j < 1} of
                       (a_j-b_j)^n / (a_j b_j prod_{k!=j}(b_k a_j - a_k b_j)) ]

    Valid for strictly positive a (which already makes the body compact
    and pointed) and generic data: nonzero entries, a_j != b_j, ratios
    a_j/b_j pairwise distinct.  Swapping a and b gives the second,
    asymmetric-looking derivation of the same number.
    """
    a = [rat(v) for v in a]
    b = [rat(v) for v in b]
    _genericity(a, b)
    n = len(a)
    if any(v <= 0 for v in a):
        # a negative a_j flips a pole to the wrong side of the first path
        # and the closed form no longer sums the selected residues
        raise GenericityViolated("the closed form requires a_j > 0 for all j")
    total = Fraction(1)
    for v in b:
        total /= v
    for j in range(n):
        if b[j] / a[j] < 1:
            total -= _partial_fraction(a, b, j)
    return total / math.factorial(n)


def _partial_fraction(a: Sequence[Fraction], b: Sequence[Fraction], j: int) -> Fraction:
    """The term (a_j-b_j)^n / (a_j b_j prod_{k!=j}(b_k a_j - a_k b_j))
    of the closed form and of its identity."""
    prod = a[j] * b[j]
    for k in range(len(a)):
        if k != j:
            prod *= b[k] * a[j] - a[k] * b[j]
    return (a[j] - b[j]) ** len(a) / prod


def identity_check(a: Sequence, b: Sequence) -> bool:
    """Exact check of the partial-fraction identity

        sum_j (a_j-b_j)^n / (a_j b_j prod_{k!=j}(b_k a_j - a_k b_j))
            = 1/prod(b_j) - 1/prod(a_j),

    which must hold for every generic pair of vectors."""
    a = [rat(v) for v in a]
    b = [rat(v) for v in b]
    _genericity(a, b)
    lhs = sum((_partial_fraction(a, b, j) for j in range(len(a))), Fraction(0))
    prod_a = Fraction(1)
    prod_b = Fraction(1)
    for va, vb in zip(a, b):
        prod_a *= va
        prod_b *= vb
    return lhs == 1 / prod_b - 1 / prod_a


def simplex_instance(n: int) -> Tuple[PolytopeInstance, Fraction]:
    """{x >= 0, sum(x) <= 1}: volume 1/n!."""
    inst = make_instance([[1] * n], [1])
    return inst, Fraction(1, math.factorial(n))


def box_instance(n: int, sides: Optional[Sequence] = None) -> Tuple[PolytopeInstance, Fraction]:
    """Axis-aligned box, oracle-only: both symbolic methods reject the
    identity-pattern rows as degenerate, which is exactly what the
    degeneracy boundary looks like."""
    sides = tuple(rat(s) for s in (sides if sides is not None else [1] * n))
    if n < 1 or len(sides) != n:
        raise ValueError("need n >= 1 and one side length per dimension")
    rows = tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
    return PolytopeInstance(rows, sides), math.prod(sides, start=Fraction(1))


def paper_example() -> Tuple[PolytopeInstance, Fraction]:
    """The worked 3-constraint planar instance with area 17/48."""
    inst = make_instance([[1, 1], [-2, 2], [2, -1]], [1, 1, 1])
    return inst, Fraction(17, 48)


def known_instance(kind: str, n: Optional[int] = None, sides: Optional[Sequence] = None):
    """Dispatch by name: 'simplex', 'box', or 'paper-example'."""
    if kind == "simplex":
        return simplex_instance(int(n))
    if kind == "box":
        return box_instance(int(n), sides)
    if kind == "paper-example":
        return paper_example()
    raise ValueError(f"unknown instance kind {kind!r}")


def random_instance(rng: random.Random, m: int, n: int, signed: bool = False) -> PolytopeInstance:
    """Random instance with unit right-hand side and small rational
    entries; ``signed`` mixes in negative coefficients (the caller must
    then validate compactness itself)."""
    lo = -3 if signed else 1
    rows = []
    for _ in range(m):
        row = []
        for _ in range(n):
            num = 0
            while num == 0:
                num = rng.randint(lo, 6)
            row.append(Fraction(num, rng.randint(1, 3)))
        rows.append(row)
    return make_instance(rows, [1] * m)


class McEstimate(NamedTuple):
    estimate: float
    stderr: float
    samples: int
    seed: int
    box: Tuple[Fraction, ...]  # the sampled box is the product of [0, box[j]]

    def z_score(self, exact) -> float:
        exact = float(exact)
        return (self.estimate - exact) / self.stderr if self.stderr else float("inf")


_MC_BATCH = 1 << 16  # fixed batch size keeps the PCG64 stream reproducible


def bounding_box(norm: NormalizedInstance) -> Tuple[Fraction, ...]:
    """The exact max x_j over the body {x >= 0, Ax <= 1}, one LP per
    coordinate j.  On the integer columns, x_j = D_j y_j turns the rows
    into sum_j col_j[i] y_j <= 1, so each LP has integer data and
    max x_j = D_j max y_j."""
    A = [list(row) for row in zip(*(col for _, col in norm.columns))]
    ones = [1] * norm.m
    box = []
    for j, (den, _) in enumerate(norm.columns):
        status, _, top = lp.maximize([int(k == j) for k in range(norm.n)], A, ones)
        assert status == lp.OPTIMAL  # the body is compact
        box.append(den * top)
    return tuple(box)


def mc_volume(
    inst: PolytopeInstance, samples: int, seed: int, norm: Optional[NormalizedInstance] = None
) -> McEstimate:
    """Hit-or-miss estimate over the body's bounding box, the product of
    [0, max x_j] over the coordinates j (:func:`bounding_box`).

    ``norm`` defaults to ``normalize(inst)``; pass it when already at
    hand to skip the margin LP.  A sample u of the unit cube is a hit
    when every normalized row, scaled by the box sides and divided by
    its largest magnitude, holds at u; a row whose positive part sums to
    at most 1 holds on the whole box and is not tested.  These rows are
    computed exactly, so every float entry lies in [-1, 1] and every
    right-hand side in (0, n].  Raises like ``normalize`` on an invalid
    instance, and raises ValueError before sampling when a box side is
    too large for a float or the box volume is not a finite positive
    float.  Sampling uses numpy's PCG64 generator, so a seed pins the
    estimate bit for bit across platforms.
    """
    import numpy as np  # only this estimator needs numpy; importing lapvol does not

    if norm is None:
        norm = normalize(inst)
    box = bounding_box(norm)
    n = norm.n
    sides = np.array(_floats(box, "a side of the sampling box"))
    with np.errstate(over="ignore"):
        scale = float(np.prod(sides))
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"the sampling box has volume {scale}, not a finite positive float")
    rows, rhs = [], []
    for row in norm.rows:
        scaled = [a * s for a, s in zip(row, box)]
        if sum(v for v in scaled if v > 0) > 1:
            top = max(abs(v) for v in scaled)
            rows.append([float(v / top) for v in scaled])
            rhs.append(float(1 / top))
    A = np.array(rows).reshape(len(rows), n)
    b = np.array(rhs)
    gen = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    done = 0
    while done < samples:
        count = min(_MC_BATCH, samples - done)
        u = gen.random((count, n))
        hits += int(np.count_nonzero((u @ A.T <= b).all(axis=1)))
        done += count
    p_hat = hits / samples
    estimate = p_hat * scale
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples) * scale
    return McEstimate(estimate, stderr, samples, seed, box)


def _floats(values, what: str) -> List[float]:
    """``values`` as floats; ValueError naming ``what`` when one is too
    large for a float."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None
