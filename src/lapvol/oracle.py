"""Independent ground truth: the two-constraint closed form and its
companion identity, known-volume generators, and a seeded hit-or-miss
Monte Carlo estimator with a certified bounding box.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

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
            prod = a[j] * b[j]
            for k in range(n):
                if k != j:
                    prod *= b[k] * a[j] - a[k] * b[j]
            total -= (a[j] - b[j]) ** n / prod
    return total / math.factorial(n)


def identity_check(a: Sequence, b: Sequence) -> bool:
    """Exact check of the partial-fraction identity

        sum_j (a_j-b_j)^n / (a_j b_j prod_{k!=j}(b_k a_j - a_k b_j))
            = 1/prod(b_j) - 1/prod(a_j),

    which must hold for every generic pair of vectors."""
    a = [rat(v) for v in a]
    b = [rat(v) for v in b]
    _genericity(a, b)
    n = len(a)
    lhs = Fraction(0)
    for j in range(n):
        prod = a[j] * b[j]
        for k in range(n):
            if k != j:
                prod *= b[k] * a[j] - a[k] * b[j]
        lhs += (a[j] - b[j]) ** n / prod
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
    sides = [rat(s) for s in (sides if sides is not None else [1] * n)]
    if len(sides) != n:
        raise ValueError("need one side length per dimension")
    A = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    vol = Fraction(1)
    for s in sides:
        vol *= s
    return make_instance(A, sides), vol


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


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int
    box: Tuple[Fraction, ...]  # the sampled box is the product of [0, box[j]]

    def z_score(self, exact) -> float:
        exact = float(exact)
        return (self.estimate - exact) / self.stderr if self.stderr else float("inf")


_MC_BATCH = 1 << 16  # fixed batch size keeps the PCG64 stream reproducible


def mc_volume(
    inst: PolytopeInstance, samples: int, seed: int, norm: Optional[NormalizedInstance] = None
) -> McEstimate:
    """Hit-or-miss estimate over the certified box, the product of
    [0, sum(c)/(A'c)_j] over the coordinates j.

    The sides come from the contour seed c > 0 with A'c > 0 of the
    normalized rows (``norm.interior``, where ``norm`` defaults to
    ``normalize(inst)``; pass it when already at hand to skip the LP):
    every x in the body has (A'c)_j x_j <= c'Ax <= sum(c).  The largest
    side is sum(u) for the compactness witness u = c / min_j (A'c)_j.
    Raises like ``normalize`` on an invalid instance.  Sampling uses
    numpy's PCG64 generator, so a seed pins the estimate bit for bit
    across platforms.
    """
    import numpy as np  # only this estimator needs numpy; importing lapvol does not

    if norm is None:
        norm = normalize(inst)
    c = norm.interior
    total = sum(c, Fraction(0))
    box = tuple(
        total / sum(row[j] * ci for row, ci in zip(norm.rows, c)) for j in range(norm.n)
    )
    n = inst.n
    sides = np.array([float(v) for v in box])
    # the columns of A scaled by the sides take unit-cube samples
    A = np.array([[float(v) for v in row] for row in inst.rows]) * sides
    b = np.array([float(v) for v in inst.rhs])
    gen = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    done = 0
    while done < samples:
        count = min(_MC_BATCH, samples - done)
        u = gen.random((count, n))
        hits += int(np.count_nonzero((u @ A.T <= b).all(axis=1)))
        done += count
    p_hat = hits / samples
    scale = float(np.prod(sides))
    estimate = p_hat * scale
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples) * scale
    return McEstimate(estimate, stderr, samples, seed, box)
