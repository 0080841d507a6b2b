"""Instance ingestion, normalization to unit right-hand side, and the
one exact LP that certifies the inversion engine's hypotheses.

The polytope is {x in R^n, x >= 0, Ax <= b} with b > 0 componentwise.
Dividing row i by b_i leaves the body (and hence its volume) unchanged
and puts the right-hand side at the all-ones vector, which is the only
form the symbolic engine consumes.

For b > 0, compactness (the body is bounded) and pointedness (some
c > 0 has A'c > 0) are the same condition: both say the recession cone
{x >= 0, Ax <= 0} is {0}.  One LP therefore certifies both: maximize a
margin t over {c, t >= 0, c >= t, A'c >= t, sum(c) <= 1} and accept iff
the optimum is strictly positive.  Its witness c, scaled to integers,
seeds the integration abscissae, and the compactness witness is derived
from it exactly as u = c / min_j (A'c)_j, so u >= 0 and A'u >= 1 (which
bounds the body and yields the Monte Carlo box bound sum(u)).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Tuple

from . import lp
from .errors import EmptyAfterCleanup, NonpositiveB, NotCompact, NotPointed
from .linforms import rat

Row = Tuple[Fraction, ...]
Matrix = Tuple[Row, ...]


@dataclass(frozen=True)
class PolytopeInstance:
    """Raw half-space data: rows of A and the right-hand side b."""

    rows: Matrix
    rhs: Tuple[Fraction, ...]

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])


def make_instance(A: Sequence[Sequence], b: Sequence) -> PolytopeInstance:
    rows = tuple(tuple(rat(v) for v in row) for row in A)
    rhs = tuple(rat(v) for v in b)
    if not rows or not rows[0]:
        raise ValueError("need m >= 1 constraint rows and n >= 1 columns")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged constraint matrix")
    if len(rhs) != len(rows):
        raise ValueError("b length must match the number of rows")
    return PolytopeInstance(rows, rhs)


@dataclass(frozen=True)
class NormalizedInstance:
    """Validated instance with implied right-hand side all-ones.

    Only constructed once the margin LP certified the instance, so
    ``compact`` and ``pointed`` are always True on live objects; they are
    kept as fields because reports print them.
    """

    rows: Matrix
    compact: bool
    pointed: bool
    interior: Tuple[Fraction, ...]       # c > 0 with A'c > 0, integer-scaled
    box_witness: Tuple[Fraction, ...]    # u >= 0 with A'u >= 1
    dropped_vacuous: int
    merged_duplicates: int

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])


def scale_and_dedupe(inst: PolytopeInstance) -> Tuple[Matrix, int, int]:
    """Divide each row by its b entry, drop vacuous all-zero rows and
    merge duplicates.  Returns (rows, dropped, merged)."""
    bad = [i for i, bi in enumerate(inst.rhs) if bi <= 0]
    if bad:
        raise NonpositiveB(f"b must be strictly positive; offending rows: {bad}")
    seen = []
    dropped = merged = 0
    for row, bi in zip(inst.rows, inst.rhs):
        scaled = tuple(v / bi for v in row)
        if all(v == 0 for v in scaled):
            dropped += 1
            continue
        if scaled in seen:
            merged += 1
            continue
        seen.append(scaled)
    if not seen:
        raise EmptyAfterCleanup("no nontrivial constraint row survived cleanup")
    return tuple(seen), dropped, merged


def find_strict_interior(rows: Matrix) -> Tuple[Fraction, ...]:
    """A strictly feasible c > 0 with A'c > 0, scaled to integers.

    Raises NotPointed when {x >= 0, Ax <= 0} has a nonzero solution, in
    which case no such c exists and the inversion integral is undefined.
    """
    m, n = len(rows), len(rows[0])
    # variables c_1..c_m, t >= 0; maximize the margin t
    A = [[-int(k == i) for k in range(m)] + [1] for i in range(m)]   # t - c_i <= 0
    A += [[-rows[i][j] for i in range(m)] + [1] for j in range(n)]   # t - (A'c)_j <= 0
    A.append([1] * m + [0])                                          # sum(c) <= 1
    b = [0] * (m + n) + [1]
    status, x, t_star = lp.maximize([0] * m + [1], A, b)
    assert status == lp.OPTIMAL  # bounded by t <= c_1 <= sum(c) <= 1
    if t_star <= 0:
        raise NotPointed(
            "no c > 0 with A'c > 0 exists; {x >= 0, Ax <= 0} has a nonzero solution"
        )
    c = _integerize(x[:m])
    assert is_strict_interior(rows, c)
    return c


def certify(rows: Matrix) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """The certificate (c, u) of the cleaned rows: the contour seed c of
    :func:`find_strict_interior` and the compactness witness
    u = c / min_j (A'c)_j, which has u >= 0 and A'u >= 1.

    Raises NotCompact when no such c exists: for b > 0 the body is then
    unbounded as well as not pointed.
    """
    try:
        c = find_strict_interior(rows)
    except NotPointed as exc:
        raise NotCompact("polytope is unbounded (no u >= 0 with A'u >= 1)") from exc
    margin = min(_column_sums(rows, c))
    return c, tuple(v / margin for v in c)


def compact_witness(rows: Matrix) -> Optional[Tuple[Fraction, ...]]:
    """A u >= 0 with A'u >= 1 in every coordinate, or None if the body
    is unbounded."""
    try:
        return certify(rows)[1]
    except NotCompact:
        return None


def normalize(inst: PolytopeInstance) -> NormalizedInstance:
    """Full ingestion pipeline: scale b to ones, clean rows, certify
    compactness and pointedness.  Raises on any failed gate."""
    rows, dropped, merged = scale_and_dedupe(inst)
    c, u = certify(rows)
    return NormalizedInstance(
        rows=rows,
        compact=True,
        pointed=True,
        interior=c,
        box_witness=u,
        dropped_vacuous=dropped,
        merged_duplicates=merged,
    )


def is_strict_interior(rows: Matrix, c: Sequence[Fraction]) -> bool:
    """True iff c > 0 and A'c > 0 componentwise, the condition on every
    contour seed."""
    return all(v > 0 for v in c) and all(v > 0 for v in _column_sums(rows, c))


def contour_seed(norm: NormalizedInstance, abscissae: Optional[Sequence]) -> Tuple[Fraction, ...]:
    """The LP-found seed ``norm.interior``, or the caller's ``abscissae``
    once checked to be a valid seed of length m."""
    if abscissae is None:
        return norm.interior
    c = tuple(rat(v) for v in abscissae)
    if len(c) != norm.m:
        raise ValueError(f"need {norm.m} abscissae, got {len(c)}")
    if not is_strict_interior(norm.rows, c):
        raise ValueError("abscissae must satisfy c > 0 and A'c > 0")
    return c


def _column_sums(rows: Matrix, c: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """A'c: one entry per column."""
    return tuple(sum(row[j] * ci for row, ci in zip(rows, c)) for j in range(len(rows[0])))


def _integerize(values: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    scale = lcm(*(v.denominator for v in values)) if values else 1
    return tuple(v * scale for v in values)
