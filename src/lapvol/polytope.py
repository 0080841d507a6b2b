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
the optimum is strictly positive.  An optimal c, scaled to ints,
seeds the integration abscissae and is all that :func:`normalize` keeps;
the volume does not depend on which strictly feasible c seeds the
contour.  Where A'1 >= 1 the optimum is known in closed form; elsewhere
it is found by row generation, on a relaxation that keeps only the
columns that bind, and the seed is the relaxation's vertex
(:func:`find_strict_interior`).  The compactness
witness u = c / min_j (A'c)_j, with u >= 0 and A'u >= 1 (which bounds
the body), is derived from c by :func:`certify` only where it is asked
for (``--check-only``).

Integer front end.  Instance entries stay ints where the input gives
ints.  The file reader (:func:`lapvol.cli.load_instance`) converts each
entry once, keeping a JSON int as it is, and builds the instance
through the shape check of :func:`make_instance`, which converts its
entries with :func:`lapvol.linforms.exact`.  :func:`scale_and_dedupe`
is the one pass from the raw rows to the normalized instance's integer
columns: each row and its b_i are scaled to integers (an all-int row
with no rational arithmetic: :func:`lapvol.linforms.integer_scaled`
returns ints as they are), and rows are dropped and merged on their
reduced integer form.  Each column j is held as an integer column with
its scale D_j, so no rational row is built on the way.  The margin
relaxation, the seed check c > 0, A'c > 0 (:func:`is_strict_interior`,
with c scaled to integers too), the margin min_j (A'c)_j, the start
terms of both methods and their variable choices all read these ints.
The rational rows (``NormalizedInstance.rows``) are derived from the
columns on each read; the Monte Carlo sampler reads them once.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import lp
from .errors import EmptyAfterCleanup, NonpositiveB, NotCompact, NotPointed
from .linforms import exact, integer_scaled, rat

Row = Tuple[Fraction, ...]
Matrix = Tuple[Row, ...]
Column = Tuple[int, Tuple[int, ...]]  # (D_j, the ints D_j * A[i][j] over rows i)


class PolytopeInstance(NamedTuple):
    """Raw half-space data: rows of A and the right-hand side b, each
    entry an int or a Fraction."""

    rows: Matrix
    rhs: Tuple[Fraction, ...]

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])


def make_instance(A: Sequence[Sequence], b: Sequence) -> PolytopeInstance:
    return _checked_instance(tuple([tuple(map(exact, row)) for row in A]), tuple(map(exact, b)))


def _checked_instance(rows: Matrix, rhs: Row) -> PolytopeInstance:
    """The instance of ``rows`` and ``rhs``, tuples of ints and
    Fractions, once their shape is checked (ValueError otherwise)."""
    if not rows or not rows[0]:
        raise ValueError("need m >= 1 constraint rows and n >= 1 columns")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged constraint matrix")
    if len(rhs) != len(rows):
        raise ValueError("b length must match the number of rows")
    return PolytopeInstance(rows, rhs)


class NormalizedInstance(NamedTuple):
    """Validated instance with implied right-hand side all-ones, held as
    its integer columns, and the contour seed c of the margin LP (only a
    certified instance is constructed; the witness u is
    ``certify(columns)[1]``)."""

    columns: Tuple[Column, ...]          # integer_columns(rows)
    interior: Tuple[int, ...]            # c > 0 with A'c > 0, as ints

    @property
    def rows(self) -> Matrix:
        """The normalized rows in Fractions, built on each read."""
        return column_rows(self.columns)

    @property
    def m(self) -> int:
        return len(self.columns[0][1])

    @property
    def n(self) -> int:
        return len(self.columns)


def scale_and_dedupe(inst: PolytopeInstance) -> Tuple[Tuple[Column, ...], int, int]:
    """Divide each row by its b entry, drop vacuous all-zero rows and
    merge duplicates, in integers.  Returns (columns, dropped, merged),
    ``columns`` being the :func:`integer_columns` of the cleaned rows.

    Row i and b_i are scaled to integers by the lcm of their
    denominators (an all-int row is taken as it is, with no
    multiplication) and the pair is reduced by its gcd: because b_i > 0,
    two rows are equal after division by their b entries exactly when
    their reduced pairs (b_i/g, A_i/g) are equal.
    """
    bad = [i for i, bi in enumerate(inst.rhs) if bi <= 0]
    if bad:
        raise NonpositiveB(f"b must be strictly positive; offending rows: {bad}")
    seen = {}  # reduced (b_i, *A_i) -> None, in first-seen order
    dropped = merged = 0
    for row, bi in zip(inst.rows, inst.rhs):
        if not any(row):
            dropped += 1
            continue
        key = integer_scaled((bi, *row))[1]
        g = gcd(*key)
        key = key if g == 1 else tuple([v // g for v in key])
        if key in seen:
            merged += 1
            continue
        seen[key] = None
    if not seen:
        raise EmptyAfterCleanup("no nontrivial constraint row survived cleanup")
    return _columns([(key[0], key[1:]) for key in seen]), dropped, merged


def integer_columns(rows) -> Tuple[Column, ...]:
    """Each column j of the rows as (D, (D*A[i][j] for each row i)), D
    being the lcm of the column's denominators, so every entry is an
    int and the column is the integer one divided by D."""
    return _columns(integer_scaled(row) for row in rows)


def _columns(rows: Iterable[Tuple[int, Sequence[int]]]) -> Tuple[Column, ...]:
    """The integer columns of the rows given as (d_i, ints_i), row i
    being ints_i / d_i with d_i > 0.  Over the common denominator L, the
    lcm of the d_i, column j is s / L with integer s; its scale D_j, the
    lcm of its entries' reduced denominators, is L / gcd(L, *s), and its
    ints are s divided by that gcd."""
    dens, ints = zip(*rows)
    common = lcm(*dens)
    columns = []
    for s in zip(*([a * (common // d) for a in row] for d, row in zip(dens, ints))):
        g = gcd(common, *s)
        columns.append((common, s) if g == 1 else (common // g, tuple([v // g for v in s])))
    return tuple(columns)


def column_rows(columns: Sequence[Column]) -> Matrix:
    """The rational rows whose :func:`integer_columns` are ``columns``."""
    return tuple(zip(*(tuple(Fraction(a, den) for a in col) for den, col in columns)))


def relaxed_lp(columns: Sequence[Column], kept: Sequence[int]) -> Tuple[list, list, list]:
    """The margin LP over the columns ``kept`` only, in s = c - t*1, as
    :func:`lp.maximize` takes it: variables s_1..s_m, t >= 0, maximize
    t.  c_i >= t is s_i >= 0, column j, D_j t <= col_j . c, reads
    (D_j - sum(col_j)) t <= col_j . s and sum(c) <= 1 reads
    sum(s) + m t <= 1: len(kept) + 1 rows."""
    m = len(columns[0][1])
    A = [[-a for a in col] + [den - sum(col)] for den, col in map(columns.__getitem__, kept)]
    A.append([1] * m + [m])
    return [0] * m + [1], A, [0] * len(kept) + [1]


def find_strict_interior(columns: Sequence[Column]) -> Tuple[int, ...]:
    """A strictly feasible c > 0 with A'c > 0 as coprime ints, for the
    rows whose :func:`integer_columns` are ``columns``: an optimal c of
    the margin LP, scaled by the lcm of its denominators (the optimum
    has sum(c) = 1, so the ints sum to that lcm and share no factor).

    Where every column has sum(col) >= D_j, that is A'1 >= 1, no LP is
    solved: t <= c_i and sum(c) <= 1 give t <= 1/m, c = t = 1/m is then
    feasible, and at t = 1/m the same constraints force every c_i = 1/m,
    so the optimum is unique and all ones when scaled.

    Elsewhere, row generation: :func:`relaxed_lp` starts from the columns
    with sum(col) < D_j and adds every column its optimum violates.  It
    is the margin LP with rows left out, so its t* bounds the margin
    LP's from above (t* = 0 refuses), and an optimum that violates no
    column is optimal for the margin LP too: that vertex is the seed.

    Raises NotPointed when {x >= 0, Ax <= 0} has a nonzero solution, in
    which case no such c exists and the inversion integral is undefined.
    """
    m = len(columns[0][1])
    kept = [j for j, (den, col) in enumerate(columns) if sum(col) < den]
    if not kept:
        return (1,) * m
    while True:
        status, x, t_star = lp.maximize(*relaxed_lp(columns, kept))
        assert status == lp.OPTIMAL  # bounded by t <= sum(s) + m t <= 1
        if t_star <= 0:
            raise NotPointed("no c > 0 with A'c > 0 exists; "
                             "{x >= 0, Ax <= 0} has a nonzero solution")
        _, (*s, t) = integer_scaled(x)   # c = s + t*1 over a common denominator
        ci = [v + t for v in s]
        sums = [sum(map(mul, col, ci)) for _, col in columns]
        cut = [j for j, ((den, _), v) in enumerate(zip(columns, sums)) if den * t > v]
        if not cut:
            break
        kept += cut
    # c >= t > 0 and A'c >= D t > 0 on every column: c is strictly interior
    assert all(v > 0 for v in ci) and all(v > 0 for v in sums)
    g = gcd(*ci)
    return tuple([v // g for v in ci])


def _seed(columns: Sequence[Column]) -> Tuple[int, ...]:
    """:func:`find_strict_interior`, raising NotCompact where it raises
    NotPointed: for b > 0 the body is then unbounded as well as not
    pointed."""
    try:
        return find_strict_interior(columns)
    except NotPointed as exc:
        raise NotCompact("polytope is unbounded (no u >= 0 with A'u >= 1)") from exc


def certify(columns: Sequence[Column]) -> Tuple[Tuple[int, ...], Tuple[Fraction, ...]]:
    """The certificate (c, u) of the cleaned rows, given by their
    integer columns: the contour seed c of :func:`find_strict_interior`
    and the compactness witness u = c / min_j (A'c)_j, which has u >= 0
    and A'u >= 1.  Raises NotCompact when no such c exists.
    """
    c = _seed(columns)
    # c is integral, so (A'c)_j is the integer sum s_j over D_j
    _, sums = integer_sums(columns, c)
    margin = min(Fraction(s, den) for s, (den, _) in zip(sums, columns))
    return c, tuple(v / margin for v in c)


def compact_witness(rows: Matrix) -> Optional[Tuple[Fraction, ...]]:
    """A u >= 0 with A'u >= 1 in every coordinate, or None if the body
    is unbounded."""
    try:
        return certify(integer_columns(rows))[1]
    except NotCompact:
        return None


def normalize(inst: PolytopeInstance) -> NormalizedInstance:
    """Full ingestion pipeline: scale b to ones, clean rows, certify
    compactness and pointedness by the contour seed c alone (the witness
    u of :func:`certify` is not derived).  Raises on any failed gate."""
    columns, _, _ = scale_and_dedupe(inst)
    return NormalizedInstance(columns=columns, interior=_seed(columns))


def integer_sums(columns: Sequence[Column], c: Sequence) -> Tuple[Tuple[int, ...], List[int]]:
    """c scaled to integers by the lcm k of its denominators, and the
    integer sums s_j = col_j . (k c), so that (A'c)_j = s_j / (k D_j)
    has the sign of s_j."""
    _, ci = integer_scaled(c)
    return ci, [sum(map(mul, col, ci)) for _, col in columns]


def is_strict_interior(columns: Sequence[Column], c: Sequence) -> bool:
    """True iff c > 0 and A'c > 0 componentwise, the condition on every
    contour seed, decided on the integer columns."""
    ci, sums = integer_sums(columns, c)
    return all(v > 0 for v in ci) and all(s > 0 for s in sums)


def contour_seed(norm: NormalizedInstance, abscissae: Optional[Sequence]) -> tuple:
    """The LP-found seed ``norm.interior``, or the caller's ``abscissae``
    once checked to be a valid seed of length m."""
    if abscissae is None:
        return norm.interior
    c = tuple(rat(v) for v in abscissae)
    if len(c) != norm.m:
        raise ValueError(f"need {norm.m} abscissae, got {len(c)}")
    if not is_strict_interior(norm.columns, c):
        raise ValueError("abscissae must satisfy c > 0 and A'c > 0")
    return c
