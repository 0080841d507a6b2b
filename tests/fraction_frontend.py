"""The Fraction front end that the integer one in ``lapvol.polytope``
replaced, kept as the reference it is tested against: every entry a
Fraction, each row divided by its b entry in Fractions, duplicates found
by comparing those rational rows, columns scaled from them, and the
margin LP always solved."""
from fractions import Fraction
from math import lcm

from lapvol import lp
from lapvol.errors import EmptyAfterCleanup, NonpositiveB, NotCompact
from lapvol.linforms import rat


def make_instance(A, b):
    """(rows, rhs) with every entry a Fraction, refused as the program's
    make_instance refuses."""
    rows = tuple(tuple(rat(v) for v in row) for row in A)
    rhs = tuple(rat(v) for v in b)
    if not rows or not rows[0]:
        raise ValueError("need m >= 1 constraint rows and n >= 1 columns")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged constraint matrix")
    if len(rhs) != len(rows):
        raise ValueError("b length must match the number of rows")
    return rows, rhs


def scale_and_dedupe(rows, rhs):
    """Divide each row by its b entry, drop vacuous all-zero rows and
    merge duplicates.  Returns (rows, dropped, merged)."""
    bad = [i for i, bi in enumerate(rhs) if bi <= 0]
    if bad:
        raise NonpositiveB(f"b must be strictly positive; offending rows: {bad}")
    seen = []
    dropped = merged = 0
    for row, bi in zip(rows, rhs):
        scaled = tuple(Fraction(v) / bi for v in row)
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


def integer_columns(rows):
    """Each column j of the rows as (D, (D*A[i][j] for each row i)), D
    the lcm of the column's denominators."""
    columns = []
    for col in zip(*rows):
        col = [Fraction(x) for x in col]
        den = lcm(*[x.denominator for x in col])
        columns.append((den, tuple(x.numerator * (den // x.denominator) for x in col)))
    return tuple(columns)


def certify(rows):
    """(c, u) from the margin LP over the Fraction rows, solved on every
    instance: c the integer-scaled optimal c, u = c / min_j (A'c)_j.
    Raises NotCompact when the optimal margin is 0."""
    m, n = len(rows), len(rows[0])
    A = [[-int(k == i) for k in range(m)] + [1] for i in range(m)]
    A += [[-rows[i][j] for i in range(m)] + [1] for j in range(n)]
    A.append([1] * m + [0])
    status, x, t_star = lp.maximize([0] * m + [1], A, [0] * (m + n) + [1])
    assert status == lp.OPTIMAL
    if t_star <= 0:
        raise NotCompact("polytope is unbounded (no u >= 0 with A'u >= 1)")
    scale = lcm(*(v.denominator for v in x[:m]))
    c = tuple(v * scale for v in x[:m])
    margin = min(sum(row[j] * ci for row, ci in zip(rows, c)) for j in range(n))
    return c, tuple(v / margin for v in c)


def check_only_lines(A, b):
    """The lines ``lapvol volume FILE --check-only`` printed for the
    instance, with its exit code and its one error line (or None)."""
    try:
        rows, dropped, merged = scale_and_dedupe(*make_instance(A, b))
    except NonpositiveB as exc:
        return 3, [], f"error: {exc}"
    except EmptyAfterCleanup as exc:
        return 2, [], f"error: {exc}"
    lines = [f"normalize: m={len(rows)} n={len(rows[0])} "
             f"(dropped {dropped} vacuous, merged {merged} duplicate rows)"]
    try:
        c, u = certify(rows)
    except NotCompact:
        return 5, lines + ["compact: false", "pointed: false", "valid: false"], None
    vec = lambda values: "(" + ", ".join(str(v) for v in values) + ")"
    lines += [f"compact: true witness={vec(u)}", f"pointed: true witness={vec(c)}", "valid: true"]
    return 0, lines, None
