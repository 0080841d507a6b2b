"""An exact volume that shares no code with lapvol: Lasserre's facet
recursion (J. Optim. Theory Appl. 39, 1983), in Fractions only.

For P = {x in R^n : a_i.x <= b_i} with facets F_i = P n {a_i.x = b_i},

    vol_n(P) = (1/n) sum_i (b_i / |a_ij|) vol_{n-1}(pi_j F_i),

where pi_j drops a coordinate j with a_ij != 0: solving a_i.x = b_i for
x_j turns every row into a row over the other coordinates.  A row with
b_i = 0 (x >= 0 among them) adds nothing but still bounds the facets.
Rows are scaled and deduplicated, since two equal rows would count one
facet twice; a row 0 <= d is dropped when d >= 0 and empties the set
when d < 0.  At n = 1 the set is an interval [lo, hi].
"""
from fractions import Fraction


def _cleaned(rows):
    """The rows scaled so that their first nonzero |a_k| is 1, each once
    in first-seen order; None when a row 0 <= d with d < 0 is present."""
    out = {}
    for a, b in rows:
        lead = next((abs(x) for x in a if x), None)
        if lead is None:
            if b < 0:
                return None
            continue
        out.setdefault((tuple(x / lead for x in a), b / lead))
    return list(out)


def _volume(rows, n):
    rows = _cleaned(rows)
    if rows is None:
        return Fraction(0)
    if n == 1:
        hi = min(b / a[0] for a, b in rows if a[0] > 0)
        lo = max(b / a[0] for a, b in rows if a[0] < 0)
        return max(Fraction(0), hi - lo)
    total = Fraction(0)
    for a, b in rows:
        if b:
            j = next(k for k, x in enumerate(a) if x)
            facet = [([y - c[j] / a[j] * x for k, (x, y) in enumerate(zip(a, c)) if k != j],
                      d - c[j] / a[j] * b) for c, d in rows]
            total += b / abs(a[j]) * _volume(facet, n - 1)
    return total / n


def facet_volume(A, b) -> Fraction:
    """The volume of {x in R^n : x >= 0, Ax <= b}, for A given as rows
    of n entries and b as one entry per row (ints, Fractions or "p/q"
    strings)."""
    n = len(A[0])
    rows = [([Fraction(x) for x in row], Fraction(v)) for row, v in zip(A, b)]
    rows += [([Fraction(-(k == i)) for k in range(n)], Fraction(0)) for i in range(n)]
    return _volume(rows, n)
