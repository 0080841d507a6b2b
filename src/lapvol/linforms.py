"""Exact scalars, variable names and the text of linear forms.

Every number in the engine is exact: a :class:`fractions.Fraction` or
an ``int``.  Variables are small integer ids: ``1..m`` for the lambda
block, plus the distinguished id :data:`P_VAR` for the transform
variable p, which orders after every lambda.  The residue engine
(:mod:`lapvol.terms`) holds every linear form as a tuple of ints over
its slots; :func:`form_str` writes such a form, paired with its
variables, for the messages of refusals and errors.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Iterable, Sequence, Tuple, Union

RatLike = Union[Fraction, int, str]

# p must compare greater than any realistic lambda index.
P_VAR = 1 << 30


def rat(value: RatLike) -> Fraction:
    """Exact rational from an int, a Fraction, or a string like '-3/7'.

    Floats are refused on purpose: the engine is exact end to end.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: pass a string or Fraction")
    return Fraction(value)


def exact(value):
    """An int as it is, anything else as an exact rational by
    :func:`rat` (a float is refused)."""
    return value if type(value) is int else rat(value)


_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def integer_scaled(values: Sequence) -> Tuple[int, Tuple[int, ...]]:
    """``(k, ints)`` with ``values[i] == ints[i] / k``, k > 0 the lcm of
    the denominators of the exact ``values`` (1 for none).  Where k is 1
    no entry is multiplied: the ints are the values' numerators, every
    int given kept as it is."""
    k = lcm(*map(_denominator, values))
    if k == 1:
        return 1, tuple(map(_numerator, values))
    return k, tuple([v.numerator * (k // v.denominator) for v in values])


def var_name(var: int) -> str:
    return "p" if var == P_VAR else f"l{var}"


def form_str(pairs: Iterable[Tuple[int, Union[Fraction, int]]]) -> str:
    """The text of the form sum(coeff*var) over ``(var, coeff)`` pairs
    in ascending variable id: zero coefficients skipped, the sign bare on
    the first term and spaced after it, and ``0`` for the empty form.

    >>> form_str([(1, 1), (2, 2), (3, -1), (4, 0)])
    'l1 + 2*l2 - l3'
    >>> form_str([(2, Fraction(-4, 3)), (P_VAR, Fraction(1, 2))])
    '-4/3*l2 + 1/2*p'
    >>> form_str([])
    '0'
    """
    parts = []
    for v, c in pairs:
        if c:
            mag = abs(c)
            body = var_name(v) if mag == 1 else f"{mag}*{var_name(v)}"
            sign = ("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")
            parts.append(sign + body)
    return " ".join(parts) or "0"
