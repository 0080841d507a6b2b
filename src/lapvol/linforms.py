"""Exact scalars and homogeneous linear forms.

Every number in the engine is exact: a :class:`fractions.Fraction`
(aliased ``Rat``) or an ``int``.  Variables are small integer ids:
``1..m`` for the lambda block, plus the distinguished id :data:`P_VAR`
for the transform variable p, which orders after every lambda.  A
:class:`LinForm` is a canonical sparse map from variable id to
coefficient; there is no constant part anywhere in the algebra, so
structural equality equals mathematical equality.  Forms built from
user data hold Fractions; the primitive forms of :meth:`LinForm.primitive`
hold ints, which compare and hash equal to the same Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Tuple, Union

from .errors import NotAPoleInVar

Rat = Fraction
RatLike = Union[Fraction, int, str]

# p must compare greater than any realistic lambda index.
P_VAR = 1 << 30

_ONE = Fraction(1)


def rat(value: RatLike) -> Fraction:
    """Exact rational from an int, a Fraction, or a string like '-3/7'.

    Floats are refused on purpose: the engine is exact end to end.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: pass a string or Fraction")
    return Fraction(value)


def var_name(var: int) -> str:
    return "p" if var == P_VAR else f"l{var}"


class LinForm:
    """Homogeneous linear form with exact rational coefficients.

    >>> f = LinForm({1: 1, 2: 2, 3: -1})
    >>> print(f)
    l1 + 2*l2 - l3
    >>> f.coeff(2)
    Fraction(2, 1)
    >>> print(f.substitute(1, LinForm({2: 2, 3: -2})))
    4*l2 - 3*l3
    >>> print(f - f)
    0
    """

    __slots__ = ("_coeffs", "_hash", "_primitive")

    def __init__(self, coeffs: Union[Mapping[int, RatLike], Iterable[Tuple[int, RatLike]]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, Fraction] = {}
        for var, c in items:
            c = rat(c)
            if var in acc:
                acc[var] += c
            else:
                acc[var] = c
        self._coeffs = tuple(sorted((v, c) for v, c in acc.items() if c != 0))
        self._hash = None
        self._primitive = None

    @classmethod
    def from_items(cls, items: Tuple[Tuple[int, RatLike], ...], primitive: bool = False) -> "LinForm":
        """Wrap pairs that are already canonical: sorted by variable, one
        pair per variable, no zero coefficient.  Skips every check;
        ``primitive`` asserts that the form is its own primitive form."""
        form = object.__new__(cls)
        form._coeffs = items
        form._hash = None
        form._primitive = True if primitive else None
        return form

    @classmethod
    def from_ints(cls, items: Sequence[Tuple[int, int]]) -> Tuple[int, "LinForm"]:
        """Split a form given as integer pairs, sorted by variable with no
        zero coefficient, as ``(content, form)``: ``form`` is its primitive
        form and ``content`` the signed integer it was divided by."""
        s = gcd(*[c for _, c in items])
        if items[-1][1] < 0:
            s = -s
        return s, cls.from_items(tuple([(v, c // s) for v, c in items]), primitive=True)

    @classmethod
    def var(cls, var: int, coeff: RatLike = 1) -> "LinForm":
        return cls([(var, coeff)])

    @classmethod
    def zero(cls) -> "LinForm":
        return cls()

    # -- inspection ----------------------------------------------------

    def items(self) -> Tuple[Tuple[int, Fraction], ...]:
        return self._coeffs

    @property
    def variables(self) -> Tuple[int, ...]:
        return tuple(v for v, _ in self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, var: int) -> Union[Fraction, int]:
        """The coefficient on ``var``: the int 0 when the form has no
        ``var``, which costs no allocation.

        >>> LinForm({1: 2}).coeff(3)
        0
        """
        for v, c in self._coeffs:
            if v == var:
                return c
        return 0

    def is_multiple_of_var(self, var: int) -> bool:
        """True iff the form is c*var for some nonzero c."""
        return len(self._coeffs) == 1 and self._coeffs[0][0] == var

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "LinForm") -> "LinForm":
        return LinForm(tuple(self._coeffs) + tuple(other._coeffs))

    def __sub__(self, other: "LinForm") -> "LinForm":
        return self + (-other)

    def __neg__(self) -> "LinForm":
        return LinForm([(v, -c) for v, c in self._coeffs])

    def __mul__(self, scalar: RatLike) -> "LinForm":
        s = rat(scalar)
        return LinForm([(v, c * s) for v, c in self._coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar: RatLike) -> "LinForm":
        s = rat(scalar)
        if s == 0:
            raise ZeroDivisionError("LinForm division by zero")
        return self * (Fraction(1) / s)

    # -- the three core operations --------------------------------------

    def substitute(self, var: int, root: "LinForm") -> "LinForm":
        """Eliminate ``var`` by replacing it with ``root``.

        ``root`` must not itself involve ``var``; the result has zero
        coefficient on ``var``.
        """
        c = self.coeff(var)
        if c == 0:
            return self
        assert root.coeff(var) == 0, "substitution root may not contain the variable"
        rest = [(v, k) for v, k in self._coeffs if v != var]
        return LinForm(rest + [(v, k * c) for v, k in root._coeffs])

    def evaluate(self, abscissae: Mapping[int, Fraction]) -> Fraction:
        """Exact value at the given real abscissae; every variable of the
        form must be covered."""
        total = Fraction(0)
        for v, c in self._coeffs:
            if v not in abscissae:
                raise KeyError(f"no abscissa for variable {var_name(v)}")
            total += c * abscissae[v]
        return total

    def solve_for(self, var: int) -> Tuple[Fraction, "LinForm"]:
        """Write the factor as leading*(var - root) and return
        ``(leading, root)``; substituting the root back kills the factor.
        """
        leading = self.coeff(var)
        if leading == 0:
            raise NotAPoleInVar(f"{self} has no {var_name(var)} term")
        root = LinForm.from_items(
            tuple((v, Fraction(-c, leading)) for v, c in self._coeffs if v != var)
        )
        return leading, root

    def primitive(self) -> Tuple[Fraction, "LinForm"]:
        """Split the form as ``scale * form`` where ``form`` has coprime
        integer coefficients and a positive coefficient on its
        highest-index variable.  Proportional forms share that primitive
        form, so it names the hyperplane the form vanishes on.

        >>> scale, form = LinForm({1: "4/3", 2: -2}).primitive()
        >>> scale
        Fraction(-2, 3)
        >>> print(form)
        -2*l1 + 3*l2
        """
        # cached as True for a form that is its own primitive form (no
        # self-reference, so forms are freed by reference counting)
        if self._primitive is None:
            if not self._coeffs:
                self._primitive = True
            else:
                den = lcm(*(c.denominator for _, c in self._coeffs))
                ints = [(v, int(c * den)) for v, c in self._coeffs]
                g = gcd(*(c for _, c in ints))
                if ints[-1][1] < 0:
                    g = -g
                form = LinForm.from_items(tuple((v, c // g) for v, c in ints), primitive=True)
                self._primitive = (Fraction(g, den), form)
        return (_ONE, self) if self._primitive is True else self._primitive

    # -- plumbing --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LinForm) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self._coeffs)
        return h

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for v, c in self._coeffs:
            name = var_name(v)
            mag = abs(c)
            body = name if mag == 1 else f"{mag}*{name}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LinForm('{self}')"


if __name__ == "__main__":
    import doctest

    doctest.testmod()
