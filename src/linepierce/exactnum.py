"""Exact scalars: rationals, and single-radical values a + b*sqrt(d).

Every geometric predicate in this package compares rationals, plain
``fractions.Fraction`` (always reduced, positive denominator, canonical).
``QuadExt``, a value a + b*sqrt(d) with rational a, b and rational d >= 0,
holds the roots of rational quadratics and the line/surface crossings that
``refute`` reports, each built from its root's rational parts.  A
``QuadExt`` is built, compared for equality and rendered; it has no
arithmetic and no order.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import isqrt
from operator import attrgetter

_INTEGER = r"[+-]?[0-9]+"
_RATIONAL = re.compile(rf"({_INTEGER})(?:/([0-9]+))?")


def _int_from_digits(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        # past sys.get_int_max_str_digits(); Decimal converts without a limit
        return int(Decimal(digits))


def _digits_of(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def rational_digits(text: str) -> tuple[str, str]:
    """The numerator's and denominator's digits of a text in the grammar of
    ``parse_rational``, which raises its ValueErrors here; "1" for no "/"."""
    match = _RATIONAL.fullmatch(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"expected a 'num/den' string, got {text!r}")
    num, den = match[1], match[2] or "1"
    if not den.strip("0"):
        raise ValueError(f"zero denominator in {text!r}")
    return num, den


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a bare integer into a Fraction.

    Both parts are ASCII digits, the numerator with an optional sign, and
    surrounding whitespace is ignored.  Anything else, a zero denominator,
    an exponent or a decimal point included, raises ValueError.  Numbers of
    any length are read, at a cost at most quadratic in the text's length.
    """
    num, den = rational_digits(text)
    return Fraction(_int_from_digits(num), _int_from_digits(den))


def parse_integer(text: str) -> int:
    """Parse an integer in the grammar of a rational's numerator: ASCII
    digits with an optional sign, surrounding whitespace ignored.

    Unlike ``parse_rational`` this keeps Python's limit on the digits of an
    integer string (``sys.get_int_max_str_digits()``), so a longer text
    raises ValueError too.
    """
    if not (isinstance(text, str) and re.fullmatch(_INTEGER, text.strip())):
        raise ValueError(f"expected ASCII digits with an optional sign, got {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # the grammar holds, so only the limit is left
        raise ValueError(
            f"integer of more than {sys.get_int_max_str_digits()} digits"
        ) from exc


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "num/den", always with an explicit denominator."""
    return f"{_digits_of(x.numerator)}/{_digits_of(x.denominator)}"


def rational_square_root(x: Fraction) -> Fraction | None:
    """Exact square root if x is the square of a rational, else None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class Record:
    """Base of the frozen value records: one import, and no generated code
    per class, where ``@dataclass`` costs every process ``dataclasses`` and
    ``inspect``.

    A subclass names two or more fields in ``_fields`` (also its
    ``__slots__``, unless a ``cached_property`` needs a ``__dict__``) and
    sets each once in its ``__init__`` with ``object.__setattr__``.  Here
    come equality within one class, ``hash``, ``repr``, ``copy`` and
    ``pickle``; assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through __init__: the frozen __setattr__ blocks the
        # default restore of slots
        return type(self), self._values(self)


class QuadExt(Record):
    """The exact value a + b*sqrt(d), with a, b, d rational and d >= 0.

    Canonical form: b == 0 implies d == 0, and d is never a rational square
    (square radicands fold into the rational part at construction).  A value
    is built, compared for equality (exact across radicands) and rendered;
    ``+``, ``-``, ``*``, ``abs`` and ``<`` raise TypeError.  ``sign`` and
    ``bool`` remain only because the benchmark tracer binds ``sign``; they
    go once its hook is retired.
    """

    __slots__ = _fields = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: Fraction) -> None:
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
        if d < 0:
            raise ValueError("negative radicand")
        if b != 0:
            r = rational_square_root(d)
            if r is not None:
                a, b, d = a + b * r, Fraction(0), Fraction(0)
        if b == 0:
            d = Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @staticmethod
    def of(x: Fraction | QuadExt | int) -> QuadExt:
        if isinstance(x, QuadExt):
            return x
        return QuadExt(Fraction(x), Fraction(0), Fraction(0))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d) in {-1, 0, +1}."""
        sa = (self.a > 0) - (self.a < 0)
        if self.b == 0:
            return sa
        sb = (self.b > 0) - (self.b < 0)
        if sa == 0 or sa == sb:
            return sb
        # Opposite signs: |a| vs |b|*sqrt(d) decided by squaring.
        # d is not a rational square here, so the squares never tie.
        sq_a, sq_b = self.a * self.a, self.b * self.b * self.d
        return sa * ((sq_a > sq_b) - (sq_a < sq_b))

    def __bool__(self) -> bool:
        return self.sign() != 0

    def _key(self) -> tuple[Fraction, int, Fraction]:
        # a + b*sqrt(d) = a' + b'*sqrt(d') forces a = a', as 1 and a
        # non-square radical are independent over Q; then b*sqrt(d) and
        # b'*sqrt(d') agree exactly when their signs and squares do
        return (self.a, (self.b > 0) - (self.b < 0), self.b * self.b * self.d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (QuadExt, Fraction, int)):
            return NotImplemented
        return self._key() == QuadExt.of(other)._key()

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.a)  # as the equal Fraction hashes
        return hash(self._key())

    def __str__(self) -> str:
        if self.is_rational:
            return format_rational(self.a)
        return (
            f"{format_rational(self.a)} + "
            f"{format_rational(self.b)}*sqrt({format_rational(self.d)})"
        )


def solve_quadratic(a: Fraction, b: Fraction, c: Fraction) -> tuple[QuadExt, ...]:
    """Exact real roots of a*x^2 + b*x + c = 0, ascending: none, one or two.

    Roots live in the extension by sqrt(b^2 - 4ac).  The identically-zero
    equation, which every real solves, is an error.
    """
    if a == 0 and b == 0 and c == 0:
        raise ValueError("degenerate equation: 0 = 0 has all reals as roots")
    if a == 0:
        if b == 0:
            return ()
        return (QuadExt.of(Fraction(-c, b)),)
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    if disc == 0:
        return (QuadExt.of(Fraction(-b, 2 * a)),)
    lo = QuadExt(Fraction(-b, 2 * a), -abs(Fraction(1, 2 * a)), disc)
    hi = QuadExt(Fraction(-b, 2 * a), abs(Fraction(1, 2 * a)), disc)
    return (lo, hi)
