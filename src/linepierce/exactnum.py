"""Exact scalar arithmetic: rationals and single-radical quadratic extensions.

Every geometric predicate in this package compares rationals, plain
``fractions.Fraction`` (always reduced, positive denominator, canonical).
``QuadExt``, a value a + b*sqrt(d) with rational a, b and rational d >= 0,
holds the roots of rational quadratics and the line/surface crossings that
``refute`` reports, each built from its root's rational parts: the package
renders it but runs none of its arithmetic or signs, which stay for the
tests' oracles.  It deliberately does not support towers of distinct radicals.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import isqrt
from typing import Union

Scalar = Union[Fraction, "QuadExt"]


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


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a bare integer into a Fraction.

    Both parts are ASCII digits, the numerator with an optional sign, and
    surrounding whitespace is ignored.  Anything else, a zero denominator,
    an exponent or a decimal point included, raises ValueError.  Numbers of
    any length are read, at a cost at most quadratic in the text's length.
    """
    match = _RATIONAL.fullmatch(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"expected a 'num/den' string, got {text!r}")
    num, den = match.groups()
    try:
        return Fraction(_int_from_digits(num), _int_from_digits(den or "1"))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


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


@dataclass(frozen=True)
class QuadExt:
    """The exact value a + b*sqrt(d), with a, b, d rational and d >= 0.

    Canonical form: b == 0 implies d == 0, and d is never a rational square
    (square radicands fold into the rational part at construction).  Values
    with distinct nonzero radicands compare equal or not, but cannot be
    combined or ordered; the quadratics solved here give both roots over one.
    """

    a: Fraction
    b: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        a, b, d = Fraction(self.a), Fraction(self.b), Fraction(self.d)
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
    def of(x: Scalar | int) -> QuadExt:
        if isinstance(x, QuadExt):
            return x
        return QuadExt(Fraction(x), Fraction(0), Fraction(0))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _common_radicand(self, other: QuadExt) -> Fraction:
        if self.b != 0 and other.b != 0 and self.d != other.d:
            raise ValueError(
                f"incompatible radicands sqrt({format_rational(self.d)}) and "
                f"sqrt({format_rational(other.d)})"
            )
        return self.d if self.b != 0 else other.d

    def __add__(self, other: Scalar | int) -> QuadExt:
        o = QuadExt.of(other)
        d = self._common_radicand(o)
        return QuadExt(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self) -> QuadExt:
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other: Scalar | int) -> QuadExt:
        return self + (-QuadExt.of(other))

    def __rsub__(self, other: Scalar | int) -> QuadExt:
        return QuadExt.of(other) + (-self)

    def __mul__(self, other: Scalar | int) -> QuadExt:
        o = QuadExt.of(other)
        d = self._common_radicand(o)
        return QuadExt(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

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

    def __abs__(self) -> QuadExt:
        return -self if self.sign() < 0 else self

    def _diff_sign(self, other: Scalar | int) -> int:
        return (self - QuadExt.of(other)).sign()

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

    def __lt__(self, other: Scalar | int) -> bool:
        return self._diff_sign(other) < 0

    def __le__(self, other: Scalar | int) -> bool:
        return self._diff_sign(other) <= 0

    def __gt__(self, other: Scalar | int) -> bool:
        return self._diff_sign(other) > 0

    def __ge__(self, other: Scalar | int) -> bool:
        return self._diff_sign(other) >= 0

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
