"""Finite unions of closed rational intervals in [0,1], covers, and depth.

The compact supports used throughout are complements in [0,1] of finitely
many open grid intervals, so they are exactly finite unions of closed
intervals (single points included).  This module supplies the deterministic
open covers, the removal operation that produces the supports, exact
Lebesgue measure, and deep-point witnesses found by a sweep over all
endpoints.

Every query of a set is one bisection of its endpoints plus a parity test,
and the bisection decides each probe by integer cross-multiplication, so a
query makes no ``Fraction`` comparison.

A family file repeats a few grid endpoints many times, so reading supports
parses each distinct endpoint string once per process, through a bounded
cache, and checks the pieces' order by integer cross-multiplication.  Both
are exact; the grammar and every message are those of ``parse_rational``
and ``IntervalSet.from_pairs``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice
from math import lcm

from .exactnum import format_rational, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint sorted union of closed intervals, as one tuple of endpoints.

    ``points`` is ``lo_0, hi_0, lo_1, hi_1, ...``: nondecreasing, with
    hi_j < lo_{j+1} strictly, and lo == hi for a single point.  So
    ``bisect_left(points, x)`` is odd exactly when x lies in a piece past
    its left end, and every query is one integer bisection, ``_rank``, plus
    a parity test.
    """

    points: tuple[Fraction, ...]

    @staticmethod
    def from_pairs(pairs) -> IntervalSet:
        """The set of the given (lo, hi) ``Fraction`` pieces, which must
        already be in canonical order: each lo <= hi and above the previous hi.

        Order is decided in integers: denominators are positive, so
        a/b < c/d exactly when a*d < c*b, and the previous hi is kept as its
        (numerator, denominator) pair.  No ``Fraction`` comparison is made.
        """
        points: list[Fraction] = []
        prev_num = prev_den = 0
        for lo, hi in pairs:
            lo_num, lo_den = lo.numerator, lo.denominator
            hi_num, hi_den = hi.numerator, hi.denominator
            if hi_num * lo_den < lo_num * hi_den:
                raise ValueError(
                    "interval endpoints out of order: "
                    f"[{format_rational(lo)}, {format_rational(hi)}]"
                )
            if points and lo_num * prev_den <= prev_num * lo_den:
                raise ValueError(
                    f"interval [{format_rational(lo)}, {format_rational(hi)}] does not "
                    f"start above the previous one's end {format_rational(points[-1])}"
                )
            points += (lo, hi)
            prev_num, prev_den = hi_num, hi_den
        return IntervalSet(tuple(points))

    @staticmethod
    def unit() -> IntervalSet:
        return IntervalSet((ZERO, ONE))

    def measure(self) -> Fraction:
        """Sum of hi - lo over the pieces, over one common denominator, so
        only the total is reduced."""
        points = self.points
        den = lcm(*(x.denominator for x in points))
        length = sum(hi.numerator * (den // hi.denominator) for hi in points[1::2])
        length -= sum(lo.numerator * (den // lo.denominator) for lo in points[::2])
        return Fraction(length, den)

    def _rank(self, x: Fraction, right: bool = False) -> int:
        """``bisect_left(points, x)``, or ``bisect_right`` when ``right`` is
        set, decided in integers.

        Denominators are positive, so with x = a/b a point n/d lies below x
        exactly when n*b - a*d < 0, and at or below it when n*b - a*d < 1:
        the probe compares the integer difference with ``right``.
        """
        a, b = x.numerator, x.denominator
        points = self.points
        lo, hi = 0, len(points)
        while lo < hi:
            mid = (lo + hi) // 2
            p = points[mid]
            if p.numerator * b - a * p.denominator < right:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def contains(self, x: Fraction) -> bool:
        i = self._rank(x)
        return i % 2 == 1 or (i < len(self.points) and self.points[i] == x)

    def gap_around(self, x: Fraction) -> tuple[Fraction, Fraction]:
        """Endpoints (hi_j, lo_{j+1}) of the gap strictly containing x."""
        points = self.points
        i = self._rank(x)
        if i % 2 == 1 or not 0 < i < len(points) or points[i] == x:
            raise ValueError(f"{format_rational(x)} is not interior to a gap")
        return (points[i - 1], points[i])

    def subtract_open(self, lo: Fraction, hi: Fraction) -> IntervalSet:
        """Remove the open interval (lo, hi); the endpoints lo, hi survive.

        points[i:k] are the endpoints strictly inside (lo, hi).  An odd i
        means lo lies in a piece, which keeps [.., lo]; an odd k means hi
        does, which keeps [hi, ..].
        """
        if hi.numerator * lo.denominator <= lo.numerator * hi.denominator:
            return self  # hi <= lo: the cut is empty
        points = self.points
        i = self._rank(lo, right=True)
        k = self._rank(hi)
        if i == k and i % 2 == 0:
            return self
        return IntervalSet(points[:i] + (lo,) * (i % 2) + (hi,) * (k % 2) + points[k:])

    def to_pairs(self) -> list[list[str]]:
        points = self.points
        return [
            [format_rational(lo), format_rational(hi)]
            for lo, hi in zip(points[::2], points[1::2])
        ]

    @staticmethod
    def from_strings(pairs) -> IntervalSet:
        """The set of a support as a family record states it: a JSON array
        of [lo, hi] arrays of rational strings, in canonical order.

        Each endpoint is parsed by ``parse_endpoint``, so once per distinct
        string per process; order is checked by ``from_pairs``.
        """
        if type(pairs) is not list or any(
            type(p) is not list or len(p) != 2 or type(p[0]) is not str or type(p[1]) is not str
            for p in pairs
        ):
            raise ValueError("a support must be a JSON array of [lo, hi] arrays of strings")
        return IntervalSet.from_pairs(
            (parse_endpoint(lo), parse_endpoint(hi)) for lo, hi in pairs
        )


@lru_cache(maxsize=4096)
def parse_endpoint(text: str) -> Fraction:
    """``parse_rational``, memoised for support endpoints.

    A family file holds tens of thousands of endpoint strings but only a few
    hundred distinct ones.  The cache is bounded, and ``lru_cache`` stores
    no raised exception, so a bad string fails the same way on every call.
    ``parse_rational`` is looked up by its module-level name at each miss,
    so a wrapper rebound to that name sees every string actually parsed.
    """
    return parse_rational(text)


@dataclass(frozen=True)
class CoverSpec:
    """Deterministic open cover of [0,1] by length-`length` intervals.

    Centers sit on the uniform grid k*length/2, so consecutive intervals
    overlap by half their length and the union covers [0,1] with both
    endpoints interior.  Removing any ``picks_per_set`` of them from [0,1]
    leaves measure at least the ``delta`` given to ``make_cover``.
    """

    level: int
    length: Fraction
    centers: tuple[Fraction, ...]

    @property
    def picks_per_set(self) -> int:
        return 2**self.level

    @cached_property
    def step(self) -> Fraction:
        """Half the length: the spacing of the centers."""
        return self.length / 2

    @cached_property
    def open_intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        half = self.step
        return tuple((c - half, c + half) for c in self.centers)

    def covering_indices(self, x: Fraction) -> list[int]:
        """Indices of cover intervals whose open interior contains x.

        In units of step interval k is (k-1, k+1), so a grid point
        x = k*step is interior to interval k alone and any other x to
        floor(x/step) and the next one, found by one integer divmod.
        """
        step = self.step
        k, rem = divmod(x.numerator * step.denominator, x.denominator * step.numerator)
        around = (k,) if rem == 0 else (k, k + 1)
        return [idx for idx in around if 0 <= idx < len(self.centers)]


def make_cover(delta: Fraction, level: int) -> CoverSpec:
    """Level-i cover: open intervals of length (1-delta)/2^i on the k*l/2 grid."""
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0,1), got {format_rational(delta)}")
    if level < 1:
        raise ValueError(f"level must be a positive integer, got {level}")
    length = (1 - delta) / 2**level
    step = length / 2
    k_max = -(-step.denominator // step.numerator)  # ceil(1/step) = ceil(2/length)
    centers = tuple(k * step for k in range(k_max + 1))
    return CoverSpec(level=level, length=length, centers=centers)


def remove_intervals(cover: CoverSpec, picks) -> IntervalSet:
    """[0,1] minus the union of the picked open cover intervals.

    Exactly 2^level picks are required, in any order; repeats are allowed
    and harmless.  In units of step interval p is (p-1, p+1), so sorted
    picks at most 1 apart overlap, and each maximal run start..end of them
    removes the one open interval (start-1, end+1), cut once.  A run ending
    at e and the next starting at e+2 leave the point e+1 between them.
    """
    picks = list(picks)
    if len(picks) != cover.picks_per_set:
        raise ValueError(
            f"expected {cover.picks_per_set} picks at level {cover.level}, "
            f"got {len(picks)}"
        )
    for p in picks:
        if not (0 <= p < len(cover.centers)):
            raise ValueError(f"pick index {p} out of range")
    spans = cover.open_intervals
    result = IntervalSet.unit()
    runs = iter(sorted(picks))  # 2^level >= 1 picks
    start = end = next(runs)
    for p in runs:
        if p > end + 1:
            result = result.subtract_open(spans[start][0], spans[end][1])
            start = p
        end = p
    return result.subtract_open(spans[start][0], spans[end][1])


def deep_witness(
    sets: list[IntervalSet], t: int
) -> tuple[Fraction, tuple[int, ...]] | None:
    """A point lying in at least t of the sets, or None.

    Depth rises only at a left endpoint and a gap is never deeper than the
    endpoint before it, so the leftmost point of depth >= t is an endpoint.
    One sweep over the endpoints finds it; the first t sets containing it
    come with it.  Never None when all n sets have measure >= delta and
    n >= ceil((t-1)/delta)+1.
    """
    if t < 1:
        raise ValueError(f"witness depth must be positive, got {t}")
    # endpoints are counted by their (numerator, denominator) pair, which
    # hashes in C, and only the distinct ones are ordered by value
    opens: Counter[tuple[int, int]] = Counter()
    closes: Counter[tuple[int, int]] = Counter()
    for s in sets:
        points = s.points
        opens.update((p.numerator, p.denominator) for p in points[::2])
        closes.update((p.numerator, p.denominator) for p in points[1::2])
    active = 0
    for key in sorted(opens.keys() | closes.keys(), key=lambda key: Fraction(*key)):
        active += opens[key]
        if active >= t:
            x = Fraction(*key)
            holding = (i for i, s in enumerate(sets) if s.contains(x))
            return (x, tuple(islice(holding, t)))
        active -= closes[key]
    return None
