"""Finite unions of closed rational intervals in [0,1], covers, and depth.

The compact supports used throughout are complements in [0,1] of finitely
many open grid intervals, so they are exactly finite unions of closed
intervals (single points included).  This module supplies the deterministic
open covers, the removal operation that produces the supports, exact
Lebesgue measure, and deep-point witnesses found by a sweep over all
endpoints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from .exactnum import format_rational, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)
_start = itemgetter(0)


@dataclass(frozen=True)
class IntervalSet:
    """Canonical disjoint sorted union of closed intervals [lo, hi].

    Canonical means hi_j < lo_{j+1} strictly; touching or overlapping input
    intervals are merged by ``from_pairs``.  Degenerate single points are
    allowed (lo == hi).
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def from_pairs(pairs) -> IntervalSet:
        cleaned = []
        for lo, hi in pairs:
            lo, hi = Fraction(lo), Fraction(hi)
            if hi < lo:
                raise ValueError(
                    "interval endpoints out of order: "
                    f"[{format_rational(lo)}, {format_rational(hi)}]"
                )
            cleaned.append((lo, hi))
        cleaned.sort()
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        return IntervalSet(tuple(merged))

    @staticmethod
    def unit() -> IntervalSet:
        return IntervalSet(((ZERO, ONE),))

    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), ZERO)

    @cached_property
    def _starts(self) -> list[Fraction]:
        return [iv[0] for iv in self.intervals]

    def contains(self, x: Fraction) -> bool:
        j = bisect_right(self._starts, x) - 1
        return j >= 0 and x <= self.intervals[j][1]

    def gap_around(self, x: Fraction) -> tuple[Fraction, Fraction]:
        """Endpoints (hi_j, lo_{j+1}) of the gap strictly containing x."""
        j = bisect_right(self._starts, x) - 1
        if j < 0 or j + 1 >= len(self.intervals) or not (
            self.intervals[j][1] < x < self.intervals[j + 1][0]
        ):
            raise ValueError(f"{format_rational(x)} is not interior to a gap")
        return (self.intervals[j][1], self.intervals[j + 1][0])

    def min_point(self) -> Fraction:
        if self.is_empty():
            raise ValueError("empty interval set has no minimum")
        return self.intervals[0][0]

    def max_point(self) -> Fraction:
        if self.is_empty():
            raise ValueError("empty interval set has no maximum")
        return self.intervals[-1][1]

    def endpoints(self) -> list[Fraction]:
        out = []
        for lo, hi in self.intervals:
            out.append(lo)
            out.append(hi)
        return out

    def subtract_open(self, lo: Fraction, hi: Fraction) -> IntervalSet:
        """Remove the open interval (lo, hi); the endpoints lo, hi survive.

        Pieces i..k-1 meet (lo, hi); only piece i can keep a left stub
        [a_i, lo] and only piece k-1 a right stub [hi, b_{k-1}].
        """
        if hi <= lo:
            return self
        ivs = self.intervals
        # cuts made left to right, as remove_intervals makes them, mostly
        # start in the last piece: try it before bisecting
        if ivs and lo >= ivs[-1][0]:
            i = len(ivs) - 1
        else:
            i = max(bisect_right(ivs, lo, key=_start) - 1, 0)
        if i < len(ivs) and ivs[i][1] <= lo:
            i += 1
        k = bisect_left(ivs, hi, i, key=_start)
        if i >= k:
            return self
        stubs = []
        if lo >= ivs[i][0]:
            stubs.append((ivs[i][0], lo))
        if hi <= ivs[k - 1][1]:
            stubs.append((hi, ivs[k - 1][1]))
        return IntervalSet(ivs[:i] + tuple(stubs) + ivs[k:])

    def to_pairs(self) -> list[list[str]]:
        return [[format_rational(lo), format_rational(hi)] for lo, hi in self.intervals]

    @staticmethod
    def from_strings(pairs) -> IntervalSet:
        return IntervalSet.from_pairs(
            (parse_rational(lo), parse_rational(hi)) for lo, hi in pairs
        )


@dataclass(frozen=True)
class CoverSpec:
    """Deterministic open cover of [0,1] by length-`length` intervals.

    Centers sit on the uniform grid k*length/2, so consecutive intervals
    overlap by half their length and the union covers [0,1] with both
    endpoints interior.  Removing any ``picks_per_set`` of them from [0,1]
    leaves measure at least delta.
    """

    delta: Fraction
    level: int
    length: Fraction
    centers: tuple[Fraction, ...]

    @property
    def picks_per_set(self) -> int:
        return 2**self.level

    @cached_property
    def open_intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        half = self.length / 2
        return tuple((c - half, c + half) for c in self.centers)

    def covering_indices(self, x: Fraction) -> list[int]:
        """Indices of cover intervals whose open interior contains x.

        In half-length steps interval k is (k-1, k+1), so a grid point
        x = k*step is interior to interval k alone and any other x to
        floor(x/step) and the next one.
        """
        ratio = x / (self.length / 2)
        k, rem = divmod(ratio.numerator, ratio.denominator)
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
    return CoverSpec(delta=delta, level=level, length=length, centers=centers)


def remove_intervals(cover: CoverSpec, picks) -> IntervalSet:
    """[0,1] minus the union of the picked open cover intervals.

    Exactly 2^level picks are required; repeats are allowed and harmless.
    """
    picks = list(picks)
    if len(picks) != cover.picks_per_set:
        raise ValueError(
            f"expected {cover.picks_per_set} picks at level {cover.level}, "
            f"got {len(picks)}"
        )
    result = IntervalSet.unit()
    for p in picks:
        if not (0 <= p < len(cover.centers)):
            raise ValueError(f"pick index {p} out of range")
        lo, hi = cover.open_intervals[p]
        result = result.subtract_open(lo, hi)
    return result


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
    opens: dict[Fraction, int] = {}
    closes: dict[Fraction, int] = {}
    for s in sets:
        for lo, hi in s.intervals:
            opens[lo] = opens.get(lo, 0) + 1
            closes[hi] = closes.get(hi, 0) + 1
    active = 0
    for x in sorted(opens.keys() | closes.keys()):
        active += opens.get(x, 0)
        if active >= t:
            members = tuple(i for i, s in enumerate(sets) if s.contains(x))[:t]
            return (x, members)
        active -= closes.get(x, 0)
    return None
