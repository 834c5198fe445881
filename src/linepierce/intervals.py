"""Finite unions of closed rational intervals in [0,1], covers, and depth.

The compact supports used throughout are complements in [0,1] of finitely
many open grid intervals, so they are exactly finite unions of closed
intervals (single points included).  This module supplies the deterministic
open covers, the removal operation that produces the supports, their exact
measure test, and deep-point witnesses found by a sweep over all endpoints.

A set is one denominator and its endpoints' ints over it, so a query is
one ``divmod`` and one ``bisect``.  A support is written straight onto
its cover's grid: one ``subtract_open`` pass keeps [0,1] minus every run
of picked cover intervals, left to right in one list.  A support is read
as one flat list of endpoints and rendered from tables, parsing and
rendering each distinct endpoint once per process, through bounded caches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat
from math import gcd, lcm
from operator import floordiv, le, lt, mul

from .exactnum import Record, format_rational, parse_rational

LIFT_FACTOR = 4  # the bounds of ``IntervalSet.from_pairs`` on a lift
LIFT_FLOOR = 2**16
TEXTS_BOUND = 4096  # most texts ``IntervalSet.to_pairs`` keeps in _TEXTS (den -> {e: text})
_TEXTS: dict[int, dict[int, str]] = {}


class IntervalSet(Record):
    """Disjoint sorted union of closed intervals, in units of ``1/den``.

    ``ends`` is ``lo_0, hi_0, lo_1, hi_1, ...``: nondecreasing ints, with
    hi_j < lo_{j+1} strictly, and lo == hi for a single point.  ``den > 0``
    and ``gcd(den, *ends) == 1``, so equal sets are equal int tuples.  An x
    past an odd number of endpoints lies in a piece past its left end.
    """

    __slots__ = _fields = ("den", "ends")

    def __init__(self, den: int, ends: tuple[int, ...]) -> None:
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ends", ends)

    @staticmethod
    def from_pairs(ratios) -> IntervalSet:
        """The set of the flat endpoints lo_0, hi_0, lo_1, ... as reduced int pairs
        from ``parse_endpoint``, in canonical order: each lo <= hi and above the
        previous hi.  The name is kept because ``perfbench/tracer.py`` binds it.

        The endpoints are lifted to their least common denominator, which
        leaves gcd 1, and ordered as ints.  The lift is quadratic over
        unrelated denominators, so it is refused, step by step and at linear
        cost, once the endpoint count times the denominator's bits exceeds
        both ``LIFT_FLOOR`` and ``LIFT_FACTOR`` times the endpoints' own bits,
        which are summed only once it exceeds the first.
        """
        if len(ratios) % 2:
            raise ValueError(f"a support needs an even number of endpoints, got {len(ratios)}")
        nums, dens = zip(*ratios) if ratios else ((), ())
        den, own = 1, 0
        for d in set(dens):
            den = lcm(den, d)
            if len(ratios) * den.bit_length() > max(LIFT_FACTOR * own, LIFT_FLOOR):
                own = own or sum(map(int.bit_length, nums)) + sum(map(int.bit_length, dens))
                limit = max(LIFT_FACTOR * own, LIFT_FLOOR)
                if len(ratios) * den.bit_length() > limit:
                    raise ValueError(
                        f"support of {len(ratios)} endpoints of {own} bits does not "
                        f"lift to one denominator within {limit} bits"
                    )
        ends = tuple(map(mul, nums, map(floordiv, repeat(den), dens)))
        if all(map(le, ends[::2], ends[1::2])) and all(map(lt, ends[1:-1:2], ends[2::2])):
            return IntervalSet(den, ends)
        for j in range(0, len(ends), 2):  # name the first fault
            if ends[j + 1] < ends[j] or j and ends[j] <= ends[j - 1]:
                lo, hi, prev = (format_rational(Fraction(*ratios[i])) for i in (j, j + 1, j - 1))
                raise ValueError(
                    f"interval endpoints out of order: [{lo}, {hi}]" if ends[j + 1] < ends[j]
                    else f"interval [{lo}, {hi}] does not start above the previous one's end {prev}"
                )

    @property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(e, self.den) for e in self.ends)

    def measure_below(self, delta: Fraction) -> bool:
        """Is the measure, (sum of his - sum of los) / den, below delta?  Decided in ints."""
        ends = self.ends
        return (sum(ends[1::2]) - sum(ends[::2])) * delta.denominator < delta.numerator * self.den

    def contains(self, x: Fraction | int, per: int = 1) -> bool:
        """Does the set hold x/per?  A positive int ``per`` lets a caller ask
        about a ratio of ints without reducing it to a ``Fraction``.  Off
        the grid x/per is k + r/b units up, 0 < r < b, and the endpoints
        below it are those <= k; on it, x/per is k."""
        k, r = divmod(x.numerator * self.den, x.denominator * per)
        if r:
            return bisect_right(self.ends, k) % 2 == 1
        i = bisect_left(self.ends, k)
        return i % 2 == 1 or self.ends[i : i + 1] == (k,)

    def gap_ends(self, x: Fraction | int, per: int = 1) -> tuple[int, int]:
        """The ends (hi_j, lo_{j+1}) of the gap strictly holding x/per, as ints over den,
        ``per`` as in ``contains``: x/per lies past an even number of endpoints, those
        <= k = floor(x*den/per), and is none of them."""
        k, r = divmod(x.numerator * self.den, x.denominator * per)
        ends, i = self.ends, bisect_right(self.ends, k)
        if i % 2 or not 0 < i < len(ends) or not r and ends[i - 1] == k:
            raise ValueError(f"{format_rational(Fraction(x, per))} is not interior to a gap")
        return ends[i - 1], ends[i]

    @staticmethod
    def subtract_open(per: int, cuts) -> IntervalSet:
        """[0,1] minus the open intervals (a_j/per, b_j/per), written on the
        grid of 1/per left to right in one list; every a_j and b_j in [0,1]
        survives.  ``per`` is positive and ``cuts`` is the flat int sequence
        a_0, b_0, a_1, ... with a_j < b_j <= a_{j+1}, as the runs of
        ``remove_intervals`` give it; only the first cut may start below 0
        and only the last may end past per.  The name is kept because
        ``perfbench/tracer.py`` binds it; ROADMAP item 1 renames it.
        """
        out, lo = [], 0
        for a, b in zip(cuts[::2], cuts[1::2]):
            if a >= lo:
                out += (lo, a)
            lo = b
        if lo <= per:
            out += (lo, per)
        g = gcd(per, *out)
        return IntervalSet(per // g, tuple(map(floordiv, out, repeat(g))))

    def to_pairs(self) -> list[list[str]]:
        """Each piece as [lo, hi] of ``format_rational`` texts, each read from the table of den."""
        table = _TEXTS.setdefault(self.den, {})
        try:
            texts = map(table.__getitem__, self.ends)
            return list(map(list, zip(texts, texts)))
        except KeyError:  # render what the table lacks, then read every text again
            missing = set(self.ends).difference(table)
            table.update(zip(missing, map(format_rational, map(Fraction, missing, repeat(self.den)))))
            pairs = self.to_pairs()
            if sum(map(len, _TEXTS.values())) > TEXTS_BOUND:
                _TEXTS.clear()  # whole, when full
            return pairs

    @staticmethod
    def from_strings(pairs) -> IntervalSet:
        """The set of a support as a family record states it: a JSON array
        of [lo, hi] arrays of rational strings, in canonical order.  One pass
        flattens it, a bad top level or piece adding a None; each endpoint is
        parsed by ``parse_endpoint`` and order is checked by ``from_pairs``."""
        flat = []
        for piece in pairs if type(pairs) is list else [None]:
            flat += piece if type(piece) is list and len(piece) == 2 else [None]
        if set(map(type, flat)) - {str}:
            raise ValueError("a support must be a JSON array of [lo, hi] arrays of strings")
        return IntervalSet.from_pairs(list(map(parse_endpoint, flat)))


@lru_cache(maxsize=4096)
def parse_endpoint(text: str) -> tuple[int, int]:
    """``parse_rational``'s value as its reduced (numerator, denominator)
    pair, memoised for support endpoints.

    A family file holds tens of thousands of endpoint strings but only a few
    hundred distinct ones.  The cache is bounded, and ``lru_cache`` stores
    no raised exception, so a bad string fails the same way on every call.
    ``parse_rational`` is looked up by its module-level name at each miss,
    so a wrapper rebound to that name sees every string actually parsed.
    """
    return parse_rational(text).as_integer_ratio()


class CoverSpec(Record):
    """Deterministic open cover of [0,1]: ``size`` open intervals of length
    2*step, interval k centered at k*step.

    Consecutive intervals overlap by half their length, and the last center
    is the first grid point at or past 1, so the union covers [0,1] with
    both endpoints interior.  Removing any ``picks_per_set`` of them from
    [0,1] leaves measure at least the ``delta`` given to ``make_cover``.
    """

    __slots__ = _fields = ("level", "step", "size")

    def __init__(self, level: int, step: Fraction, size: int) -> None:
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "size", size)

    @property
    def picks_per_set(self) -> int:
        return 2**self.level

    def covering_indices(self, x: Fraction) -> list[int]:
        """Indices of cover intervals whose open interior contains x.

        In units of step interval k is (k-1, k+1), so a grid point
        x = k*step is interior to interval k alone and any other x to
        floor(x/step) and the next one, found by one integer divmod.
        """
        step = self.step
        k, rem = divmod(x.numerator * step.denominator, x.denominator * step.numerator)
        around = (k,) if rem == 0 else (k, k + 1)
        return [idx for idx in around if 0 <= idx < self.size]


def make_cover(delta: Fraction, level: int) -> CoverSpec:
    """Level-i cover: open intervals of length (1-delta)/2^i, centered on
    the grid of half that length from 0 to the first grid point at or past 1."""
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0,1), got {format_rational(delta)}")
    if level < 1:
        raise ValueError(f"level must be a positive integer, got {level}")
    step = (1 - delta) / 2 ** (level + 1)
    last = -(-step.denominator // step.numerator)  # ceil(1/step)
    return CoverSpec(level=level, step=step, size=last + 1)


def remove_intervals(cover: CoverSpec, picks) -> IntervalSet:
    """[0,1] minus the union of the picked open cover intervals.

    Exactly 2^level picks are required, in any order; repeats are allowed
    and harmless.  With step = sn/sd, interval p is (p-1, p+1) in units of
    step, so sorted picks at most 1 apart overlap, and each maximal run
    start..end of them is the one cut ((start-1)*sn, (end+1)*sn) in units
    of 1/sd.  A run ending at e and the next starting at e+2 touch at e+1,
    which survives.  All runs are cut from [0,1] by one ``subtract_open``.
    """
    picks = sorted(picks)
    if len(picks) != cover.picks_per_set:
        raise ValueError(
            f"expected {cover.picks_per_set} picks at level {cover.level}, "
            f"got {len(picks)}"
        )
    for p in (picks[0], picks[-1]):  # 2^level >= 1 picks: the least and the greatest
        if not (0 <= p < cover.size):
            raise ValueError(f"pick index {p} out of range")
    sn, sd = cover.step.as_integer_ratio()
    cuts: list[int] = []
    start = end = picks[0]
    for p in islice(picks, picks.count(start), None):  # past the copies of the least pick
        if p > end + 1:
            cuts += ((start - 1) * sn, (end + 1) * sn)
            start = p
        end = p
    cuts += ((start - 1) * sn, (end + 1) * sn)
    return IntervalSet.subtract_open(sd, cuts)


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
    # endpoints are counted as (int, denominator) pairs, which hash in C;
    # each distinct pair then gets its value, merging equal values
    opens: Counter[tuple[int, int]] = Counter()
    closes: Counter[tuple[int, int]] = Counter()
    for s in sets:
        opens.update(zip(s.ends[::2], repeat(s.den)))
        closes.update(zip(s.ends[1::2], repeat(s.den)))
    events: dict[Fraction, list[int]] = {}
    for counts, side in ((opens, 0), (closes, 1)):
        for key, n in counts.items():
            events.setdefault(Fraction(*key), [0, 0])[side] += n
    active = 0
    for x in sorted(events):
        rises, falls = events[x]
        active += rises
        if active >= t:
            holding = (i for i, s in enumerate(sets) if s.contains(x))
            return (x, tuple(islice(holding, t)))
        active -= falls
    return None
