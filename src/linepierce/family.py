"""Deterministic construction of the evasive family of convex bodies.

Each body is the convex hull, inside a tilted plane y = q + eps*x, of the
points that the plane cuts out of the constant-x ruling lines of z = x*y
over a compact support set of measure >= delta.  The q values are emitted
by a dovetailed walk over approach sequences converging to every rational
in [0,1]; supports are drawn first-fit from a canonical enumeration of the
cover-complement sets so that the body for the n-th approacher of the m-th
base rational contains that rational but none of the earlier ones.

Everything here is deterministic: same delta, same prefix, byte for byte.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Container, Iterator
from decimal import MAX_PREC, Context, Decimal, Inexact
from fractions import Fraction
from functools import cached_property
from itertools import count, repeat
from math import gcd, isqrt
from numbers import Rational

from .exactnum import Record, format_rational, parse_rational, rational_digits
from .geometry import Point3
from .intervals import CoverSpec, IntervalSet, make_cover, remove_intervals


# the base rationals r_1, r_2, ... in order, extended a whole denominator at a time
_Q0: list[Fraction] = [Fraction(0), Fraction(1)]


def enumerate_Q0(n: int) -> Fraction:
    """n-th term (1-based) of the canonical enumeration of [0,1] rationals:
    0, 1, then the reduced fractions by denominator, then numerator."""
    if n < 1:
        raise ValueError(f"enumeration index must be positive, got {n}")
    while len(_Q0) < n:
        den = _Q0[-1].denominator + 1
        _Q0.extend(Fraction(num, den) for num in range(1, den) if gcd(num, den) == 1)
    return _Q0[n - 1]


_last_sorted: tuple[int, list[tuple[int, int]]] = (0, [])  # (n, _sorted_base(n)), replaced whole


def _sorted_base(n: int) -> list[tuple[int, int]]:
    """r_1 ... r_n as int pairs in increasing order, in a new list: approach m
    asks for one more than m - 1, so at or past the last n asked for, that
    list plus one insertion per rational, else built from none."""
    global _last_sorted
    enumerate_Q0(n + 1)  # _Q0 holds r_1 ... r_n
    n0, pairs = _last_sorted if _last_sorted[0] <= n else (0, [])
    pairs = pairs.copy()
    for a, b in map(Fraction.as_integer_ratio, _Q0[n0:n]):  # p < a/b when p0*b - a*p1 < 0
        pairs.insert(bisect_left(pairs, 0, key=lambda p: p[0] * b - a * p[1]), (a, b))
    _last_sorted = (n, pairs)
    return pairs


def tilt_exponent(n: int) -> int:
    """k with the n-th emission's tilt 4^-(n+2) = 2^-k, strictly decreasing to 0."""
    return 2 * n + 4


# exact at any length: a Decimal renders and reads digits in linear time
_EXACT = Context(prec=MAX_PREC, Emax=MAX_PREC, traps=[Inexact])
# (k, 2^k) of the last tilt denominator asked for, replaced whole
_last_power: tuple[int, Decimal] = (0, Decimal(1))


def _power_of_two(k: int) -> Decimal:
    """2^k as an exact Decimal.  Each tilt is 4 times the one before, so a
    power at or above the last one asked for is that one times 2^(k - k0):
    bodies in order cost one multiply each, not a base conversion."""
    global _last_power
    k0, value = _last_power if _last_power[0] <= k else (0, Decimal(1))
    _last_power = (k, _EXACT.multiply(value, _EXACT.power(2, k - k0)))
    return _last_power[1]


def m_of(n: int) -> int:
    """Approach sequence of the n-th emitted body: its position in the
    dovetail 1; 1, 2; 1, 2, 3; ..., whose k-th round starts at n = k(k-1)/2 + 1."""
    if n < 1:
        raise ValueError(f"emission index must be positive, got {n}")
    k = (isqrt(8 * n - 7) - 1) // 2  # rounds completed before n
    return n - k * (k + 1) // 2


def dyadic_approach(target: Fraction) -> Iterator[tuple[int, int]]:
    """Distinct rationals in [0,1] converging to target, as reduced
    (numerator, denominator) int pairs: with target = a/b, the candidates
    (a*2^j +- b) / (b*2^j) = target +- 2^-j for j = 2, 3, ... (plus before
    minus), skipping values outside [0,1].
    """
    if not (0 <= target <= 1):
        raise ValueError(f"target must lie in [0,1], got {format_rational(target)}")
    a, b = target.numerator, target.denominator
    for j in count(2):
        den = b << j
        for num in ((a << j) + b, (a << j) - b):
            if 0 <= num <= den:
                g = gcd(num, den)
                yield num // g, den // g


class _LevelCursor:
    """Lexicographic walk over the valid pick multisets of one cover level.

    A pick multiset (nondecreasing tuple of 2^level center indices) is valid
    when no picked interval's interior contains the protected target and
    every excluded point lies in some picked interval's interior.  The walk
    yields multisets in lexicographic order without materializing the
    enumeration, via a greedy feasibility oracle (the lexicographic multiset
    walk of Knuth, TAOCP Vol. 4A, 7.2.1.3).

    ``excluded`` is sorted int pairs (n, d), points n/d of [0,1].  A feasible
    pick either covers the lowest uncovered point e, and with it every
    uncovered point below its right end, or covers no uncovered point.  For a
    pick that covers a later point but not e lies wholly above e, and so does
    every later pick, as picks are nondecreasing: e could never be covered.
    So the points a feasible prefix of picks covers are always a prefix of
    the sorted points, and the walk's state is the lowest uncovered one's index.

    ``cands[i]`` lists the (at most two) allowed intervals over point i in
    increasing order; ``reach[p]`` counts the points below the right end of
    an interval p over some point, one past the last point p holds.
    ``need[i]`` counts the greedy picks that cover the points from i on, more
    than any slot count when one of them has no candidate.
    """

    def __init__(self, cover: CoverSpec, target: Fraction, excluded: list[tuple[int, int]]):
        self.size = cover.picks_per_set
        # no rational arithmetic: in units of step interval p is (p-1, p+1), so a point of
        # [0,1] is interior to k alone on the grid and to k and k + 1 off it, by one divmod
        sn, sd = cover.step.as_integer_ratio()
        k, r = divmod(target.numerator * sd, target.denominator * sn)
        forbidden = [k, k + 1] if r else [k]
        self.allowed = [*range(forbidden[0]), *range(forbidden[-1] + 1, cover.size)]
        self.cands = []
        for n, d in excluded:
            k, r = divmod(n * sd, d * sn)
            ps = [k, k + 1] if r else [k]
            near = forbidden[0] - 1 <= k <= forbidden[-1]  # else no p of ps is forbidden
            self.cands.append([p for p in ps if p not in forbidden] if near else ps)
        self.reach = [0] * cover.size
        for i, ps in enumerate(self.cands):
            for p in ps:
                self.reach[p] = i + 1
        self.need = [0] * (len(excluded) + 1)
        for i in reversed(range(len(excluded))):
            ps = self.cands[i]
            self.need[i] = self.need[self.reach[ps[-1]]] + 1 if ps else self.size + 1

    def _coverable(self, low: int, floor: int, slots: int) -> bool:
        """Can at most ``slots`` picks >= floor cover the points from index
        ``low`` on?  Greedily, the lowest uncovered point takes its rightmost
        candidate, which covers every point below its right end.  Only that
        chain's first pick can fall below floor: each later pick is over a
        point at or past the right end of the one before, and as the
        intervals are equally long, its index is higher."""
        return low == len(self.cands) or self.need[low] <= slots and self.cands[low][-1] >= floor

    def _least_pick(self, low: int, floor: int, slots_after: int) -> tuple[int, int] | None:
        """Least pick >= floor after which the later slots can still cover
        every point, with the index of the lowest point it leaves uncovered;
        None when there is none.  It is the smallest allowed index >= floor
        or a candidate of the lowest uncovered point: any other feasible pick
        covers no uncovered point and leaves the later slots fewer indices."""
        j = bisect_left(self.allowed, floor)
        if j == len(self.allowed):  # every candidate is an allowed index
            return None
        p = self.allowed[j]
        over = self.cands[low] if low < len(self.cands) else ()
        rest = self.reach[p] if p in over else low
        if self._coverable(rest, p, slots_after):
            return p, rest
        for c in over:
            if c > p and self._coverable(self.reach[c], c, slots_after):
                return c, self.reach[c]
        return None

    def walk(self) -> Iterator[tuple[int, ...]]:
        """Valid pick multisets as tuples, in lexicographic order.

        ``low[j]`` is the index of the lowest point ``combo[:j]`` leaves
        uncovered.  Each position takes its least feasible pick >= ``floor``;
        after a yield, or when a position has no such pick, the walk pops the
        last pick and resumes just above it.  So a successor re-examines only
        the positions it changes, and the walk never recurses: 2^level picks
        cost no stack depth.
        """
        combo: list[int] = []
        low = [0]
        floor = 0
        while True:
            step = None
            if len(combo) < self.size:
                step = self._least_pick(low[-1], floor, self.size - len(combo) - 1)
            else:
                yield tuple(combo)
            if step is not None:
                p, rest = step
                combo.append(p)
                low.append(rest)
                floor = p
            elif combo:
                floor = combo.pop() + 1
                low.pop()
            else:
                return


def _first_of_its_support(cover: CoverSpec, combo: tuple[int, ...]) -> bool:
    """Is the multiset the first, lowest level first, then lexicographic, to
    give its support, on which alone validity depends?  In units of step
    interval p is (p-1, p+1): the support fixes the distinct picks, but
    ``last`` adds nothing to ``last - 1`` when last*step > 1, so the first
    (a) repeats only its least pick and (b) holds not both.  (c) As level
    L-1's p is level L's 2p-1..2p+1, level L-1 gives the support when each
    cut (start-1, end+1) of a run of picks ends even or outside [0,1] and
    the coarse runs, none empty, total n <= 2^(L-1) picks.  A lower level
    gives it only if L-1 does: its cut ends are even too, and halving the
    step takes a gap's k picks to 2k + 1, 2k at 0, >= 2k - 1 at 1: 2n - 1 <= 2^L."""
    picks = combo[combo.count(combo[0]) - 1 :]  # the least pick once, then the rest
    sn, sd = cover.step.as_integer_ratio()
    last = cover.size - 1
    if len(set(picks)) < len(picks) or last * sn > sd and picks[-2:] == (last - 1, last):
        return False  # (a) or (b)
    cuts = [picks[0] - 1 if picks[0] else -2]  # coarse interval 0 holds 0
    if cover.level == 1 or cuts[0] % 2:  # (c), at the first odd cut end: the support is new
        return True
    for p, q in zip(picks, picks[1:]):
        if q > p + 1:
            if not p & q & 1:  # p + 1 or q - 1 is odd
                return True
            cuts += (p + 1, q - 1)
    end = picks[-1] + 1  # past 1, the coarse run ends at the least end past 1, after a pick
    cuts.append(max(2 * (sd // (2 * sn) + 1), cuts[-1] + 4) if end * sn > sd else end)
    runs = [(b - a) // 2 - 1 for a, b in zip(cuts[::2], cuts[1::2])]
    return cuts[-1] % 2 == 1 or 0 in runs or sum(runs) > 2 ** (cover.level - 1)


class SupportAssigner:
    """First-fit supports of approach sequence m: the point sets of the valid
    pick multisets, those holding r_m and none of r_1 ... r_(m-1), in the
    order of their first multisets, level by level, lexicographic in one."""

    def __init__(self, delta: Fraction, m: int):
        self._supports = self._walk(delta, m)

    @staticmethod
    def _walk(delta: Fraction, m: int) -> Iterator[IntervalSet]:
        target = enumerate_Q0(m)
        excluded = _sorted_base(m - 1)
        for level in count(1):
            cover = make_cover(delta, level)
            for combo in _LevelCursor(cover, target, excluded).walk():
                if _first_of_its_support(cover, combo):
                    yield remove_intervals(cover, combo)

    def assign(self) -> IntervalSet:
        """Next unassigned support of the approach."""
        return next(self._supports)


class ConvexBody(Record):
    """One member of the family: hull data for the slice at y = q + eps*x.

    In chart coordinates (u, w) = (x, z) the body is bounded below by the
    parabola w = q*u + eps*u^2 over the support (bridged by chords across
    support gaps) and above by the chord joining the extreme parabola
    points.  ``qn``, ``qd`` and ``k``, with q = qn/qd and eps = 2^-k, are
    the plane as ints, set at construction for the piercing decisions.
    """

    _fields = ("q", "f_index", "support")  # no __slots__: the cached properties need a __dict__

    def __init__(self, q: Fraction, f_index: int, support: IntervalSet) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "f_index", f_index)
        object.__setattr__(self, "support", support)
        if not isinstance(self.q, Rational):
            raise ValueError("body offset q must be rational")
        if self.f_index < 1:
            raise ValueError(f"tilt index must be positive, got {self.f_index}")
        object.__setattr__(self, "qn", self.q.numerator)
        object.__setattr__(self, "qd", self.q.denominator)
        object.__setattr__(self, "k", tilt_exponent(self.f_index))
        ends = self.support.ends
        if not ends:
            raise ValueError("body support must be nonempty")
        if ends[0] < 0 or ends[-1] > self.support.den:
            raise ValueError("body support must lie within [0,1]")

    @cached_property
    def m(self) -> int:
        return m_of(self.f_index)

    @cached_property
    def eps(self) -> Fraction:
        return Fraction(1, 1 << self.k)

    @cached_property
    def r_min(self) -> Fraction:
        return Fraction(self.support.ends[0], self.support.den)

    @cached_property
    def r_max(self) -> Fraction:
        return Fraction(self.support.ends[-1], self.support.den)

    def from_chart(self, u: Fraction, w: Fraction) -> Point3:
        """The point of the body's plane y = q + eps*x at chart (u, w)."""
        return Point3(u, self.q + self.eps * u, w)

    def parabola(self, u):
        return self.q * u + self.eps * u * u

    def chord(self, s: Fraction, t: Fraction, u: Fraction) -> Fraction:
        """The chord of the parabola over s and t, at u; with s = t = u it is
        the parabola itself."""
        return (self.q + self.eps * (s + t)) * u - self.eps * s * t

    def top_chord(self, u):
        return self.chord(self.r_min, self.r_max, u)


class FamilyStream:
    """Lazy deterministic emission of bodies, read once, forward.

    Emission f takes its approach sequence m = m_of(f), as q the first value
    of m's dyadic approach not emitted before, and as support the next one
    of approach m's ``SupportAssigner``.  ``bodies`` yields every emission in
    order, once per stream, with None for a body whose base rational r_m the
    caller skips.  Skipping depends on m alone and is decided once, when
    approach m opens: a skipped approach opens no assigner and builds no
    support, and every body read takes the support a full read gives it.

    The (m, n) emission order is dovetailed by m+n then m, so every approach
    sequence is revisited infinitely often; the tilt index of a body is its
    global emission position.  Emitted values are kept as reduced int pairs;
    only a built body's q becomes a ``Fraction``.
    """

    def __init__(self, delta: Fraction):
        if not (0 < delta < 1):
            raise ValueError(f"delta must lie in (0,1), got {format_rational(delta)}")
        self._delta = delta
        # entry m - 1: approach m's values and its assigner, None when r_m is skipped
        self._approaches: list[tuple[Iterator[tuple[int, int]], SupportAssigner | None]] = []
        # the emitted q values as pairs, one per emission; the name is kept
        # because the benchmark tracer counts emissions as len(_bodies)
        self._bodies: set[tuple[int, int]] = set()
        self._read = False

    def _emit(self, skip: Container[Fraction]) -> ConvexBody | None:
        f = len(self._bodies) + 1
        m = m_of(f)
        if m > len(self._approaches):  # round m opens approach m as its last visit
            target = enumerate_Q0(m)
            assigner = None if target in skip else SupportAssigner(self._delta, m)
            self._approaches.append((dyadic_approach(target), assigner))
        values, assigner = self._approaches[m - 1]
        q = next(v for v in values if v not in self._bodies)
        self._bodies.add(q)
        if assigner is None:
            return None
        return ConvexBody(q=Fraction(*q), f_index=f, support=assigner.assign())

    def bodies(self, skip: Container[Fraction] = ()) -> Iterator[ConvexBody | None]:
        """Every emission in order, None for a body whose r_m is in skip."""
        if self._read:
            raise ValueError("a family stream is read once")
        self._read = True
        return map(self._emit, repeat(skip))


def membership_fault(body: ConvexBody, delta: Fraction) -> str | None:
    """The first rule of the family's definition that the body breaks, or
    None: its support has measure at least delta, holds its base rational
    r_m and none of r_1 ... r_(m-1), and q = r_m +- 2^-j for some j >= 2,
    inside [0,1].  Decided from the definitions, not by the walk that built
    the support, at the cost of m support queries."""
    m, support = body.m, body.support
    target = enumerate_Q0(m)
    if support.measure_below(delta):
        return f"support has measure below delta = {format_rational(delta)}"
    if not support.contains(target):
        return f"support does not hold its base rational r_{m} = {format_rational(target)}"
    for k, earlier in enumerate(_Q0[: m - 1], 1):
        if support.contains(earlier):
            return f"support holds the earlier base rational r_{k} = {format_rational(earlier)}"
    step = abs(body.q - target)
    den = step.denominator
    if not 0 <= body.q <= 1 or step.numerator != 1 or den < 4 or den & (den - 1):
        return f"q = {format_rational(body.q)} is not r_{m} +- 2^-j for any j >= 2 in [0,1]"
    return None


def body_to_record(body: ConvexBody) -> dict:
    return {
        "q": format_rational(body.q),
        "m": body.m,
        "f": body.f_index,
        "eps": "1/" + str(_power_of_two(body.k)),
        "support": body.support.to_pairs(),
    }


def record_line(record: dict) -> str:
    """A ``body_to_record`` record as one line, exactly ``json.dumps(record,
    sort_keys=True, separators=(",", ":")) + "\n"``: its support is nonempty, and
    its strings are ``format_rational`` texts of 0-9, '-' and '/', never escaped."""
    support = '"],["'.join(map('","'.join, record["support"]))
    return (f'{{"eps":"{record["eps"]}","f":{record["f"]},"m":{record["m"]},'
            f'"q":"{record["q"]}","support":[["{support}"]]}}\n')


def _integer_field(record: dict, key: str) -> int:
    value = record[key]
    if type(value) is not int:  # a bool, float or string is no JSON integer
        raise ValueError(f"{key} must be a JSON integer, got {type(value).__name__}")
    return value


def body_from_record(record: dict) -> ConvexBody:
    try:
        q = parse_rational(record["q"])
        m = _integer_field(record, "m")
        f = _integer_field(record, "f")
        num, den = rational_digits(record["eps"])
        support = IntervalSet.from_pairs(record["support"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed body record: {exc}") from exc
    # the tilt 2^-k is num/den when den's canonical digits are those of num * 2^k, over
    # 0.3 * k of them: 2^k is computed only then, so the work stays bounded by the record
    k = tilt_exponent(f)
    if f < 1 or 10 * len(den) < 3 * k or den.lstrip("0") != str(
        _EXACT.multiply(Decimal(num), _power_of_two(k))
    ):
        raise ValueError(
            f"tilt mismatch in body record: stated "
            f"{format_rational(parse_rational(record['eps']))} for f = {f}"
        )
    if m != m_of(f):
        raise ValueError(
            f"approach mismatch in body record: stated m = {m} for f = {f}, "
            f"whose approach sequence is m = {m_of(f)}"
        )
    return ConvexBody(q=q, f_index=f, support=support)
