"""Reference implementations that tests compare the package against.

Each one computes its answer by a route of its own: it shares no code with
the package path it checks.  ``prefix`` and ``clear_read_tables`` are no
oracles: they are the family's first bodies as the package reads them, and
a reset of the package's support reader, for every test module.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice
from math import lcm

from linepierce import intervals
from linepierce.exactnum import QuadExt, format_rational, parse_rational
from linepierce.family import ConvexBody, FamilyStream, _LevelCursor, enumerate_Q0, tilt_exponent
from linepierce.geometry import Line3, Point3
from linepierce.intervals import CoverSpec, IntervalSet, make_cover, remove_intervals
from linepierce.refutation import Certificate, _parallel_miss


def prefix(delta: Fraction, n: int) -> list[ConvexBody]:
    """The first n bodies of the family at delta, read from a fresh stream."""
    return list(islice(FamilyStream(delta).bodies(), n))


def clear_read_tables() -> None:
    """Empty the tables ``IntervalSet.from_pairs`` reads texts through, so
    the next read of each text parses it."""
    for table in (intervals._DENS, intervals._NUMS, intervals._ENDS):
        table.clear()


def point_at(line: Line3, s: Fraction) -> Point3:
    """The point base + s*dir of a line, for a rational s."""
    (dx, dy, dz), b = line.dir, line.base
    return Point3(b.x + s * dx, b.y + s * dy, b.z + s * dz)


def vertical_distance(pt: Point3) -> Fraction:
    """|z - x*y| of a rational point: its offset from the surface along z."""
    return abs(pt.z - pt.x * pt.y)


def surface_residual_parts(pt: Point3) -> tuple[Fraction, Fraction]:
    """The rational parts (r, s) of z - x*y = r + s*sqrt(d), over the one
    radicand d of the point's irrational coordinates.  A canonical d > 0 is
    no rational square, so sqrt(d) is irrational and the residual is zero
    exactly when r == s == 0."""
    parts = [(c.a, c.b, c.d) if isinstance(c, QuadExt) else (c, 0, 0)
             for c in (pt.x, pt.y, pt.z)]
    radicands = {d for _, b, d in parts if b != 0}
    assert len(radicands) <= 1, f"coordinates over distinct radicands {radicands}"
    d = radicands.pop() if radicands else 0
    (xa, xb, _), (ya, yb, _), (za, zb, _) = parts
    return (za - xa * ya - xb * yb * d, zb - xa * yb - xb * ya)


def interval_set(pairs) -> IntervalSet:
    """``IntervalSet.from_pairs`` of (lo, hi) ``Fraction`` pieces, each
    endpoint given, in order, as its ``format_rational`` text."""
    return IntervalSet.from_pairs([[format_rational(lo), format_rational(hi)] for lo, hi in pairs])


def measure(s) -> Fraction:
    """The Lebesgue measure of an ``IntervalSet``: its pieces' lengths,
    summed as ``Fraction``s."""
    return sum((hi - lo for lo, hi in pieces(s)), Fraction(0))


def decode_support(pairs) -> FractionSet:
    """A family record's support read by the earlier decode path: the whole
    shape is checked first, then every endpoint is parsed, and the parsed
    values are paired again into (lo, hi) pieces for ``FractionSet``."""
    if (
        type(pairs) is not list
        or set(map(type, pairs)) - {list}
        or set(map(len, pairs)) - {2}
        or set(map(type, chain.from_iterable(pairs))) - {str}
    ):
        raise ValueError("a support must be a JSON array of [lo, hi] arrays of strings")
    values = list(map(parse_rational, chain.from_iterable(pairs)))
    return FractionSet.from_pairs(zip(values[::2], values[1::2]))


def open_span(delta: Fraction, level: int, p: int) -> tuple[Fraction, Fraction]:
    """The p-th open interval of the level's cover, by the definition: length
    (1-delta)/2^level, centered at p times half that length."""
    length = (1 - delta) / 2**level
    center = p * length / 2
    return (center - length / 2, center + length / 2)


def chord_slope(body, a: Fraction, b: Fraction) -> Fraction:
    """Slope of the chord of a body's parabola over a and b, as the
    difference quotient of ``parabola``; the tangent's slope when a == b."""
    if a == b:
        return body.q + 2 * body.eps * a
    return (body.parabola(b) - body.parabola(a)) / (b - a)


def fraction_plane_meet(line: Line3, q: Fraction, eps: Fraction) -> tuple[Fraction, Fraction] | None:
    """The plane meet in ``Fraction`` arithmetic: s = (q - y0 + eps*x0) /
    (dy - eps*dx), then the chart point (x0 + s*dx, z0 + s*dz); None when
    the line runs parallel to the plane or lies in it."""
    (dx, dy, dz), b = line.dir, line.base
    den = dy - eps * dx
    if den == 0:
        return None
    s = (q - b.y + eps * b.x) / den
    return b.x + s * dx, b.z + s * dz


def fraction_geometric_miss(line: Line3, body: ConvexBody) -> Certificate | None:
    """The plane meet's certificate as ``refutation._geometric_miss``
    decided it in ``Fraction``s before its integer form: the chart point of
    ``fraction_plane_meet``, each hull side one ``Fraction`` comparison, in
    the order range, top chord, lower envelope, and the envelope's ends
    from ``FractionSet``.  A line parallel to the plane is certified by the
    package's ``_parallel_miss``, which has no integer form; its in-plane
    half is checked against sympy in ``tests/test_refutation.py``."""
    meet = fraction_plane_meet(line, body.q, body.eps)
    if meet is None:
        return _parallel_miss(line, body)
    u, w = meet
    if u < body.r_min:
        return Certificate("point-below-range", u, "<", body.r_min)
    if u > body.r_max:
        return Certificate("point-above-range", u, ">", body.r_max)
    top = body.top_chord(u)
    if w > top:
        return Certificate("point-above-top-chord", w, ">", top)
    low = lower_envelope(body, u)
    if w < low:
        return Certificate("point-below-envelope", w, "<", low)
    return None


def lower_envelope(body: ConvexBody, u: Fraction) -> Fraction:
    """The hull's lower boundary over u in the body's range: the parabola
    where the support holds u, else the chord over the gap around u, whose
    ends ``FractionSet`` finds by a scan of the pieces."""
    support = FractionSet(body.support.points)
    return body.chord(*((u, u) if support.contains(u) else support.gap_around(u)), u)


def over_y_by_fractions(line: Line3):
    """``Line3.over_y`` by ``Fraction`` arithmetic: x and z as functions of
    y, the height's three coefficients formed from them, and each tuple
    entry the numerator over their least common denominator."""
    dx, dy, dz = (Fraction(d) for d in line.dir)
    if dy == 0:
        return None
    slope_x, slope_z = dx / dy, dz / dy
    x0 = line.base.x - line.base.y * slope_x
    z0 = line.base.z - line.base.y * slope_z
    coeffs = (-slope_x, slope_z - x0, z0)
    den = lcm(*(c.denominator for c in coeffs))
    return (*(c.numerator * (den // c.denominator) for c in coeffs), den)


def base_rationals() -> Iterator[Fraction]:
    """0, 1, then each p/q of (0,1) in lowest terms, by q, then p; p/q is in
    lowest terms when ``Fraction`` keeps its denominator q."""
    yield Fraction(0)
    yield Fraction(1)
    for q in count(2):
        for p in range(1, q):
            if Fraction(p, q).denominator == q:
                yield Fraction(p, q)


def _fraction_approach(r: Fraction) -> Iterator[Fraction]:
    for j in count(2):
        for cand in (r + Fraction(1, 2**j), r - Fraction(1, 2**j)):
            if 0 <= cand <= 1:
                yield cand


def fraction_schedule() -> Iterator[tuple[int, int, Fraction]]:
    """(f, m, q) of every emission, by ``Fraction`` arithmetic: round k
    visits approaches 1, ..., k, and approach m takes the first candidate
    r_m + 2^-j, then r_m - 2^-j, for j = 2, 3, ..., that lies in [0,1] and
    is not in the registry of emitted ``Fraction``s."""
    bases = base_rationals()
    approaches: list[Iterator[Fraction]] = []
    emitted: set[Fraction] = set()
    for k in count(1):
        approaches.append(_fraction_approach(next(bases)))
        for m in range(1, k + 1):
            q = next(c for c in approaches[m - 1] if c not in emitted)
            emitted.add(q)
            yield len(emitted), m, q


def greedy_coverable(cursor, low: int, floor: int, slots: int) -> bool:
    """``_LevelCursor._coverable`` by walking the greedy chain over the
    cursor's ``cands`` and ``reach``: the lowest uncovered point takes its
    rightmost candidate, which covers every point below its right end, until
    no point is left, or a point has no candidate >= floor, or no slot is."""
    while low < len(cursor.cands):
        options = cursor.cands[low]
        if not options or options[-1] < floor or slots == 0:
            return False
        slots -= 1
        low = cursor.reach[options[-1]]
    return True


def sorted_pairs(points) -> list[tuple[int, int]]:
    """Rationals in increasing order, sorted as ``Fraction``s, as the
    reduced (numerator, denominator) pairs ``_LevelCursor`` takes."""
    return [x.as_integer_ratio() for x in sorted(map(Fraction, points))]


def covering_cursor_tables(cover: CoverSpec, target: Fraction, excluded) -> tuple[list, ...]:
    """``allowed``, ``cands``, ``reach`` and ``need`` of a ``_LevelCursor``,
    with the intervals over each point found by brute force over the cover in
    ``Fraction`` arithmetic: interval p holds x when |x - p*step| < step, the
    open interval (p-1, p+1) in units of step.  ``excluded`` is a sorted list
    of ``Fraction``s."""
    size = cover.picks_per_set

    def holding(x: Fraction) -> list[int]:
        return [p for p in range(cover.size) if abs(x - p * cover.step) < cover.step]

    forbidden = set(holding(target))
    allowed = [p for p in range(cover.size) if p not in forbidden]
    cands = [[p for p in holding(e) if p not in forbidden] for e in excluded]
    reach = [0] * cover.size
    for i, ps in enumerate(cands):
        for p in ps:
            reach[p] = i + 1
    need = [0] * (len(excluded) + 1)
    for i in reversed(range(len(excluded))):
        ps = cands[i]
        need[i] = need[reach[ps[-1]]] + 1 if ps else size + 1
    return allowed, cands, reach, need


def stored_decisions(delta: Fraction, m: int) -> Iterator[tuple[CoverSpec, tuple[int, ...], bool]]:
    """Each valid multiset of approach m with its cover, level by level, and
    whether it is the first to give its support, as ``SupportAssigner``
    decided it when it stored every support it had yielded: each multiset
    of the package's ``_LevelCursor`` is cut by ``remove_intervals`` and
    its support looked up among the earlier ones.  It checks the assigner's
    test on the multiset alone, which stores nothing, against that store."""
    target = enumerate_Q0(m)
    excluded = sorted_pairs(map(enumerate_Q0, range(1, m)))
    seen: set[IntervalSet] = set()
    for level in count(1):
        cover = make_cover(delta, level)
        for combo in _LevelCursor(cover, target, excluded).walk():
            support = remove_intervals(cover, combo)
            yield cover, combo, support not in seen
            seen.add(support)


def stored_support_walk(delta: Fraction, m: int) -> Iterator[IntervalSet]:
    """The supports of approach m that ``stored_decisions`` keeps, in order."""
    for cover, combo, first in stored_decisions(delta, m):
        if first:
            yield remove_intervals(cover, combo)


def stated_tilt_fault(text, f: int) -> str | None:
    """The message ``body_from_record`` gives for a record stating tilt
    ``text`` at index f, or None if it states the tilt 2^-(2f+4): the
    text is read as a ``Fraction``, which must then be 1 over a power of two
    of that exponent.  Whatever its digits, it costs a quadratic parse."""
    try:
        eps = parse_rational(text)
    except ValueError as exc:
        return f"malformed body record: {exc}"
    den = eps.denominator
    if f < 1 or eps.numerator != 1 or den & (den - 1) or den.bit_length() - 1 != tilt_exponent(f):
        return f"tilt mismatch in body record: stated {format_rational(eps)} for f = {f}"
    return None


def pieces(s) -> list[tuple[Fraction, Fraction]]:
    """The closed pieces of an ``IntervalSet`` or a ``FractionSet`` as
    (lo, hi) pairs, in order."""
    return list(zip(s.points[::2], s.points[1::2]))


@dataclass(frozen=True)
class FractionSet:
    """The reference for ``IntervalSet``: the endpoints as one tuple of
    ``Fraction``s, and each operation a scan of the pieces by plain
    ``Fraction`` arithmetic and comparison."""

    points: tuple[Fraction, ...]

    @staticmethod
    def from_pairs(pairs) -> FractionSet:
        """The documented reading of (lo, hi) pieces.  A support whose
        endpoint count times the bits of their least common denominator
        exceeds both 4 times the endpoints' own bits and 2^16 is refused
        first; then each piece must have lo <= hi and start above the
        previous piece's end."""
        pairs = list(pairs)
        flat = [x for pair in pairs for x in pair]
        own = sum(x.numerator.bit_length() + x.denominator.bit_length() for x in flat)
        limit = max(4 * own, 2**16)
        if len(flat) * lcm(*(x.denominator for x in flat)).bit_length() > limit:
            raise ValueError(
                f"support of {len(flat)} endpoints of {own} bits does not "
                f"lift to one denominator within {limit} bits"
            )
        points: list[Fraction] = []
        for lo, hi in pairs:
            if hi < lo:
                raise ValueError(
                    "interval endpoints out of order: "
                    f"[{format_rational(lo)}, {format_rational(hi)}]"
                )
            if points and lo <= points[-1]:
                raise ValueError(
                    f"interval [{format_rational(lo)}, {format_rational(hi)}] does not "
                    f"start above the previous one's end {format_rational(points[-1])}"
                )
            points += (lo, hi)
        return FractionSet(tuple(points))

    def contains(self, x: Fraction) -> bool:
        return any(lo <= x <= hi for lo, hi in pieces(self))

    def gap_around(self, x: Fraction) -> tuple[Fraction, Fraction]:
        """(hi_j, lo_{j+1}) of the gap strictly containing x."""
        for (_, a), (b, _) in zip(pieces(self), pieces(self)[1:]):
            if a < x < b:
                return (a, b)
        raise ValueError(f"{format_rational(x)} is not interior to a gap")

    def subtract_open(self, lo: Fraction, hi: Fraction) -> FractionSet:
        """Remove (lo, hi) by testing every piece against the cut."""
        if hi <= lo:
            return self
        out: list[Fraction] = []
        for a, b in pieces(self):
            if hi <= a or lo >= b:
                out += (a, b)
                continue
            if lo >= a:
                out += (a, lo)
            if hi <= b:
                out += (hi, b)
        return FractionSet(tuple(out))

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in pieces(self)), Fraction(0))

    def to_pairs(self) -> list[list[str]]:
        return [[format_rational(lo), format_rational(hi)] for lo, hi in pieces(self)]


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Pairwise intersection by a merge of the two sorted piece lists."""
    out: list[tuple[Fraction, Fraction]] = []
    i = j = 0
    a, b = pieces(a), pieces(b)
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return interval_set(out)


def intersect_many(sets: list[IntervalSet]) -> IntervalSet:
    if not sets:
        raise ValueError("intersect_many requires at least one set")
    acc = sets[0]
    for s in sets[1:]:
        acc = intersect(acc, s)
    return acc


@dataclass(frozen=True)
class DepthCell:
    """One cell of a depth profile; lo == hi denotes a single point."""

    lo: Fraction
    hi: Fraction
    closed_lo: bool
    closed_hi: bool
    depth: int

    def length(self) -> Fraction:
        return self.hi - self.lo


def depth_profile(sets: list[IntervalSet]) -> list[DepthCell]:
    """Cells of [0,1] labeled with how many sets contain them, merged.

    The endpoints of all sets cut [0,1] into single points and open gaps;
    each point's depth is counted directly and each gap's at its midpoint,
    where no endpoint lies.  Adjacent cells of equal depth are merged, so
    consecutive output cells differ in depth.  An empty family yields the
    single cell [0,1] at depth 0.
    """
    values = {Fraction(0), Fraction(1)}
    for s in sets:
        values.update(s.points)
    ordered = sorted(values)

    def depth(x: Fraction) -> int:
        return sum(1 for s in sets if s.contains(x))

    fine = []
    for v, after in zip(ordered, ordered[1:] + [None]):
        fine.append((v, v, depth(v)))
        if after is not None:
            fine.append((v, after, depth((v + after) / 2)))
    cells: list[DepthCell] = []
    for lo, hi, d in fine:
        point = lo == hi
        if cells and cells[-1].depth == d:
            prev = cells[-1]
            cells[-1] = DepthCell(prev.lo, hi, prev.closed_lo, point, d)
        else:
            cells.append(DepthCell(lo, hi, point, point, d))
    return cells


def expected_certificate(line_record: dict, witness_record: dict):
    """The certificate a refute report should state for a pool line that
    misses the report's witness body, as (case, lhs, rel, rhs) with rational
    sides; None when the line pierces the body.

    Both records are read as strings: the line as the pool file gives it,
    the witness as the report does.  The line's class is whether three of
    its points lie on z = x*y, and its meet with the plane y = q + eps*x is
    solved for the line parameter.  Envelope and top-chord values are
    interpolated between the surface points over the ends of a gap or of
    the range, and a y-ruling's slab is q + eps*u at the range ends.  An
    in-plane line's envelope slack is the least over the support pieces of
    the convex gap between parabola and line, at the parabola-minus-line
    vertex clamped into each piece.
    """
    x0, y0, z0 = (Fraction(v) for v in line_record["base"])
    dx, dy, dz = (Fraction(v) for v in line_record["dir"])
    q, eps = Fraction(witness_record["q"]), Fraction(witness_record["eps"])
    support = [(Fraction(lo), Fraction(hi)) for lo, hi in witness_record["support"]]
    r_min, r_max = support[0][0], support[-1][1]

    def surface_w(u: Fraction) -> Fraction:
        """z of the plane's surface point over x = u."""
        return u * (q + eps * u)

    def in_support(u: Fraction) -> bool:
        return any(lo <= u <= hi for lo, hi in support)

    def chord(a: Fraction, b: Fraction, u: Fraction) -> Fraction:
        """The chord between the surface points over a and b, at u."""
        if a == b:
            return surface_w(a)
        return surface_w(a) + (surface_w(b) - surface_w(a)) * (u - a) / (b - a)

    def envelope(u: Fraction) -> Fraction:
        """The hull's lower boundary over u in [r_min, r_max]."""
        if in_support(u):
            return surface_w(u)
        a = max(hi for _, hi in support if hi < u)
        b = min(lo for lo, _ in support if lo > u)
        return chord(a, b, u)

    on_surface = all(z0 + s * dz == (x0 + s * dx) * (y0 + s * dy) for s in (0, 1, 2))
    if on_surface and dx == 0:  # the x-ruling x = x0 meets the plane over u = x0
        u = x0
        if u < r_min:
            return "support-below-range", u, "<", r_min
        if u > r_max:
            return "support-above-range", u, ">", r_max
        return None if in_support(u) else ("support-gap", surface_w(u), "<", envelope(u))
    if on_surface:  # the y-ruling y = y0: dy == 0 for a line on the surface
        y_lo, y_hi = q + eps * r_min, q + eps * r_max
        if y0 < y_lo:
            return "plane-slab-below", y0, "<", y_lo
        if y0 > y_hi:
            return "plane-slab-above", y0, ">", y_hi
        u = (y0 - q) / eps
        return None if in_support(u) else ("slab-gap", surface_w(u), "<", envelope(u))

    # y0 + s*dy = q + eps*(x0 + s*dx), solved for s
    slope, offset = dy - eps * dx, q + eps * x0 - y0
    if slope:
        s = offset / slope
        u, w = x0 + s * dx, z0 + s * dz
        if u < r_min:
            return "point-below-range", u, "<", r_min
        if u > r_max:
            return "point-above-range", u, ">", r_max
        if w > chord(r_min, r_max, u):
            return "point-above-top-chord", w, ">", chord(r_min, r_max, u)
        if w < envelope(u):
            return "point-below-envelope", w, "<", envelope(u)
        return None
    if offset:
        return "plane-parallel", -offset, "!=", Fraction(0)

    # the line lies in the plane
    if dx == 0:
        if x0 < r_min:
            return "inplane-below-range", x0, "<", r_min
        if x0 > r_max:
            return "inplane-above-range", x0, ">", r_max
        return None

    def line_w(u: Fraction) -> Fraction:
        return z0 + (u - x0) * dz / dx

    top_slack = min(line_w(r) - surface_w(r) for r in (r_min, r_max))
    if top_slack > 0:
        return "inplane-above-top-chord", top_slack, ">", Fraction(0)
    vertex = (dz / dx - q) / (2 * eps)
    env_slack = min(
        surface_w(u) - line_w(u) for u in (min(max(vertex, lo), hi) for lo, hi in support)
    )
    if env_slack > 0:
        return "inplane-below-envelope", env_slack, ">", Fraction(0)
    return None
