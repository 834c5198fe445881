"""Exact piercing predicates, line covers, and the transversal refuter.

A line pierces a body iff it meets the body's plane inside the chart hull.
Each line class has one exact miss decision, which returns the failed
inequality as a certificate, or None when the line pierces.  Every integer
test here clears the tilt eps = 2^-k by a shift of k = ``ConvexBody.k``
bits, the one exponent ``family.tilt_exponent`` defines:

- a line crossing the plane misses iff its chart point lies outside the
  hull; each hull side is the sign of the point's height over a chord of
  the parabola (``ConvexBody.chord``, signed by ``_chord_side``), one
  comparison of integers, and the certificate's ``Fraction`` values are
  built only on a miss;
- a line parallel to the plane has no chart point; the residual
  y0 - q - eps*x0 of its base tells a line off the plane, which misses
  and whose certificate states that residual, from a line inside it;
- a line inside the plane misses iff it is above the top chord at both ends
  of the range or below the convex lower envelope on the whole range; each
  minimum lies at an endpoint or at a rational parabola vertex, so no
  radicals arise;
- a ruling meets the plane on the parabola, at chart abscissa ``c``
  (x-ruling) or ``(b - q)/eps`` (y-ruling), and pierces iff that abscissa
  lies in the support.

``pierce`` applies the first two decisions to any line; for rulings it is
the independent geometric cross-check of the support rule.  Ahead of them
it runs a sound filter, the paper's own argument in small integers: a line
off the surface meets z = x*y in at most two points, every body lies within
eps/4 above the surface in a slab of y-width eps, so most lines miss a
thin body by more than the slab allows.  The filter only ever answers
"miss"; anything else falls through to the plane meet, and certificates
come from the plane meet alone.  ``refute`` and ``piercing_matrix``
classify each line once and decide rulings by the support rule.  The
refuter reads the family stream once, forward, to the first body missed by
every line of a finite pool and emits one re-verifiable certificate per
line; it skips, unbuilt, every body that a pool x-ruling pierces by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .exactnum import format_rational
from .family import ConvexBody, FamilyStream, body_to_record
from .geometry import (
    GENERIC,
    X_RULING,
    Line3,
    LineClass,
    SurfaceIntersection,
    classify_line,
    line_plane_intersection,
    line_surface_intersection,
)


def max_vertical_distance(body: ConvexBody) -> Fraction:
    """Exact maximum of z - x*y over the body: eps*(span)^2 / 4.

    On the plane the offset from the surface at chart point (u, w) is
    w - (q*u + eps*u^2), maximized with w on the top chord at the chord
    midpoint. Never exceeds eps since the span is at most 1.
    """
    span = body.r_max - body.r_min
    return body.eps * span * span / 4


def pierce(line: Line3, body: ConvexBody) -> bool:
    """Does the line meet the body?  Decided by where the line meets the
    body's plane, for every line class alike, after ``_surely_misses`` has
    had the chance to answer "miss" in small integers.  The filter is sound,
    so the answer is the plane meet's; certificates come from the plane meet
    alone."""
    if _surely_misses(line, body):
        return False
    return _geometric_miss(line, body) is None


def _surely_misses(line: Line3, body: ConvexBody) -> bool:
    """A sound filter: True only if the line misses the body; False decides
    nothing.

    Lemma.  Every body lies in the box 0 <= x <= 1, q <= y <= q + eps,
    0 <= z - x*y <= eps/4: its support lies in [0, 1], the hull lies on or
    above the parabola w = u*y because the chords bridge a convex arc, and
    the top chord is at most ``max_vertical_distance`` <= eps/4 above it.
    Parametrise a line with dy != 0 by y.  Its height over the surface is
    g(y) = z(y) - x(y)*y = A*y^2 + B*y + C, and for y = q + t, 0 <= t <= eps,
    g(y) - g(q) = t*(2*A*q + B + A*t), so |g(y) - g(q)| <= eps*M with
    M = |2*A*q + B| + 2*|A|/64, as eps <= 1/64.  So the line misses the
    body when g(q) > eps*(M + 1/4) or g(q) < -eps*M, and when x(q) lies
    outside [0, 1] by more than eps*|dx/dy|.

    With q = n/d and eps = 2^-k, k = ``body.k``, the tests below are these
    inequalities multiplied through by 32*den*d^2*2^k (height) and by
    den*d*2^k (x), so each is a small-integer polynomial, one shift and one
    comparison.  Lines with dy == 0 are left to the plane meet.
    """
    form = line.over_y
    if form is None:
        return False
    a, b, c, x1, x0, den = form
    n, d, k = body.q.numerator, body.q.denominator, body.k
    height = ((a * n + b * d) * n + c * d * d) << (k + 5)
    spread = 32 * d * abs(2 * a * n + b * d) + abs(a) * d * d
    if height > spread + 8 * den * d * d or height < -spread:
        return True
    x, widen = x1 * n + x0 * d, abs(x1) * d
    return (x << k) < -widen or ((x - den * d) << k) > widen


def piercing_matrix(
    bodies: list[ConvexBody], lines: list[Line3]
) -> tuple[tuple[bool, ...], ...]:
    """Row = body (family order), column = line (input order).  Each line is
    classified once and decided by ``_pierces``."""
    classed = [(line, classify_line(line)) for line in lines]
    return tuple(
        tuple(_pierces(line, cls, body) for line, cls in classed) for body in bodies
    )


class InternalError(Exception):
    """Two exact decision paths disagreed, or a re-check of a written
    artifact failed: a defect of this package, which no input file can cause."""


class UncoverableError(Exception):
    """Some bodies are pierced by no candidate line; they refute the pool."""

    def __init__(self, rows: tuple[int, ...]):
        super().__init__(f"rows not pierced by any candidate line: {list(rows)}")
        self.rows = rows


@dataclass(frozen=True)
class CoverSolution:
    columns: tuple[int, ...]
    exact: bool
    lower_bound: int


EXACT_COVER_LIMIT = 25


def min_line_cover(matrix: tuple[tuple[bool, ...], ...]) -> CoverSolution:
    """Minimum set of columns covering every row, in ascending order.

    Exact branch and bound up to EXACT_COVER_LIMIT columns (branching on the
    lowest uncovered row, candidate columns in ascending order, first
    optimum kept); greedy with a reported lower bound beyond that.
    """
    uncoverable = tuple(r for r, row in enumerate(matrix) if not any(row))
    if uncoverable:
        raise UncoverableError(uncoverable)
    if not matrix:
        return CoverSolution((), True, 0)
    cols = len(matrix[0])
    col_masks = [0] * cols
    for r, row in enumerate(matrix):
        for c, hit in enumerate(row):
            if hit:
                col_masks[c] |= 1 << r
    universe = (1 << len(matrix)) - 1

    greedy = _greedy_cover(col_masks, universe)
    if cols > EXACT_COVER_LIMIT:
        return CoverSolution(tuple(sorted(greedy)), False, _disjoint_rows_bound(matrix))

    best = list(greedy)
    max_cover = max(mask.bit_count() for mask in col_masks)

    def dfs(covered: int, chosen: list[int]) -> None:
        nonlocal best
        if covered == universe:
            if len(chosen) < len(best):
                best = chosen.copy()
            return
        missing = (universe & ~covered).bit_count()
        bound = -(-missing // max_cover)
        if len(chosen) + bound >= len(best):
            return
        first = (universe & ~covered)
        row = (first & -first).bit_length() - 1
        for c in range(cols):
            if col_masks[c] >> row & 1:
                chosen.append(c)
                dfs(covered | col_masks[c], chosen)
                chosen.pop()

    dfs(0, [])
    return CoverSolution(tuple(sorted(best)), True, len(best))


def _greedy_cover(col_masks: list[int], universe: int) -> list[int]:
    chosen: list[int] = []
    covered = 0
    while covered != universe:
        gain, pick = 0, -1
        for c, mask in enumerate(col_masks):
            g = (mask & ~covered).bit_count()
            if g > gain:
                gain, pick = g, c
        chosen.append(pick)
        covered |= col_masks[pick]
    return chosen


def _disjoint_rows_bound(matrix: tuple[tuple[bool, ...], ...]) -> int:
    """Rows with pairwise disjoint column sets each need their own line."""
    used: set[int] = set()
    count = 0
    for row in matrix:
        cols = {c for c, hit in enumerate(row) if hit}
        if not (cols & used):
            used |= cols
            count += 1
    return count


@dataclass(frozen=True)
class Certificate:
    """One exact inequality witnessing that a line misses a body."""

    case: str
    lhs: Fraction
    rel: str  # "<" | ">" | "!="
    rhs: Fraction

    def holds(self) -> bool:
        if self.rel == "<":
            return self.lhs < self.rhs
        if self.rel == ">":
            return self.lhs > self.rhs
        if self.rel == "!=":
            return self.lhs != self.rhs
        raise ValueError(f"unknown relation {self.rel!r}")

    def to_record(self, line: int) -> dict:
        """The record of the certificate for the pool's ``line``-th line."""
        return {
            "line": line,
            "case": self.case,
            "lhs": format_rational(self.lhs),
            "rel": self.rel,
            "rhs": format_rational(self.rhs),
        }


def non_piercing_certificate(
    line: Line3, body: ConvexBody, cls: LineClass | None = None
) -> Certificate | None:
    """Certificate that the line misses the body, or None if it pierces."""
    cls = cls or classify_line(line)
    if cls.kind == GENERIC:
        return _geometric_miss(line, body)
    return _ruling_miss(cls, body)


def _ruling_pierces(cls: LineClass, body: ConvexBody) -> bool:
    """The support rule: a ruling pierces iff its abscissa is in the support.

    A y-ruling's abscissa (b - q)/eps, with eps = 2^-k, k = ``body.k``, is
    asked as the ratio of (bn*qd - qn*bd) << k to bd*qd, so it is never
    reduced to a ``Fraction``.  ``pierce`` decides rulings by an independent geometric
    path; the verifier and the witness command use it to cross-check this.
    """
    b, q = cls.param, body.q
    if cls.kind == X_RULING:
        return body.support.contains(b)
    offset = b.numerator * q.denominator - q.numerator * b.denominator
    return body.support.contains(offset << body.k, b.denominator * q.denominator)


def _pierces(line: Line3, cls: LineClass, body: ConvexBody) -> bool:
    """The piercing decision of ``refute`` and ``piercing_matrix``: the
    support rule for rulings, ``pierce`` (its filter, then the plane meet)
    for every other line."""
    if cls.kind == GENERIC:
        return pierce(line, body)
    return _ruling_pierces(cls, body)


def _range_miss(prefix: str, u: Fraction, body: ConvexBody) -> Certificate | None:
    """``prefix-below-range`` or ``prefix-above-range`` when the abscissa u
    lies outside the body's range [r_min, r_max]; None inside it."""
    if u < body.r_min:
        return Certificate(f"{prefix}-below-range", u, "<", body.r_min)
    if u > body.r_max:
        return Certificate(f"{prefix}-above-range", u, ">", body.r_max)
    return None


def _ruling_miss(cls: LineClass, body: ConvexBody) -> Certificate | None:
    if _ruling_pierces(cls, body):
        return None
    if cls.kind == X_RULING:
        u, gap = cls.param, "support-gap"
        outside = _range_miss("support", u, body)
        if outside is not None:
            return outside
    else:
        # eps > 0, so u < r_min iff b < y_lo and u > r_max iff b > y_hi
        b = cls.param
        y_lo, y_hi = body.y_range()
        if b < y_lo:
            return Certificate("plane-slab-below", b, "<", y_lo)
        if b > y_hi:
            return Certificate("plane-slab-above", b, ">", y_hi)
        u, gap = (b - body.q) / body.eps, "slab-gap"
    # on-parabola point strictly under the gap chord
    return Certificate(gap, body.parabola(u), "<", body.lower_envelope(u))


def _geometric_miss(line: Line3, body: ConvexBody) -> Certificate | None:
    hit = line_plane_intersection(line, body.q, body.eps)
    if hit is None:
        # parallel to the plane: off it by the base's residual, or in it
        residual = line.base.y - body.q - body.eps * line.base.x
        if residual:
            return Certificate("plane-parallel", residual, "!=", Fraction(0))
        return _in_plane_miss(line, body)
    u, w = hit
    outside = _range_miss("point", u, body)
    if outside is not None:
        return outside
    if _chord_side(body, u, w, body.r_min, body.r_max) > 0:
        return Certificate("point-above-top-chord", w, ">", body.top_chord(u))
    ends = body.envelope_ends(u)
    if _chord_side(body, u, w, *ends) < 0:
        return Certificate("point-below-envelope", w, "<", body.chord(*ends, u))
    return None


def _chord_side(body: ConvexBody, u: Fraction, w: Fraction, s: Fraction, t: Fraction) -> int:
    """Sign of w - ``body.chord(s, t, u)``, the height of (u, w) over the
    chord (q + eps*(s + t))*u - eps*s*t of the body's parabola over s and t.

    The body's eps is 2^-k, k = ``body.k``.  Write each fraction as wn/wd and
    so on, over a positive denominator, and multiply w - chord(u) by the positive
    wd*qd*ud*sd*td*2^k: the sign is that of the integer difference
    (wn*qd*ud - qn*un*wd)*sd*td*2^k minus ((sn*td + tn*sd)*un - sn*tn*ud)*wd*qd,
    so one comparison decides it.
    """
    wn, wd = w.numerator, w.denominator
    qn, qd = body.q.numerator, body.q.denominator
    un, ud = u.numerator, u.denominator
    sn, sd = s.numerator, s.denominator
    tn, td = t.numerator, t.denominator
    above = ((wn * qd * ud - qn * un * wd) * sd * td) << body.k
    chord = ((sn * td + tn * sd) * un - sn * tn * ud) * wd * qd
    return (above > chord) - (above < chord)


def _in_plane_miss(line: Line3, body: ConvexBody) -> Certificate | None:
    dx, _, dz = line.dir
    if dx == 0:
        # the chart line u = x sweeps every w
        return _range_miss("inplane", line.base.x, body)
    # chart image w = alpha + beta*u
    beta = dz / dx
    alpha = line.base.z - line.base.x * beta

    def on_line(u: Fraction) -> Fraction:
        return alpha + beta * u

    # the line misses iff it is above the top chord over the whole range or
    # below the lower envelope over the whole range
    top_slack = min(
        on_line(body.r_min) - body.top_chord(body.r_min),
        on_line(body.r_max) - body.top_chord(body.r_max),
    )
    if top_slack > 0:
        return Certificate("inplane-above-top-chord", top_slack, ">", Fraction(0))
    # envelope minus line is convex and affine across gaps, so its minimum
    # lies at a support endpoint or at the parabola's vertex when the
    # support holds it; the envelope is the parabola at all those points
    vertex = (beta - body.q) / (2 * body.eps)
    points = body.support.points
    if body.support.contains(vertex):
        points += (vertex,)
    env_slack = min(body.parabola(u) - on_line(u) for u in points)
    if env_slack > 0:
        return Certificate("inplane-below-envelope", env_slack, ">", Fraction(0))
    return None


@dataclass(frozen=True)
class LineInfo:
    cls: LineClass
    meet: SurfaceIntersection

    def to_record(self, index: int) -> dict:
        return {
            "index": index,
            "class": self.cls.kind,
            "param": None if self.cls.param is None else format_rational(self.cls.param),
            "on_surface": self.meet.on_surface,
            "surface_points": [
                {"x": str(p.x), "y": str(p.y), "z": str(p.z)} for p in self.meet.points
            ],
        }


@dataclass(frozen=True)
class RefutationOutcome:
    """The first body every pool line misses, with one certificate per line
    in line order, or no witness when the budget of ``n_max`` bodies ran
    out.  The stream yields emission f as its f-th item, so the witness's
    ``f_index`` is also the number of bodies checked."""

    witness: ConvexBody | None
    n_max: int
    line_infos: tuple[LineInfo, ...]
    certificates: tuple[Certificate, ...]

    @property
    def found(self) -> bool:
        return self.witness is not None

    @property
    def checked(self) -> int:
        return self.n_max if self.witness is None else self.witness.f_index

    def to_record(self) -> dict:
        if self.witness is None:
            return {"found": False, "checked": self.n_max, "n_max": self.n_max}
        return {
            "found": True,
            "witness": body_to_record(self.witness),
            "emission_index": self.witness.f_index,
            "checked": self.witness.f_index,
            "lines": [info.to_record(i) for i, info in enumerate(self.line_infos)],
            "certificates": [
                cert.to_record(i) for i, cert in enumerate(self.certificates)
            ],
        }


def refute(lines: list[Line3], stream: FamilyStream, n_max: int) -> RefutationOutcome:
    """First family member missed by every line in the pool.

    The scan reads the unread ``stream`` once, forward, through at most
    ``n_max`` emissions.  A body holds the base rational r_m its approach
    sequence m targets, so the pool's x-ruling x = r_m, if there is one,
    pierces it by the support rule: the scan skips that approach in the
    stream and builds no support for its bodies.  Of every other body,
    rulings are decided by the support rule and the other lines by
    ``pierce``.  The first body every line misses is reported with one
    certificate per line; a certificate that does not hold raises
    ``InternalError``.  Exhaustion only signals that the search budget ran
    out.
    """
    if n_max < 1:
        raise ValueError(f"search budget must be positive, got {n_max}")
    infos = tuple(
        LineInfo(classify_line(line), line_surface_intersection(line)) for line in lines
    )
    # rulings first: the support rule is the cheaper decision
    classed = sorted(
        ((line, info.cls) for line, info in zip(lines, infos)),
        key=lambda pair: pair[1].kind == GENERIC,
    )
    x_rulings = {info.cls.param for info in infos if info.cls.kind == X_RULING}

    for body in islice(stream.bodies(skip=x_rulings), n_max):
        if body is None or any(_pierces(line, cls, body) for line, cls in classed):
            continue  # None: pierced by construction
        certs = tuple(
            non_piercing_certificate(line, body, info.cls)
            for line, info in zip(lines, infos)
        )
        if not all(cert is not None and cert.holds() for cert in certs):
            raise InternalError(f"certificate check failed at emission {body.f_index}")
        return RefutationOutcome(body, n_max, infos, certs)
    return RefutationOutcome(None, n_max, infos, ())
