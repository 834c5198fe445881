"""Exact piercing predicates, line covers, and the transversal refuter.

A line pierces a body iff it meets the body's plane inside the chart hull.
Each line class has one exact miss decision, which returns the failed
inequality as a certificate, or None when the line pierces.  Every integer
test here reads the body's plane as the ints ``ConvexBody.qn``, ``.qd``
and ``.k``, q = qn/qd, and clears the tilt eps = 2^-k by a shift of k
bits, the one exponent ``family.tilt_exponent`` defines:

- a line crossing the plane misses iff its chart point, ints over one
  denominator, lies outside the hull; ``_hull_miss`` names the failed side
  by one comparison of integers, a chord's side signed by ``_chord_side``,
  so ``pierce`` builds no ``Fraction`` for such a line, and a certificate
  builds its ``Fraction`` values only on a miss;
- a line parallel to the plane has no chart point; the residual
  y0 - q - eps*x0 of its base tells a line off the plane, which misses
  and whose certificate states that residual, from a line inside it;
- a line inside the plane misses iff it is above the top chord at both ends
  of the range or below the convex lower envelope on the whole range; each
  minimum lies at an endpoint or at a rational parabola vertex, so no
  radicals arise;
- a ruling meets the plane on the parabola, at chart abscissa ``c``
  (x-ruling) or ``(b - q)/eps`` (y-ruling), so it fails only the range or
  a gap's chord, and its certificate is that case in its own terms; the
  scan's support rule says it pierces iff that abscissa is in the support.

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

from fractions import Fraction
from itertools import islice

from .exactnum import Record, format_rational
from .family import ConvexBody, FamilyStream, body_to_record
from .geometry import (
    GENERIC,
    X_RULING,
    Y_RULING,
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
    body's plane, for every line class alike and in ints for a line crossing
    it, after the sound filter ``_surely_misses`` has had the chance to
    answer "miss" in small integers; certificates come from the plane meet.
    It reads the body's plane as ints and builds no ``Fraction``, on a
    body's first call too, unless the line is parallel to the plane."""
    if _surely_misses(line, body):
        return False
    hit = line_plane_intersection(line, body.qn, body.qd, body.k)
    if hit is None:
        return _parallel_miss(line, body) is None
    return _hull_miss(*hit, body) is None


def _surely_misses(line: Line3, body: ConvexBody) -> bool:
    """A sound filter: True only if the line misses the body; False decides
    nothing.

    Lemma.  Every body lies in the box q <= y <= q + eps,
    0 <= z - x*y <= eps/4: the hull lies on or above the parabola w = u*y
    because the chords bridge a convex arc, and the top chord is at most
    ``max_vertical_distance`` <= eps/4 above it.  Parametrise a line with
    dy != 0 by y.  Its height over the surface is
    g(y) = z(y) - x(y)*y = A*y^2 + B*y + C, and for y = q + t, 0 <= t <= eps,
    g(y) - g(q) = t*(2*A*q + B + A*t), so |g(y) - g(q)| <= eps*M with
    M = |2*A*q + B| + 2*|A|/64, as eps <= 1/64.  So the line misses the
    body when g(q) > eps*(M + 1/4) or g(q) < -eps*M.

    With q = n/d and eps = 2^-k, k = ``body.k``, the test below is these
    inequalities multiplied through by 32*den*d^2*2^k, so it is a
    small-integer polynomial, one shift and two comparisons.  Lines with
    dy == 0 are left to the plane meet.
    """
    form = line.over_y
    if form is None:
        return False
    a, b, c, den = form
    n, d = body.qn, body.qd
    height = ((a * n + b * d) * n + c * d * d) << (body.k + 5)
    spread = 32 * d * abs(2 * a * n + b * d) + abs(a) * d * d
    return height > spread + 8 * den * d * d or height < -spread


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


class CoverSolution(Record):
    __slots__ = _fields = ("columns", "exact", "lower_bound")

    def __init__(self, columns: tuple[int, ...], exact: bool, lower_bound: int) -> None:
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "lower_bound", lower_bound)


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


class Certificate(Record):
    """One exact inequality witnessing that a line misses a body."""

    __slots__ = _fields = ("case", "lhs", "rel", "rhs")

    def __init__(self, case: str, lhs: Fraction, rel: str, rhs: Fraction) -> None:
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rel", rel)  # "<" | ">" | "!="
        object.__setattr__(self, "rhs", rhs)

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


def non_piercing_certificate(line: Line3, body: ConvexBody) -> Certificate | None:
    """Certificate that the line misses the body, or None if it pierces: the
    plane meet's, for every line class, and a ruling's in its own terms."""
    cert = _geometric_miss(line, body)
    if cert is None:
        return None
    cls = classify_line(line)
    if cls.kind == GENERIC:
        return cert
    case = _RULING_CASES[cls.kind, cert.case]
    if case.startswith("plane-slab"):  # b = q + eps*u, eps > 0: u < r iff b < q + eps*r
        return Certificate(case, cls.param, cert.rel, body.q + body.eps * cert.rhs)
    return Certificate(case, cert.lhs, cert.rel, cert.rhs)


# A ruling lies on z = x*y, so it meets the plane on the parabola, at
# (c, parabola(c)) for x = c and at u = (b - q)/eps, w = b*u for y = b:
# the only hull sides it can fail are the range and a gap's chord.
_RULING_CASES = {
    (X_RULING, "point-below-range"): "support-below-range",
    (X_RULING, "point-above-range"): "support-above-range",
    (X_RULING, "point-below-envelope"): "support-gap",
    (Y_RULING, "point-below-range"): "plane-slab-below",
    (Y_RULING, "point-above-range"): "plane-slab-above",
    (Y_RULING, "point-below-envelope"): "slab-gap",
}


def _ruling_pierces(cls: LineClass, body: ConvexBody) -> bool:
    """The support rule: a ruling pierces iff its abscissa is in the support.

    The ruling's constant is b = bn/bd, ``cls.pn``/``cls.pd``.  A y-ruling's
    abscissa (b - q)/eps, with eps = 2^-k, k = ``body.k``, is asked as the
    ratio of (bn*qd - qn*bd) << k to bd*qd, so no ``Fraction`` is built.  It
    is the scan's decision; the plane meet, its deliberate cross-check,
    decides ``pierce`` and states every certificate, so a miss here that the
    hull calls pierced fails at the witness even without ``--verify``.
    """
    bn, bd = cls.pn, cls.pd
    if cls.kind == X_RULING:
        return body.support.contains(bn, bd)
    offset = bn * body.qd - body.qn * bd
    return body.support.contains(offset << body.k, bd * body.qd)


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


def _geometric_miss(line: Line3, body: ConvexBody) -> Certificate | None:
    """The plane meet's certificate, or None: ``_hull_miss``'s case in ``Fraction``s."""
    hit = line_plane_intersection(line, body.qn, body.qd, body.k)
    if hit is None:
        return _parallel_miss(line, body)
    failed = _hull_miss(*hit, body)
    if failed is None:
        return None
    (case, gap), (un, wn, ud) = failed, hit
    u, w = Fraction(un, ud), Fraction(wn, ud)
    if case == "point-above-top-chord":
        return Certificate(case, w, ">", body.top_chord(u))
    if case == "point-below-envelope":
        ends = [Fraction(end, body.support.den) for end in gap] if gap else (u, u)
        return Certificate(case, w, "<", body.chord(*ends, u))
    return _range_miss("point", u, body)


def _hull_miss(un: int, wn: int, ud: int, body: ConvexBody) -> tuple[str, tuple | None] | None:
    """The hull side the chart point (un/ud, wn/ud), ud > 0, fails, and the gap's
    ends, ints over den, when below its chord; or None.  Over the support the envelope
    is the parabola: ud^2*qd*2^k*(w - q*u - eps*u^2) = (wn*qd - qn*un)*ud*2^k - qd*un^2."""
    support = body.support
    den, ends = support.den, support.ends
    if un * den < ends[0] * ud:
        return "point-below-range", None
    if un * den > ends[-1] * ud:
        return "point-above-range", None
    if _chord_side(body, un, wn, ud, ends[0], ends[-1]) > 0:
        return "point-above-top-chord", None
    if support.contains(un, ud):
        qn, qd = body.qn, body.qd
        below = ((wn * qd - qn * un) * ud) << body.k < un * un * qd
        return ("point-below-envelope", None) if below else None
    gap = support.gap_ends(un, ud)
    if _chord_side(body, un, wn, ud, *gap) < 0:
        return "point-below-envelope", gap
    return None


def _chord_side(body: ConvexBody, un: int, wn: int, ud: int, s: int, t: int) -> int:
    """Sign of w - ``body.chord(s/den, t/den, u)`` at the chart point
    (un/ud, wn/ud), den = ``body.support.den``: its height over the chord
    (q + eps*(s + t)/den)*u - eps*s*t/den^2 of the parabola.  Times
    ud*qd*den^2*2^k, with eps = 2^-k, the difference is the integer
    (wn*qd - qn*un)*den^2*2^k - ((s + t)*den*un - s*t*ud)*qd."""
    qn, qd, den = body.qn, body.qd, body.support.den
    above = ((wn * qd - qn * un) * den * den) << body.k
    chord = ((s + t) * den * un - s * t * ud) * qd
    return (above > chord) - (above < chord)


def _parallel_miss(line: Line3, body: ConvexBody) -> Certificate | None:
    """A line parallel to the plane: off it by the base's residual, or in it."""
    residual = line.base.y - body.q - body.eps * line.base.x
    if residual:
        return Certificate("plane-parallel", residual, "!=", Fraction(0))
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


class LineInfo(Record):
    __slots__ = _fields = ("cls", "meet")

    def __init__(self, cls: LineClass, meet: SurfaceIntersection) -> None:
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "meet", meet)

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


class RefutationOutcome(Record):
    """The first body every pool line misses, with one certificate per line
    in line order, or no witness when the budget of ``n_max`` bodies ran
    out.  The stream yields emission f as its f-th item, so the witness's
    ``f_index`` is also the number of bodies checked."""

    __slots__ = _fields = ("witness", "n_max", "line_infos", "certificates")

    def __init__(self, witness: ConvexBody | None, n_max: int,
                 line_infos: tuple[LineInfo, ...], certificates: tuple[Certificate, ...]) -> None:
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "line_infos", line_infos)
        object.__setattr__(self, "certificates", certificates)

    @property
    def found(self) -> bool:
        return self.witness is not None

    @property
    def checked(self) -> int:
        return self.n_max if self.witness is None else self.witness.f_index

    def to_record(self) -> dict:
        if self.witness is None:
            return {"found": False, "checked": self.checked, "n_max": self.n_max}
        return {
            "found": True,
            "witness": body_to_record(self.witness),
            "emission_index": self.witness.f_index,
            "checked": self.checked,
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
        certs = tuple(non_piercing_certificate(line, body) for line in lines)
        if not all(cert is not None and cert.holds() for cert in certs):
            raise InternalError(f"certificate check failed at emission {body.f_index}")
        return RefutationOutcome(body, n_max, infos, certs)
    return RefutationOutcome(None, n_max, infos, ())
