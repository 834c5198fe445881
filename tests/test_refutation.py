import random
import sys
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations, islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linepierce.family import (
    ConvexBody,
    FamilyStream,
    SupportAssigner,
    body_to_record,
    enumerate_Q0,
)
from linepierce.geometry import (
    GENERIC,
    X_RULING,
    Y_RULING,
    Line3,
    Point3,
    classify_line,
    line_plane_intersection,
    line_to_record,
    ruling_line_x,
    ruling_line_y,
)
from linepierce.intervals import IntervalSet
from linepierce.refutation import (
    CoverSolution,
    UncoverableError,
    _chord_side,
    _geometric_miss,
    _ruling_pierces,
    _surely_misses,
    max_vertical_distance,
    min_line_cover,
    non_piercing_certificate,
    pierce,
    piercing_matrix,
    refute,
)
from oracles import chord_slope, expected_certificate, interval_set, pieces, vertical_distance


def body_with_gap():
    support = interval_set([(F(0), F(1, 4)), (F(3, 4), F(1))])
    return ConvexBody(q=F(1, 2), f_index=1, support=support)


class TestPierce:
    def test_ruling_in_support_pierces(self):
        body = body_with_gap()
        line = ruling_line_x(F(1, 8))
        assert pierce(line, body)
        hit = line_plane_intersection(line, body.q, body.eps)
        r = F(1, 8)
        y = body.q + body.eps * r
        p = body.from_chart(*hit)
        assert (p.x, p.y, p.z) == (r, y, r * y)

    def test_ruling_in_gap_misses(self):
        body = body_with_gap()
        assert not pierce(ruling_line_x(F(1, 2)), body)
        # the chart point sits strictly below the gap chord
        assert body.parabola(F(1, 2)) < body.lower_envelope(F(1, 2))

    def test_ruling_out_of_range_misses(self):
        body = body_with_gap()
        assert not pierce(ruling_line_x(F(9, 8)), body)

    def test_support_boundary_pierces(self):
        body = body_with_gap()
        assert pierce(ruling_line_x(F(1, 4)), body)
        assert pierce(ruling_line_x(F(3, 4)), body)

    def test_constant_y_outside_slab_misses(self):
        body = body_with_gap()
        y_lo, y_hi = body.y_range()
        assert not pierce(ruling_line_y(y_lo - F(1, 1000)), body)
        assert not pierce(ruling_line_y(y_hi + F(1, 1000)), body)

    def test_constant_y_inside_slab_over_support(self):
        body = body_with_gap()
        # crossing point lands on the parabola at u = (b - q)/eps
        b = body.q + body.eps * F(1, 8)
        assert pierce(ruling_line_y(b), body)
        b_gap = body.q + body.eps * F(1, 2)
        assert not pierce(ruling_line_y(b_gap), body)

    def test_generic_line_through_interior(self):
        body = body_with_gap()
        u = F(1, 8)
        w = (body.parabola(u) + body.top_chord(u)) / 2
        inside = body.from_chart(u, w)
        line = Line3(inside, (F(1), F(0), F(0)))
        assert pierce(line, body)

    def test_parallel_line_misses(self):
        body = body_with_gap()
        line = Line3(Point3(F(0), F(0), F(0)), (F(1), body.eps, F(0)))
        assert not pierce(line, body)

    def test_in_plane_vertical_line(self):
        body = body_with_gap()
        on_plane = body.from_chart(F(1, 2), F(5))
        line = Line3(on_plane, (F(0), F(0), F(1)))
        assert pierce(line, body)  # vertical chart line crosses the gap slab
        off_range = body.from_chart(F(3, 2), F(0))
        assert not pierce(Line3(off_range, (F(0), F(0), F(1))), body)

    def test_in_plane_chord_line_pierces(self):
        body = body_with_gap()
        # secant through two parabola points inside the support
        a, b = F(1, 8), F(7, 8)
        pa = body.from_chart(a, body.parabola(a))
        pb = body.from_chart(b, body.parabola(b))
        line = Line3(pa, (pb.x - pa.x, pb.y - pa.y, pb.z - pa.z))
        assert pierce(line, body)

    def test_in_plane_line_below_envelope_misses(self):
        body = body_with_gap()
        low = body.from_chart(F(0), F(-1))
        line = Line3(low, (F(1), body.eps, F(0)))  # w constant -1 in the chart
        assert not pierce(line, body)

    def test_in_plane_line_above_top_misses(self):
        body = body_with_gap()
        high = body.from_chart(F(0), F(1))
        line = Line3(high, (F(1), body.eps, F(1)))  # w = 1 + u stays above
        assert not pierce(line, body)

    def test_in_plane_tangent_touches_hull(self):
        body = body_with_gap()
        u0 = F(1, 8)
        slope = body.q + 2 * body.eps * u0  # parabola slope at u0
        touch = body.from_chart(u0, body.parabola(u0))
        line = Line3(touch, (F(1), body.eps, slope))
        assert pierce(line, body)
        # nudging the tangent down clears the hull entirely
        below = body.from_chart(u0, body.parabola(u0) - F(1, 10**12))
        assert not pierce(Line3(below, (F(1), body.eps, slope)), body)

    def test_in_plane_steep_line_through_gap(self):
        body = body_with_gap()
        mid = F(1, 2)
        w = (body.lower_envelope(mid) + body.top_chord(mid)) / 2
        anchor = body.from_chart(mid, w)
        steep = Line3(anchor, (F(1), body.eps, F(1000)))
        assert pierce(steep, body)
        # even anchored in the pocket below the gap chord, a steep line
        # exits upward through the chord while still over the gap
        pocket = body.from_chart(mid, body.parabola(mid))
        assert pierce(Line3(pocket, (F(1), body.eps, F(10**6))), body)

    def test_in_plane_pocket_tangent_misses(self):
        # tangent at the gap midpoint raised by less than the chord clearance
        # stays strictly inside the pocket: above the parabola only over the
        # gap, below the chord there, below the parabola on both arcs
        body = body_with_gap()
        mid = F(1, 2)
        h = F(1, 4096)
        slope = body.q + 2 * body.eps * mid
        anchor = body.from_chart(mid, body.parabola(mid) + h)
        line = Line3(anchor, (F(1), body.eps, slope))
        assert not pierce(line, body)
        cert = non_piercing_certificate(line, body)
        assert cert.case == "inplane-below-envelope" and cert.holds()

    def test_in_plane_certificates(self):
        body = body_with_gap()
        low = body.from_chart(F(0), F(-1))
        below = Line3(low, (F(1), body.eps, F(0)))
        cert = non_piercing_certificate(below, body)
        assert cert.case == "inplane-below-envelope" and cert.holds()

        high = body.from_chart(F(0), F(1))
        above = Line3(high, (F(1), body.eps, F(1)))
        cert = non_piercing_certificate(above, body)
        assert cert.case == "inplane-above-top-chord" and cert.holds()

        off = body.from_chart(F(3, 2), F(0))
        vert = Line3(off, (F(0), F(0), F(1)))
        cert = non_piercing_certificate(vert, body)
        assert cert.case == "inplane-above-range" and cert.holds()

    def test_parallel_certificate(self):
        body = body_with_gap()
        line = Line3(Point3(F(0), F(0), F(0)), (F(1), body.eps, F(0)))
        cert = non_piercing_certificate(line, body)
        assert cert.case == "plane-parallel" and cert.holds()

    def test_piercing_line_has_no_certificate(self):
        body = body_with_gap()
        assert non_piercing_certificate(ruling_line_x(F(1, 8)), body) is None

    def test_characterization_on_truncation(self):
        bodies = FamilyStream(F(1, 2)).truncate(25)
        for body in bodies:
            probes = set(body.support.points)
            for lo, hi in pieces(body.support):
                probes.add((lo + hi) / 2)
            for (_, hi), (lo2, _) in zip(pieces(body.support), pieces(body.support)[1:]):
                probes.add((hi + lo2) / 2)
            probes.update({F(-1, 7), F(0), F(1), F(8, 7)})
            for r in probes:
                assert pierce(ruling_line_x(r), body) == body.support.contains(r)


def test_ruling_certificate_cases():
    """Each ruling class has its own three miss cases.  A y-ruling never
    reaches a range case: b leaves the y-slab exactly when its abscissa
    (b - q)/eps leaves [r_min, r_max]."""
    cases = {X_RULING: set(), Y_RULING: set()}
    for body in FamilyStream(F(1, 2)).truncate(200):
        gaps = list(zip(pieces(body.support), pieces(body.support)[1:]))[:3]
        probes = [F(-1, 7), F(8, 7), body.r_min, body.r_max]
        probes += [(hi + lo2) / 2 for (_, hi), (lo2, _) in gaps]
        for u in probes:
            for cls, line in ((X_RULING, ruling_line_x(u)),
                              (Y_RULING, ruling_line_y(body.q + body.eps * u))):
                cert = non_piercing_certificate(line, body)
                assert (cert is None) == pierce(line, body)
                if cert is not None:
                    assert cert.holds()
                    cases[cls].add(cert.case)
    assert cases == {
        X_RULING: {"support-below-range", "support-above-range", "support-gap"},
        Y_RULING: {"plane-slab-below", "plane-slab-above", "slab-gap"},
    }


def test_certificate_oracle_on_cases_no_pinned_report_reaches():
    """``expected_certificate`` against ``non_piercing_certificate`` for
    lines inside or parallel to the plane and a y-ruling over a gap, and
    None from both for lines that pierce."""
    body = body_with_gap()
    mid = F(1, 2)
    tangent = body.q + 2 * body.eps * mid
    vertical = (F(0), F(0), F(1))
    misses = {
        "inplane-below-envelope": Line3(
            body.from_chart(mid, body.parabola(mid) + F(1, 4096)), (F(1), body.eps, tangent)
        ),
        "inplane-above-top-chord": Line3(body.from_chart(F(0), F(1)), (F(1), body.eps, F(1))),
        "inplane-below-range": Line3(body.from_chart(F(-1, 2), F(0)), vertical),
        "inplane-above-range": Line3(body.from_chart(F(3, 2), F(0)), vertical),
        "plane-parallel": Line3(Point3(F(0), F(0), F(0)), (F(1), body.eps, F(0))),
        "slab-gap": ruling_line_y(body.q + body.eps * mid),
    }
    witness = body_to_record(body)
    for case, line in misses.items():
        cert = non_piercing_certificate(line, body)
        assert cert.case == case
        stated = (cert.case, cert.lhs, cert.rel, cert.rhs)
        assert expected_certificate(line_to_record(line), witness) == stated
    hits = [
        ruling_line_x(F(1, 8)),
        ruling_line_y(body.q + body.eps * F(7, 8)),
        Line3(body.from_chart(F(1, 8), F(0)), vertical),
        Line3(body.from_chart(F(1, 8), body.parabola(F(1, 8))), (F(1), F(1), F(1))),
    ]
    for line in hits:
        assert non_piercing_certificate(line, body) is None
        assert expected_certificate(line_to_record(line), witness) is None


SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=12)
PREFIX = FamilyStream(F(1, 2)).truncate(40)


@st.composite
def parallel_lines(draw):
    """A family body and a line parallel to its plane (dy = eps*dx), with
    its base on the plane or off it by an offset of either sign, some far
    below eps; returns the body, the line and the offset."""
    body = draw(st.sampled_from(PREFIX))
    dx, dz = draw(SMALL), draw(SMALL)
    if dx == dz == 0:
        dz = F(1)
    x0, z0 = draw(SMALL), draw(SMALL)
    offset = F(0)
    if draw(st.booleans()):
        scale = draw(st.sampled_from([F(1), body.eps, body.eps**2]))
        offset = draw(SMALL.filter(bool)) * scale
    base = Point3(x0, body.q + body.eps * x0 + offset, z0)
    return body, Line3(base, (dx, body.eps * dx, dz)), offset


class TestParallelCertificate:
    """A line parallel to a body's plane has no chart point; only its base's
    residual y0 - q - eps*x0 tells a line off the plane, certified
    ``plane-parallel``, from one in it, decided in the chart."""

    @settings(max_examples=300)
    @given(case=parallel_lines())
    def test_plane_parallel_iff_base_off_the_plane(self, case):
        body, line, offset = case
        cert = non_piercing_certificate(line, body)
        assert (cert is not None and cert.case == "plane-parallel") == (offset != 0)
        if offset:
            assert (cert.lhs, cert.rel, cert.rhs) == (offset, "!=", 0)
        elif cert is not None:
            assert cert.case.startswith("inplane-") and cert.holds()


BOUNDARY_BODIES = FamilyStream(F(1, 2)).truncate(96)
# lines of three shapes through a chart point lifted to the plane: constant
# x, and two that cross it obliquely; none is parallel to a body's plane
THROUGH = [(F(0), F(1), F(0)), (F(1), F(3), F(-2)), (F(-2), F(1), F(5))]


def hull_boundary_points(body: ConvexBody):
    """Chart points (u, w) exactly on the hull's boundary, each with the
    certificate case and the sign of the nudge that takes it outside: on the
    top chord at mid-range; on the parabola at the middle and at the left end
    of the widest support piece; on the chord over the first gap, at its
    middle."""
    points = body.support.points
    mid = (body.r_min + body.r_max) / 2
    yield mid, body.top_chord(mid), "point-above-top-chord", 1
    lo, hi = max(zip(points[::2], points[1::2]), key=lambda piece: piece[1] - piece[0])
    for u in ((lo + hi) / 2, lo):
        yield u, body.parabola(u), "point-below-envelope", -1
    if len(points) > 2:
        u = (points[1] + points[2]) / 2
        yield u, body.lower_envelope(u), "point-below-envelope", -1


class TestHullSide:
    """``_geometric_miss`` decides the hull side by ``_chord_side``'s
    integer sign; a point on the boundary belongs to the body, and a nudge
    far below eps takes it out."""

    def test_boundary_points_pierce_and_nudged_points_miss(self):
        gap_chords = 0
        for body in BOUNDARY_BODIES:
            k = body.eps.denominator.bit_length() - 1  # eps = 2^-k
            nudge = F(1, 2 ** (k + 8))
            for u, w, case, outward in hull_boundary_points(body):
                gap_chords += not body.support.contains(u)
                for direction in THROUGH:
                    on = Line3(body.from_chart(u, w), direction)
                    assert _geometric_miss(on, body) is None
                    assert pierce(on, body)
                    off = Line3(body.from_chart(u, w + outward * nudge), direction)
                    cert = _geometric_miss(off, body)
                    assert cert is not None and cert.case == case and cert.holds()
                    assert not pierce(off, body)
        assert gap_chords > 0

    @settings(max_examples=300)
    @given(body=st.sampled_from(BOUNDARY_BODIES), data=st.data())
    def test_sign_matches_the_fraction_difference(self, body, data):
        ends = body.support.points
        u = data.draw(st.sampled_from(ends) | st.fractions(ends[0], ends[-1]))
        low, top = body.lower_envelope(u), body.top_chord(u)
        # between, on and just beyond the boundary, at the scale of eps and far below it
        scale = data.draw(st.sampled_from([F(0), body.eps, body.eps**2]))
        w = data.draw(st.sampled_from([low, top])) + scale * data.draw(SMALL)
        sign = lambda x: (x > 0) - (x < 0)
        assert _chord_side(body, u, w, body.r_min, body.r_max) == sign(w - top)
        gap = (u, u) if body.support.contains(u) else body.support.gap_around(u)
        assert _chord_side(body, u, w, *gap) == sign(w - low)


class TestMaxVerticalDistance:
    def test_full_span(self):
        body = ConvexBody(q=F(1, 2), f_index=1, support=IntervalSet(1, (0, 1)))
        assert max_vertical_distance(body) == F(1, 256)

    def test_point_body(self):
        body = ConvexBody(
            q=F(1, 2), f_index=1, support=interval_set([(F(1, 3), F(1, 3))])
        )
        assert max_vertical_distance(body) == 0

    def test_sampled_distances_bounded_and_tight(self):
        for body in FamilyStream(F(1, 2)).truncate(12):
            closed = max_vertical_distance(body)
            assert closed <= body.eps
            span = body.r_max - body.r_min
            mid = (body.r_min + body.r_max) / 2
            best = F(0)
            for k in range(101):
                u = body.r_min + span * k / 100
                v = vertical_distance(body.from_chart(u, body.top_chord(u)))
                assert v <= closed
                best = max(best, v)
            assert vertical_distance(body.from_chart(mid, body.top_chord(mid))) == closed


class TestPiercingMatrix:
    def test_support_rows_all_true(self):
        bodies = FamilyStream(F(1, 2)).truncate(4)
        lines = [ruling_line_x(r) for r in bodies[2].support.points]
        matrix = piercing_matrix(bodies, lines)
        assert all(matrix[2])

    def test_empty_pool(self):
        bodies = FamilyStream(F(1, 2)).truncate(3)
        matrix = piercing_matrix(bodies, [])
        assert matrix == ((), (), ())

    def test_recomputation_idempotent(self):
        bodies = FamilyStream(F(1, 2)).truncate(5)
        lines = [ruling_line_x(F(k, 7)) for k in range(8)]
        assert piercing_matrix(bodies, lines) == piercing_matrix(bodies, lines)


def _oracle_pool(bodies: list[ConvexBody]) -> list[Line3]:
    """Lines at the edges of the piercing decision, aimed at a sample of the
    bodies: rulings at support endpoints and inside gaps, generic lines that
    just enter a body, tangent lines and lines lying in a body's plane."""
    lines = []
    for body in bodies[3::9]:
        q, eps = body.q, body.eps
        ends = body.support.points
        gaps = [(a + b) / 2 for (_, a), (b, _) in zip(pieces(body.support),
                                                        pieces(body.support)[1:])]
        for u in [*ends[:2], ends[-1], *gaps[:2]]:
            lines.append(ruling_line_x(u))
            lines.append(ruling_line_y(q + eps * u))  # meets the plane at u
        # through a surface point, slightly steeper than the tangent plane
        # there, so the line enters the body from below the parabola (c > 0)
        # or passes under it (c < 0)
        u = (ends[-2] + ends[-1]) / 2  # inside the last support interval
        for c in (F(1, 16), F(-1, 16)):
            dy = F(5, 7)
            lines.append(Line3(Point3(u, q, u * q), (F(1), dy, u * dy + q + dy * c / u)))
        # tangent to the surface at a point of the body's parabola arc
        y = q + eps * u
        for dx, dy in ((F(1), F(1, 3)), (F(1), eps)):  # crossing / in the plane
            lines.append(Line3(Point3(u, y, u * y), (dx, dy, y * dx + u * dy)))
        # in the plane: the top chord, a chord across the first gap, a line
        # below the envelope, and vertical lines inside and outside the range
        slope, intercept = body.top_chord(F(1)) - body.top_chord(F(0)), body.top_chord(F(0))
        lines.append(Line3(Point3(F(0), q, intercept), (F(1), eps, slope)))
        if gaps:
            a, b = body.support.gap_around(gaps[0])
            lines.append(Line3(body.from_chart(a, body.parabola(a)),
                               (b - a, eps * (b - a), body.parabola(b) - body.parabola(a))))
        lines.append(Line3(Point3(F(0), q, F(-1)), (F(1), eps, q)))
        for u in (ends[0], ends[-1] + F(1, 8)):
            lines.append(Line3(body.from_chart(u, F(0)), (F(0), F(0), F(1))))
    rng = random.Random(113)
    for _ in range(6):
        base = Point3(*(F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(3)))
        lines.append(Line3(base, (F(1), F(rng.randint(-8, 8), 7), F(rng.randint(-8, 8), 5))))
    return lines


def test_piercing_matrix_matches_geometric_pierce():
    """The matrix decides rulings by the support rule and generic lines
    through the slab filter; the plane meet alone decides every line on its
    own, so whole matrices must agree."""
    bodies = FamilyStream(F(1, 2)).truncate(96)
    lines = _oracle_pool(bodies)
    want = tuple(
        tuple(_geometric_miss(line, body) is None for line in lines) for body in bodies
    )
    assert piercing_matrix(bodies, lines) == want
    # every class of line both pierces and misses somewhere
    for kind in (X_RULING, Y_RULING, GENERIC):
        cols = [c for c, line in enumerate(lines) if classify_line(line).kind == kind]
        hits = {row[c] for row in want for c in cols}
        assert hits == {True, False}, kind


@st.composite
def lines_through_early_bodies(draw):
    """A point of body 1, 2 or 3, where eps is largest, and lines through
    it.  The point's u is in the range, sometimes a support end, and its w
    lies between the lower envelope and the top chord.  The lines are a
    lifted near-ruling (0, 1, u + nudge); lines of slope dx/dy up to 4000
    in size whose height z - x*y over the surface has its vertex at the
    point (a near-tangent), at y = q or at y = q + eps; and one of any dz."""
    body = draw(st.sampled_from(PREFIX[:3]))
    ends = body.support.points
    u = draw(st.sampled_from(ends) | st.fractions(ends[0], ends[-1], max_denominator=64))
    low, top = body.lower_envelope(u), body.top_chord(u)
    share = draw(st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=16))
    point = body.from_chart(u, low + (top - low) * share)
    slope = draw(st.integers(-4000, 4000).map(F) | SMALL)
    nudge = body.eps * draw(st.just(F(0)) | st.fractions(-1, 1, max_denominator=8))
    dy = draw(st.sampled_from([F(1), F(-1), F(1, 3), F(7)]))
    # a line (slope, 1, dz) through the point has g'(v) = dz - u - slope*(2*v - y),
    # so each dz below puts g' = nudge at its v
    directions = [(F(0), F(1), u + nudge)] + [
        (slope, F(1), u + slope * (2 * v - point.y) + nudge)
        for v in (point.y, body.q, body.q + body.eps)
    ] + [(slope, F(1), draw(SMALL))]
    return body, [Line3(point, tuple(dy * c for c in d)) for d in directions]


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=16)


class TestSurelyMisses:
    """The slab filter in ``pierce`` only ever answers "miss", and only
    for lines the plane meet misses."""

    @settings(max_examples=400)
    @given(case=lines_through_early_bodies())
    def test_never_misses_a_line_through_the_body(self, case):
        body, lines = case
        for line in lines:
            assert _geometric_miss(line, body) is None  # the line meets the body
            assert not _surely_misses(line, body)

    @settings(max_examples=200)
    @given(base=st.tuples(UNIT, UNIT, SMALL), direction=st.tuples(SMALL, SMALL, SMALL))
    def test_agrees_with_the_plane_meet_on_random_lines(self, base, direction):
        if direction == (0, 0, 0):
            direction = (F(1), F(1), F(0))
        line = Line3(Point3(*base), direction)
        for body in PREFIX:
            if _surely_misses(line, body):
                assert _geometric_miss(line, body) is not None

    def test_decides_the_generic_misses_of_thin_bodies(self):
        """Past the first bodies, almost every miss by a generic line with
        dy != 0 is decided in the filter, so ``pierce`` rarely reaches the
        plane meet; lines with dy == 0 always go on to it."""
        bodies = FamilyStream(F(1, 2)).truncate(96)[20:]
        lines = [line for line in _oracle_pool(bodies)
                 if classify_line(line).kind == GENERIC and line.dir[1] != 0]
        misses = [(line, body) for line in lines for body in bodies
                  if _geometric_miss(line, body) is not None]
        decided = sum(_surely_misses(line, body) for line, body in misses)
        assert decided >= 0.95 * len(misses) > 0


def brute_force_cover(matrix: tuple[tuple[bool, ...], ...]) -> int:
    cols = range(len(matrix[0]))
    for size in range(len(matrix[0]) + 1):
        for chosen in combinations(cols, size):
            if all(any(row[c] for c in chosen) for row in matrix):
                return size
    raise AssertionError("uncoverable matrix reached brute force")


class TestMinLineCover:
    def test_identity_matrix(self):
        m = tuple(tuple(i == j for j in range(3)) for i in range(3))
        sol = min_line_cover(m)
        assert len(sol.columns) == 3 and sol.exact
        # no bodies: the empty cover, exact
        assert min_line_cover(()) == CoverSolution((), True, 0)

    def test_single_full_column(self):
        m = ((True, False), (True, True), (True, False))
        sol = min_line_cover(m)
        assert sol.columns == (0,)

    def test_pairs_pattern(self):
        # body i pierced by the listed column pairs: {0,1},{0,2},{1,3},{2,3}
        rows = [(True, True, False, False), (True, False, True, False),
                (False, True, False, True), (False, False, True, True)]
        m = tuple(rows)
        sol = min_line_cover(m)
        assert len(sol.columns) == 2 == brute_force_cover(m)

    def test_uncoverable_rows_reported(self):
        m = ((True, False), (False, False), (False, False))
        with pytest.raises(UncoverableError) as err:
            min_line_cover(m)
        assert err.value.rows == (1, 2)
        # no lines: the one body is uncoverable
        with pytest.raises(UncoverableError) as err:
            min_line_cover(((),))
        assert err.value.rows == (0,)

    def test_matches_brute_force_random(self):
        rng = random.Random(83)
        for _ in range(60):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 10)
            entries = [[rng.random() < 0.35 for _ in range(cols)] for _ in range(rows)]
            for row in entries:
                if not any(row):
                    row[rng.randrange(cols)] = True
            m = tuple(tuple(r) for r in entries)
            assert len(min_line_cover(m).columns) == brute_force_cover(m)

    def test_greedy_fallback_above_exact_limit(self):
        cols = 30
        entries = tuple(
            tuple(c == r or c == cols - 1 for c in range(cols)) for r in range(6)
        )
        sol = min_line_cover(entries)
        assert not sol.exact
        assert len(sol.columns) >= 1
        assert sol.lower_bound <= len(sol.columns)


def replay_first_avoiding(delta: F, predicate, n_max=2000):
    """Independent scan of a fresh stream for the first matching body."""
    for f, body in enumerate(islice(FamilyStream(delta).bodies(), n_max), 1):
        if predicate(body):
            return f, body
    raise AssertionError("no matching body in replay budget")


class TestRefute:
    def test_single_constant_x_line(self):
        r = F(1, 2)
        outcome = refute([ruling_line_x(r)], FamilyStream(F(1, 2)), 1000)
        assert outcome.found
        want_index, want_body = replay_first_avoiding(
            F(1, 2), lambda b: not b.support.contains(r)
        )
        assert outcome.witness.f_index == want_index
        assert outcome.witness == want_body
        cert = outcome.certificates[0]
        assert cert.case == "support-gap" and cert.holds()

    def test_single_constant_y_line(self):
        b = F(1, 3)
        outcome = refute([ruling_line_y(b)], FamilyStream(F(1, 2)), 1000)
        assert outcome.found
        def avoider(body):
            # the ruling meets the plane on the parabola at u = (b - q)/eps
            return not body.support.contains((b - body.q) / body.eps)
        want_index, _ = replay_first_avoiding(F(1, 2), avoider)
        assert outcome.witness.f_index == want_index
        assert outcome.certificates[0].case in (
            "plane-slab-below", "plane-slab-above"
        )

    def test_y_ruling_through_a_support_gap(self):
        # inside body 1's y-slab, but over the support gap (0, 1/4)
        first = FamilyStream(F(1, 2)).truncate(1)[0]
        line = ruling_line_y(first.q + first.eps / 8)
        assert not pierce(line, first)
        outcome = refute([line], FamilyStream(F(1, 2)), 10)
        assert outcome.witness.f_index == 1
        cert = outcome.certificates[0]
        assert cert.case == "slab-gap" and cert.holds()

    def test_empty_pool_returns_first_body(self):
        outcome = refute([], FamilyStream(F(1, 2)), 10)
        assert outcome.found
        assert outcome.witness.f_index == 1
        assert outcome.certificates == ()

    def test_report_is_sound(self):
        lines = [
            ruling_line_x(F(1, 3)),
            ruling_line_y(F(2, 5)),
            Line3(Point3(F(0), F(0), F(1)), (F(1), F(1), F(0))),
            Line3(Point3(F(1), F(0), F(0)), (F(0), F(0), F(1))),
        ]
        outcome = refute(lines, FamilyStream(F(1, 2)), 5000)
        assert outcome.found
        body = outcome.witness
        for line in lines:
            assert not pierce(line, body)
        assert len(outcome.certificates) == len(lines)
        for line, cert in zip(lines, outcome.certificates):
            assert cert.holds()
            assert non_piercing_certificate(line, body) == cert

    def test_generic_line_classification_in_report(self):
        line = Line3(Point3(F(0), F(0), F(1)), (F(1), F(1), F(0)))
        outcome = refute([line], FamilyStream(F(1, 2)), 1000)
        info = outcome.line_infos[0]
        assert info.cls.kind == GENERIC
        assert len(info.meet.points) == 2

    def test_exhaustion_reported(self):
        # a pool of rulings dense enough to pierce every early body
        lines = [ruling_line_x(F(k, 16)) for k in range(17)]
        outcome = refute(lines, FamilyStream(F(1, 2)), 5)
        assert not outcome.found
        assert outcome.checked == 5

    def test_witness_monotone_in_pool_growth(self):
        rs = [F(1, 2), F(1, 3), F(2, 3), F(1, 5), F(3, 5), F(4, 5)]
        indices = []
        for size in (2, 4, 6):
            pool = [ruling_line_x(r) for r in rs[:size]]
            outcome = refute(pool, FamilyStream(F(1, 2)), 10_000)
            assert outcome.found
            indices.append(outcome.witness.f_index)
        assert indices == sorted(indices)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            refute([], FamilyStream(F(1, 2)), 0)

    @pytest.mark.parametrize("k", [1, 12, 40])
    def test_base_x_rulings_build_only_the_witness_support(self, k, monkeypatch):
        # every body before the witness holds the base rational its approach
        # targets, so the pool's x-ruling through it pierces the body by
        # construction: refute builds no support for it and asks no line
        # about it.  The pool is reversed so that list order alone decides
        # nothing
        pool = [ruling_line_x(enumerate_Q0(m)) for m in range(k, 0, -1)]
        built, asked = [], []
        assign = SupportAssigner.assign
        monkeypatch.setattr(
            SupportAssigner, "assign", lambda self, m: built.append(m) or assign(self, m)
        )

        def counting(cls, body):
            asked.append(body.f_index)
            return _ruling_pierces(cls, body)

        monkeypatch.setattr("linepierce.refutation._ruling_pierces", counting)
        outcome = refute(pool, FamilyStream(F(1, 2)), 10_000)
        witness = outcome.witness.f_index
        assert witness == (k + 1) * (k + 2) // 2  # the first body of m = k + 1
        assert built == [k + 1]
        assert set(asked) == {witness}

    @pytest.mark.parametrize("pool, witness", [
        ([2, 5], (21, 6)),
        ([2, 5, "generic"], (27, 6)),
        ([2, 4, "generic"], (15, 5)),
    ])
    def test_a_witness_past_skipped_approaches_is_a_fresh_streams_body(self, pool, witness):
        # the x-rulings through r_2 and r_5 (or r_4) skip approaches whose
        # bodies interleave with those of the approaches refute builds; the
        # generic line pierces body 21 alone, the first of approach 6, so
        # with it the witness is approach 6's second body
        first = FamilyStream(F(1, 2)).truncate(21)[20]
        u = first.r_min
        generic = Line3(first.from_chart(u, first.parabola(u)), (F(1), F(3), F(1)))
        lines = [generic if m == "generic" else ruling_line_x(enumerate_Q0(m)) for m in pool]
        outcome = refute(lines, FamilyStream(F(1, 2)), 1000)
        f = outcome.witness.f_index
        assert (f, outcome.witness.m) == witness
        assert outcome.witness == FamilyStream(F(1, 2)).truncate(f)[f - 1]

    def test_a_read_stream_is_refused(self):
        stream = FamilyStream(F(1, 2))
        assert refute(base_x_rulings(5), stream, 1000).witness.f_index == 21
        with pytest.raises(ValueError, match="read once"):
            refute(base_x_rulings(5), stream, 1000)
        with pytest.raises(ValueError, match="read once"):
            stream.truncate(1)
        with pytest.raises(ValueError, match="read once"):
            stream.bodies()


class TestVerticalClearance:
    def test_piercing_implies_small_offset_at_crossing(self):
        """A generic line can only pierce when its plane-crossing point has
        vertical offset within the body's exact maximum; bodies with smaller
        tilt are provably missed."""
        rng = random.Random(89)
        bodies = FamilyStream(F(1, 2)).truncate(40)
        cleared = 0
        for _ in range(50):
            def rat():
                return F(rng.randint(-8, 8), rng.randint(1, 8))
            def rat01():
                return F(rng.randint(0, 16), 16)
            # aim through the unit region so crossings land inside bodies' spans
            base = Point3(rat01(), rat01(), rat())
            line = Line3(base, (F(1), rat(), rat()))
            if classify_line(line).kind != GENERIC:
                continue
            for body in bodies:
                hit = line_plane_intersection(line, body.q, body.eps)
                if hit is None:
                    continue
                u, _ = hit
                offset = vertical_distance(body.from_chart(*hit))
                if pierce(line, body):
                    assert body.r_min <= u <= body.r_max
                    assert offset <= max_vertical_distance(body)
                elif body.r_min <= u <= body.r_max and offset > max_vertical_distance(body):
                    cleared += 1
                    assert not pierce(line, body)
        assert cleared > 100


def mixed_pool(rng, early):
    """A few early x-rulings, y-rulings aimed at support gaps of early
    bodies, in-plane lines of early bodies and generic lines."""
    pool = [ruling_line_x(r) for r in rng.sample([F(0), F(1), F(1, 2), F(1, 3)], rng.randint(0, 3))]
    gapped = [b for b in early if len(pieces(b.support)) > 1]
    for _ in range(rng.randint(1, 3)):
        body = rng.choice(gapped)
        (_, lo), (hi, _) = rng.choice(list(zip(pieces(body.support), pieces(body.support)[1:])))
        u = lo + (hi - lo) * F(rng.randint(1, 7), 8)
        pool.append(ruling_line_y(body.q + body.eps * u))
    for _ in range(rng.randint(0, 2)):
        body = rng.choice(early)
        u0 = rng.choice(body.support.points)
        slope = body.q + 2 * body.eps * u0
        lift = rng.choice([F(0), F(1, 10**9), -F(1, 10**9), body.eps])
        anchor = body.from_chart(u0, body.parabola(u0) + lift)
        pool.append(Line3(anchor, (F(1), body.eps, slope)))
    for _ in range(rng.randint(0, 2)):
        a, b = F(rng.randint(0, 8), 8), F(rng.randint(0, 8), 8)
        direction = (F(1), F(rng.randint(1, 5), 3), F(rng.randint(-4, 4), 2))
        pool.append(Line3(Point3(a, b, a * b), direction))
    rng.shuffle(pool)
    return pool


def test_refute_returns_the_brute_force_first_witness():
    rng = random.Random(127)
    early = FamilyStream(F(1, 2)).truncate(12)
    for _ in range(40):
        pool = mixed_pool(rng, early)
        outcome = refute(pool, FamilyStream(F(1, 2)), 400)
        # brute force: the unfiltered plane meet on every line/body pair
        want, _ = replay_first_avoiding(
            F(1, 2),
            lambda body: all(_geometric_miss(line, body) is not None for line in pool),
            400,
        )
        assert outcome.found and outcome.witness.f_index == want
        assert all(cert.holds() for cert in outcome.certificates)


def _sympy_pierces_in_plane(body, alpha, beta):
    """Does the chart line w = alpha + beta*u meet the body's hull?  Each
    condition is solved exactly by sympy: the line is under the top chord
    and, on some envelope piece's range, above that piece."""
    from sympy import Interval, Poly, Rational, Symbol, Union
    from sympy.solvers.inequalities import solve_poly_inequality

    def sym(x):
        return Rational(x.numerator, x.denominator)

    u = Symbol("u", real=True)

    def nonpositive(expr):
        return Union(*solve_poly_inequality(Poly(expr, u), "<="))

    line = sym(alpha) + sym(beta) * u
    slope = chord_slope(body, body.r_min, body.r_max)
    under_top = nonpositive(line - sym(body.parabola(body.r_min)) - sym(slope) * (u - sym(body.r_min)))
    above_arcs = nonpositive(sym(body.q) * u + sym(body.eps) * u**2 - line)
    ivs = pieces(body.support)
    hits = [above_arcs.intersect(Interval(sym(lo), sym(hi))) for lo, hi in ivs]
    for (_, a), (b, _) in zip(ivs, ivs[1:]):
        chord = sym(body.parabola(a)) + sym(chord_slope(body, a, b)) * (u - sym(a))
        hits.append(nonpositive(chord - line).intersect(Interval(sym(a), sym(b))))
    return not Union(*hits).intersect(under_top).is_empty


def test_in_plane_pierce_matches_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(131)
    nudges = [F(0), F(1, 10**9), -F(1, 10**9)]
    checked = 0
    for _ in range(20):
        cuts = sorted({F(rng.randint(0, 8), 8) for _ in range(rng.choice([2, 4, 6]))})
        if len(cuts) % 2:
            cuts.append(cuts[-1])
        support = interval_set(zip(cuts[::2], cuts[1::2]))
        body = ConvexBody(q=F(rng.randint(0, 6), 6), f_index=rng.randint(1, 3), support=support)
        charts = []
        for u0 in [*body.support.points, *(F(rng.randint(0, 8), 8) for _ in range(2))]:
            slope = body.q + 2 * body.eps * u0  # tangent to the parabola at u0
            charts += [(body.parabola(u0) - slope * u0 + h, slope) for h in nudges]
        top = chord_slope(body, body.r_min, body.r_max)
        charts += [(body.parabola(body.r_min) - top * body.r_min + h, top) for h in nudges]
        while len(charts) < 26:
            beta = body.q + body.eps * F(rng.randint(-4, 8), 4)
            charts.append((body.eps * F(rng.randint(-8, 8), 16), beta))
        for alpha, beta in charts:
            line = Line3(body.from_chart(F(0), alpha), (F(1), body.eps, beta))
            assert pierce(line, body) == _sympy_pierces_in_plane(body, alpha, beta)
            cert = non_piercing_certificate(line, body)
            assert cert is None or cert.holds()
            checked += 1
    assert checked >= 500


def assert_certificates_match_the_oracle(outcome, pool, every=1):
    """Each certificate, or every ``every``-th, states what
    ``expected_certificate`` derives from its pool line and the witness
    record alone, the records the report would state."""
    assert len(outcome.certificates) == len(pool)
    witness = body_to_record(outcome.witness)
    for i in range(0, len(pool), every):
        cert = outcome.certificates[i].to_record(i)
        stated = (cert["case"], F(cert["lhs"]), cert["rel"], F(cert["rhs"]))
        assert stated == expected_certificate(line_to_record(pool[i]), witness)


@contextmanager
def unlimited_int_digits():
    """Lift Python's limit on the digits of an integer string, which the
    oracle's ``Fraction`` parse keeps."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def base_x_rulings(k):
    return [ruling_line_x(enumerate_Q0(m)) for m in range(1, k + 1)]


class TestFarWitness:
    """A pool of the first K base-rational x-rulings pierces every body of
    approaches 1..K, each holding its own base rational, and misses the
    first body of approach K + 1, emission (K+1)(K+2)/2, which holds none
    of them.  Other lines added to the pool can only move the witness later.
    K = 400 puts the witness at emission 80,601: ``refute`` builds no support
    before it, so the scan takes seconds."""

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 20, 40, 400])
    def test_first_k_base_x_rulings(self, k):
        pool = base_x_rulings(k)
        outcome = refute(pool, FamilyStream(F(1, 2)), 100_000)
        assert outcome.witness.f_index == (k + 1) * (k + 2) // 2
        assert outcome.witness.m == k + 1
        # at K = 400 eps = 2^-161206, and a gap certificate's sides have about
        # 97,000 digits each, which take about 0.1 s each to render and to
        # read back: the oracle checks every 50th line there
        with unlimited_int_digits():
            assert_certificates_match_the_oracle(outcome, pool, every=1 if k <= 40 else 50)

    @settings(max_examples=40)
    @given(
        k=st.integers(1, 12),
        aims=st.lists(st.tuples(st.integers(0, 5), st.fractions(0, 1, max_denominator=16)),
                      max_size=3),
        generic=st.lists(
            st.tuples(*[st.fractions(-1, 2, max_denominator=8)] * 4), max_size=2
        ),
        seed=st.integers(0, 2**16),
    )
    @example(k=3, aims=[(0, F(1, 2)), (1, F(0))], generic=[], seed=0)
    def test_added_lines_never_bring_the_witness_earlier(self, k, aims, generic, seed):
        first = (k + 1) * (k + 2) // 2
        # y-rulings aimed into the slabs of the predicted witness and the
        # bodies after it, which some of them pierce, and lines through
        # surface points
        pool = [ruling_line_y(EARLY[first - 1 + i].q + EARLY[first - 1 + i].eps * u)
                for i, u in aims]
        for a, b, dy, dz in generic:
            line = Line3(Point3(a, b, a * b), (F(1), dy, dz))
            if classify_line(line).kind == GENERIC:
                pool.append(line)
        pool += base_x_rulings(k)
        random.Random(seed).shuffle(pool)
        outcome = refute(pool, FamilyStream(F(1, 2)), 2000)
        if outcome.found:
            assert outcome.witness.f_index >= first
            assert_certificates_match_the_oracle(outcome, pool)


EARLY = FamilyStream(F(1, 2)).truncate(96)


@st.composite
def y_ruling_cases(draw):
    """A body among the first 96 and a y-ruling y = b whose abscissa
    (b - q)/eps is one of its support's endpoints, a point between two
    consecutive endpoints (in a piece or in a gap), or outside the slab."""
    body = draw(st.sampled_from(EARLY))
    points = body.support.points
    where = draw(st.sampled_from(["endpoint", "between", "below", "above"]))
    step = draw(st.fractions(0, 1, max_denominator=2**20).filter(lambda t: 0 < t < 1))
    if where == "endpoint":
        u = draw(st.sampled_from(points))
    elif where == "between" and len(points) > 1:
        j = draw(st.integers(0, len(points) - 2))
        u = points[j] + (points[j + 1] - points[j]) * step
    elif where == "below":
        u = body.r_min - step
    else:
        u = body.r_max + step
    return body, body.q + body.eps * u


@settings(max_examples=200)
@given(case=y_ruling_cases())
@example(case=(EARLY[0], EARLY[0].q + EARLY[0].eps / 8))  # over a gap of body 1
@example(case=(EARLY[95], EARLY[95].q + EARLY[95].eps * EARLY[95].r_max))  # the right end
def test_y_ruling_rule_matches_the_fraction_abscissa(case):
    body, b = case
    cls = classify_line(ruling_line_y(b))
    want = body.support.contains((b - body.q) / body.eps)
    assert _ruling_pierces(cls, body) == want
    assert pierce(ruling_line_y(b), body) == want


CERTIFICATE_CASES = (
    "support-below-range", "support-above-range", "support-gap",
    "plane-slab-below", "plane-slab-above", "slab-gap",
    "plane-parallel",
    "point-below-range", "point-above-range", "point-above-top-chord", "point-below-envelope",
    "inplane-below-range", "inplane-above-range", "inplane-above-top-chord",
    "inplane-below-envelope",
)


@st.composite
def aimed_pools(draw):
    """A ``mixed_pool`` pool, the first body W every line of it misses, and
    one more line per certificate case, in ``CERTIFICATE_CASES`` order, each
    built to miss W in that case's way.  A line that misses W leaves W the
    first body the grown pool misses.  W must have a support gap."""
    pool = mixed_pool(draw(st.randoms(use_true_random=False)), EARLY[:12])
    w = refute(pool, FamilyStream(F(1, 2)), 400).witness
    assume(w is not None and len(pieces(w.support)) > 1)
    q, eps, r_min, r_max = w.q, w.eps, w.r_min, w.r_max
    past = draw(st.fractions(0, 1, max_denominator=64).filter(bool))
    up = draw(st.sampled_from([eps, eps**2, F(1, 10**9)]))
    (_, lo), (hi, _) = draw(st.sampled_from(list(zip(pieces(w.support), pieces(w.support)[1:]))))
    in_gap = lo + (hi - lo) * draw(st.sampled_from([F(1, 8), F(1, 2), F(7, 8)]))
    anywhere = st.fractions(r_min, r_max, max_denominator=256)
    u = draw(st.sampled_from([*w.support.points, in_gap]) | anywhere)
    # oblique directions cross every body's plane (dy != eps*dx) and are no rulings
    oblique = (F(1), draw(st.sampled_from([F(-2), F(1), F(3)])), draw(SMALL))
    vertical = (F(0), F(0), F(1))
    tangent = q + 2 * eps * u
    off_plane = draw(st.sampled_from([up, -up]))
    span = r_max - r_min
    lines = [
        ruling_line_x(r_min - past),
        ruling_line_x(r_max + past),
        ruling_line_x(in_gap),
        ruling_line_y(q + eps * (r_min - past)),
        ruling_line_y(q + eps * (r_max + past)),
        ruling_line_y(q + eps * in_gap),
        Line3(Point3(u, q + eps * u + off_plane, F(0)), (F(1), eps, tangent)),
        Line3(w.from_chart(r_min - past, F(0)), oblique),
        Line3(w.from_chart(r_max + past, F(0)), oblique),
        Line3(w.from_chart(u, w.top_chord(u) + up), oblique),
        Line3(w.from_chart(u, w.lower_envelope(u) - up), oblique),
        Line3(w.from_chart(r_min - past, F(0)), vertical),
        Line3(w.from_chart(r_max + past, F(0)), vertical),
        Line3(w.from_chart(r_min, w.top_chord(r_min) + up),
              (span, eps * span, w.top_chord(r_max) - w.top_chord(r_min))),
        Line3(w.from_chart(u, w.parabola(u) - up), (F(1), eps, tangent)),
    ]
    return pool, lines, w


@settings(max_examples=60)
@given(case=aimed_pools())
def test_aimed_pools_reach_every_certificate_case(case):
    """Every one of the 15 certificate cases, stated by a real refute report
    and checked against ``expected_certificate`` with the pool's own lines."""
    pool, aimed, witness = case
    outcome = refute(pool + aimed, FamilyStream(F(1, 2)), 400)
    assert outcome.witness.f_index == witness.f_index
    assert tuple(cert.case for cert in outcome.certificates[len(pool):]) == CERTIFICATE_CASES
    assert all(cert.holds() for cert in outcome.certificates)
    assert_certificates_match_the_oracle(outcome, pool + aimed)
