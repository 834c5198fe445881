import random
from decimal import Decimal
from fractions import Fraction as F
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linepierce.exactnum import QuadExt
from linepierce.family import tilt_exponent
from linepierce.geometry import (
    GENERIC,
    X_RULING,
    Y_RULING,
    Line3,
    Point3,
    SurfaceIntersection,
    classify_line,
    line_from_record,
    line_plane_intersection,
    line_surface_intersection,
    line_to_record,
    ruling_line_x,
    ruling_line_y,
)
from oracles import (
    fraction_plane_meet,
    over_y_by_fractions,
    point_at,
    prefix,
    surface_residual_parts,
    vertical_distance,
)


def random_line(rng) -> Line3:
    def rat():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    while True:
        direction = (rat(), rat(), rat())
        if any(c != 0 for c in direction):
            return Line3(Point3(rat(), rat(), rat()), direction)


class TestRationalLine:
    @pytest.mark.parametrize("odd", [0.5, Decimal("0.5"), QuadExt(F(0), F(1), F(2))],
                             ids=["float", "decimal", "quadext"])
    @pytest.mark.parametrize("at", range(6))
    def test_rejects_a_coordinate_that_is_not_rational(self, odd, at):
        coords = [F(1, 2), F(0), F(0), F(0), F(1), F(1, 2)]
        coords[at] = odd
        with pytest.raises(ValueError, match="rational"):
            Line3(Point3(*coords[:3]), tuple(coords[3:]))


class TestClassify:
    def test_constant_x_ruling(self):
        line = Line3(Point3(F(1, 2), F(0), F(0)), (F(0), F(1), F(1, 2)))
        cls = classify_line(line)
        assert (cls.kind, cls.param) == (X_RULING, F(1, 2))

    def test_constant_y_ruling(self):
        line = Line3(Point3(F(0), F(1, 3), F(0)), (F(1), F(0), F(1, 3)))
        cls = classify_line(line)
        assert (cls.kind, cls.param) == (Y_RULING, F(1, 3))

    def test_base_off_surface(self):
        line = Line3(Point3(F(0), F(0), F(1)), (F(1), F(1), F(0)))
        assert classify_line(line).kind == GENERIC

    def test_scaled_direction_still_ruling(self):
        line = Line3(Point3(F(2), F(5), F(10)), (F(0), F(-3), F(-6)))
        cls = classify_line(line)
        assert (cls.kind, cls.param) == (X_RULING, F(2))

    def test_vertical_line_is_generic(self):
        line = Line3(Point3(F(1), F(1), F(0)), (F(0), F(0), F(1)))
        assert classify_line(line).kind == GENERIC


class TestSurfaceIntersection:
    def test_two_point_crossing(self):
        line = Line3(Point3(F(0), F(0), F(1)), (F(1), F(1), F(0)))
        meet = line_surface_intersection(line)
        assert not meet.on_surface
        got = {(p.x, p.y, p.z) for p in meet.points}
        assert got == {(F(-1), F(-1), F(1)), (F(1), F(1), F(1))}

    def test_tangency_single_point(self):
        line = Line3(Point3(F(0), F(0), F(0)), (F(1), F(1), F(0)))
        meet = line_surface_intersection(line)
        assert not meet.on_surface
        assert len(meet.points) == 1
        p = meet.points[0]
        assert (p.x, p.y, p.z) == (QuadExt.of(0), QuadExt.of(0), QuadExt.of(0))

    def test_ruling_lines_on_surface(self):
        assert line_surface_intersection(ruling_line_x(F(1, 2))).on_surface
        assert line_surface_intersection(ruling_line_y(F(2, 7))).on_surface

    def test_vertical_line_single_point(self):
        line = Line3(Point3(F(2), F(3), F(0)), (F(0), F(0), F(1)))
        meet = line_surface_intersection(line)
        assert len(meet.points) == 1
        assert (meet.points[0].x, meet.points[0].y, meet.points[0].z) == (
            QuadExt.of(2),
            QuadExt.of(3),
            QuadExt.of(6),
        )

    def test_meets_over_distinct_radicands_compare_unequal(self):
        # z = x*y along (s, s, c): s^2 = c, so the roots lie over sqrt(4c)
        def meet(c):
            return line_surface_intersection(Line3(Point3(F(0), F(0), F(c)), (F(1), F(1), F(0))))

        assert meet(2) != meet(3)

    def test_meet_equals_its_points_over_a_scaled_radicand(self):
        # the roots +-sqrt(5) are formed as +-(1/2)*sqrt(20)
        meet = line_surface_intersection(Line3(Point3(F(0), F(0), F(5)), (F(1), F(1), F(0))))
        assert {p.x.d for p in meet.points} == {F(20)}
        root5 = [QuadExt(F(0), F(sign), F(5)) for sign in (-1, 1)]
        by_radicand_5 = SurfaceIntersection(False, tuple(Point3(r, r, QuadExt.of(5)) for r in root5))
        assert meet == by_radicand_5
        assert hash(meet) == hash(by_radicand_5)

    def test_classification_matches_surface_membership(self):
        rng = random.Random(61)
        for _ in range(1000):
            line = random_line(rng)
            on = line_surface_intersection(line).on_surface
            assert on == (classify_line(line).kind != GENERIC)

    def test_intersection_points_have_zero_residual(self):
        rng = random.Random(67)
        counted = {0: 0, 1: 0, 2: 0}
        for _ in range(1000):
            line = random_line(rng)
            meet = line_surface_intersection(line)
            if meet.on_surface:
                continue
            counted[len(meet.points)] += 1
            for p in meet.points:
                assert surface_residual_parts(p) == (0, 0)
        # the sample should exercise all three counts
        assert all(counted[k] > 0 for k in counted)


def sym(x) -> sympy.Expr:
    """A Fraction or a QuadExt as an exact sympy number."""
    if isinstance(x, QuadExt):
        return sym(x.a) + sym(x.b) * sympy.sqrt(sym(x.d))
    return sympy.Rational(x.numerator, x.denominator)


def tangent_line(rng) -> Line3:
    """A line in the tangent plane z = b*x + a*y - a*b at the surface point
    (a, b, a*b), through that point."""
    a, b = F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9))
    dx, dy = F(rng.randint(-4, 4), rng.randint(1, 4)), F(rng.randint(-4, 4), rng.randint(1, 4))
    if dx == dy == 0:
        dx = F(1)
    return Line3(Point3(a, b, a * b), (dx, dy, b * dx + a * dy))


def line_through_surface_point(rng) -> Line3:
    """A line from a surface point, with dx or dy zero two times in three, so
    the substituted equation is often linear."""
    a, b = F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9))
    line = random_line(rng)
    dx, dy, dz = line.dir
    kind = rng.randrange(3)
    direction = (F(0) if kind == 0 else dx, F(0) if kind == 1 else dy, dz)
    if all(c == 0 for c in direction):
        direction = (F(0), F(0), F(1))
    return Line3(Point3(a, b, a * b), direction)


def ruling_lines(rng) -> list[Line3]:
    """Both ruling families, also with the base moved along the line and the
    direction rescaled, so only the surface equation can tell."""
    out = []
    for _ in range(20):
        c = F(rng.randint(-9, 9), rng.randint(1, 9))
        s, k = F(rng.randint(-5, 5), rng.randint(1, 5)), F(rng.randint(1, 5), rng.randint(1, 5))
        for line in (ruling_line_x(c), ruling_line_y(c)):
            base = point_at(line, s)
            out.append(Line3(base, tuple(k * d for d in line.dir)))
    return out


class TestSympyOracle:
    """line_surface_intersection against sympy.solve of the substituted
    equation x*y - z = 0 in the line parameter."""

    def test_meets_match_sympy_solve(self):
        rng = random.Random(83)
        lines = [random_line(rng) for _ in range(200)]
        lines += [tangent_line(rng) for _ in range(50)]
        lines += [line_through_surface_point(rng) for _ in range(60)]
        lines += ruling_lines(rng)
        s = sympy.Symbol("s")
        seen = {0: 0, 1: 0, 2: 0, "on": 0}
        for line in lines:
            coords = [sym(b) + s * sym(d) for b, d in zip(
                (line.base.x, line.base.y, line.base.z), line.dir)]
            residual = sympy.expand(coords[0] * coords[1] - coords[2])
            meet = line_surface_intersection(line)
            assert meet.on_surface == (residual == 0)
            if meet.on_surface:
                assert meet.points == ()
                seen["on"] += 1
                continue
            roots = sympy.solve(residual, s, check=False, simplify=False)
            roots = [r for r in roots if r.is_real]
            want = {tuple(sympy.expand(c.subs(s, r)) for c in coords) for r in roots}
            got = {tuple(sympy.expand(sym(c)) for c in (p.x, p.y, p.z)) for p in meet.points}
            assert len(meet.points) == len(want)
            assert got == want
            seen[len(want)] += 1
        assert all(seen.values()), seen

    def test_crossing_points_lie_on_the_surface_and_the_line(self):
        # each point P solves z = x*y, and P - base is parallel to dir: their
        # cross product vanishes, all checked in sympy's exact arithmetic
        rng = random.Random(97)
        lines = [random_line(rng) for _ in range(200)]
        lines += [tangent_line(rng) for _ in range(50)]
        lines += [line_through_surface_point(rng) for _ in range(60)]
        crossings = 0
        for line in lines:
            base = sympy.Matrix([sym(c) for c in (line.base.x, line.base.y, line.base.z)])
            direction = sympy.Matrix([sym(c) for c in line.dir])
            for p in line_surface_intersection(line).points:
                x, y, z = (sym(c) for c in (p.x, p.y, p.z))
                assert sympy.expand(x * y - z) == 0
                offset = sympy.Matrix([x, y, z]) - base
                assert offset.cross(direction).expand() == sympy.zeros(3, 1)
                crossings += 1
        assert crossings > 200


def lift(q, k, u, w) -> Point3:
    """The chart point (u, w) on the plane y = q + x/2^k."""
    return Point3(u, q + F(u, 1 << k), w)


def chart(hit) -> tuple[F, F] | None:
    """The meet (un, wn, ud) as the chart point (un/ud, wn/ud), after
    checking that it is three ints over a positive denominator."""
    if hit is None:
        return None
    un, wn, ud = hit
    assert {type(un), type(wn), type(ud)} == {int} and ud > 0
    return F(un, ud), F(wn, ud)


def meet(line, q, k) -> tuple[F, F] | None:
    """``line_plane_intersection`` asked with the plane y = q + x/2^k as ints,
    read by ``chart``."""
    return chart(line_plane_intersection(line, *q.as_integer_ratio(), k))


class TestPlaneIntersection:
    def test_ruling_crossing_example(self):
        q, k = F(1, 2), 4
        hit = meet(ruling_line_x(F(1, 4)), q, k)
        assert hit == (F(1, 4), F(33, 256))
        assert lift(q, k, *hit) == Point3(F(1, 4), F(33, 64), F(33, 256))

    def test_parallel(self):
        line = Line3(Point3(F(0), F(0), F(0)), (F(1), F(1, 16), F(0)))
        assert meet(line, F(1, 2), 4) is None

    def test_contained(self):
        base = Point3(F(0), F(1, 2), F(7))
        line = Line3(base, (F(1), F(1, 16), F(5)))
        assert meet(line, F(1, 2), 4) is None

    def test_hit_point_on_line_and_plane(self):
        rng = random.Random(71)
        for _ in range(300):
            q, k = F(rng.randint(0, 9), 10), rng.randint(0, 12)
            line = random_line(rng)
            hit = meet(line, q, k)
            if hit is None:
                continue
            p = lift(q, k, *hit)
            dx, dy, dz = line.dir
            # some rational s reproduces the point on each coordinate, y
            # included: the chart point lifted to the plane is on the line
            for num, den in ((p.x - line.base.x, dx), (p.y - line.base.y, dy),
                             (p.z - line.base.z, dz)):
                if den != 0:
                    s = num / den
                    break
            assert point_at(line, s) == p


SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=12)
WIDE = st.fractions(max_denominator=2**40)
# the tilt's exponent k, eps = 2^-k: 0, small ones, and those of the
# bodies f = 1,000 and 20,000
EXPONENTS = st.one_of(
    st.integers(0, 12),
    st.sampled_from([tilt_exponent(1_000), tilt_exponent(20_000)]),
)


@st.composite
def lines_and_planes(draw):
    """A plane y = q + x/2^k and a line that crosses it, runs parallel to it
    (dx = dy*2^k) or lies in it (also its base on the plane)."""
    q, k = draw(SMALL), draw(EXPONENTS)
    dy, dz = draw(SMALL), draw(SMALL)
    dx = dy * (1 << k) if draw(st.booleans()) else draw(SMALL)
    if dx == dy == dz == 0:
        dz = F(1)
    x0, z0 = draw(SMALL), draw(SMALL)
    y0 = q + F(x0, 1 << k) if draw(st.booleans()) else draw(SMALL)
    return Line3(Point3(x0, y0, z0), (dx, dy, dz)), q, k


class TestPlaneMeetDifferential:
    """The meet alone; which parallel lines are certified off the plane is
    ``tests/test_refutation.py::TestParallelCertificate``."""

    @settings(max_examples=400)
    @given(case=lines_and_planes())
    def test_meet_lies_on_line_and_plane(self, case):
        line, q, k = case
        hit = meet(line, q, k)
        dx, dy, dz = line.dir
        assert (hit is None) == (dx == dy * (1 << k))
        if hit is None:
            return
        # the chart point lifted to the plane is on the line: p - base is
        # parallel to the direction, so their cross product vanishes
        p, b = lift(q, k, *hit), line.base
        ox, oy, oz = p.x - b.x, p.y - b.y, p.z - b.z
        assert (oy * dz - oz * dy, oz * dx - ox * dz, ox * dy - oy * dx) == (0, 0, 0)


class TestPlaneMeetInIntegers:
    """``line_plane_intersection`` over the line's common denominator, read
    as the ratios of its ints, against the same meet in ``Fraction``
    arithmetic at eps = 2^-k."""

    @settings(max_examples=400)
    @given(case=lines_and_planes())
    @example(case=(ruling_line_x(F(1, 3)), F(1, 2), 0))  # eps = 1
    @example(case=(Line3(Point3(F(0), F(1, 2), F(0)), (F(1), F(1), F(3))), F(1, 2), 0))  # in it
    def test_matches_the_fraction_formula(self, case):
        line, q, k = case
        assert meet(line, q, k) == fraction_plane_meet(line, q, F(1, 1 << k))

    def test_random_lines_on_the_family_planes(self):
        rng = random.Random(20)
        bodies = prefix(F(1, 2), 21)
        lines = [random_line(rng) for _ in range(200)] + [ruling_line_x(F(9, 16))]
        for body in bodies:
            for line in lines:
                got = meet(line, body.q, tilt_exponent(body.f_index))
                assert got == fraction_plane_meet(line, body.q, body.eps)

    def test_parallel_and_in_plane_lines_have_no_meet(self):
        q, k = F(2, 3), 6
        eps = F(1, 1 << k)
        for x0 in (F(0), F(5, 7)):
            on_plane = Point3(x0, q + eps * x0, F(3))
            off_plane = Point3(x0, q + eps * x0 + F(1, 2**80), F(3))
            for direction in ((F(1), eps, F(0)), (F(-7, 3), -7 * eps / 3, F(2)),
                              (F(0), F(0), F(1))):
                for base in (on_plane, off_plane):
                    assert meet(Line3(base, direction), q, k) is None

    def test_integer_coords(self):
        line = Line3(Point3(F(1, 2), F(-1, 3), F(0)), (F(5), F(1, 6), F(-3, 4)))
        assert line.integer_coords == (6, -4, 0, 60, 2, -9, 12)


class TestVerticalDistance:
    def test_on_surface(self):
        assert vertical_distance(Point3(F(1), F(1), F(1))) == 0

    def test_unit_offset(self):
        assert vertical_distance(Point3(F(1), F(1), F(2))) == 1

    def test_below_surface(self):
        assert vertical_distance(Point3(F(1, 2), F(1, 2), F(0))) == F(1, 4)


class TestOverY:
    """``Line3.over_y`` against the line's own points, found by its parameter."""

    def test_x_ruling_has_zero_height(self):
        assert Line3(Point3(1, 0, 0), (0, 1, 1)).over_y == (0, 0, 0, 1)
        assert ruling_line_y(F(1, 3)).over_y is None

    @settings(max_examples=300)
    @given(base=st.tuples(SMALL, SMALL, SMALL), direction=st.tuples(SMALL, SMALL, SMALL),
           y=SMALL)
    def test_integer_form_is_the_line_over_y(self, base, direction, y):
        if direction == (0, 0, 0):
            direction = (F(0), F(1), F(0))
        line = Line3(Point3(*base), direction)
        form = line.over_y
        assert (form is None) == (direction[1] == 0)
        if form is None:
            return
        a, b, c, den = form
        assert all(type(v) is int for v in form) and den > 0
        p = point_at(line, (y - base[1]) / direction[1])
        assert p.y == y
        assert (a * y * y + b * y + c) / den == p.z - p.x * p.y

    @settings(max_examples=300)
    @given(base=st.tuples(*[SMALL | WIDE] * 3), direction=st.tuples(*[SMALL | WIDE] * 3))
    @example(base=(F(1, 3), F(2, 9), F(5, 6)), direction=(F(2), F(-4), F(6)))  # dy < 0
    @example(base=(F(0), F(0), F(0)), direction=(F(6), F(3), F(9)))  # a common factor 3
    def test_form_is_primitive_and_the_fraction_form(self, base, direction):
        if direction == (0, 0, 0):
            direction = (F(0), F(1), F(0))
        line = Line3(Point3(*base), direction)
        form = line.over_y
        assert form == over_y_by_fractions(line)
        if form is not None:
            assert form[-1] > 0 and gcd(*form) == 1


class TestLineRecords:
    def test_round_trip(self):
        rng = random.Random(79)
        for _ in range(100):
            line = random_line(rng)
            again = line_from_record(line_to_record(line))
            assert again == line

    def test_malformed_records(self):
        with pytest.raises(ValueError):
            line_from_record({"base": ["0/1", "0/1", "0/1"]})
        with pytest.raises(ValueError):
            line_from_record({"base": ["0/1", "0/1"], "dir": ["1/1", "0/1", "0/1"]})
        with pytest.raises(ValueError):
            line_from_record({"base": ["x", "0/1", "0/1"], "dir": ["1/1", "0/1", "0/1"]})
        with pytest.raises(ValueError):
            line_from_record({"base": ["0/1", "0/1", "0/1"], "dir": ["0/1", "0/1", "0/1"]})
