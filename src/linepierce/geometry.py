"""Exact geometry of the doubly ruled surface z = x*y and rational lines.

The surface carries two families of straight lines: for a constant c the
line x = c, z = c*y (direction (0,1,c)) and for a constant b the line
y = b, z = b*x (direction (1,0,b)); these are the only lines contained in
the surface.  Any other line meets it in at most two points, whose
coordinates live in a quadratic extension of the rationals.

Bodies are sliced out of nearly-y-perpendicular planes y = q + eps*x, and
the pair (q, eps) is the whole description of such a plane.  The chart
(u, w) = (x, z) identifies it with R^2 and turns the surface trace into the
parabola w = q*u + eps*u^2; a line crossing the plane meets it at one chart
point, as ints over one positive denominator, and any other line at none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from numbers import Rational

from .exactnum import QuadExt, Record, format_rational, parse_rational, solve_quadratic

X_RULING = "x-ruling"  # x = c, z = c*y: pierces a body iff c is in its support
Y_RULING = "y-ruling"  # y = b, z = b*x: constant-y line on the surface
GENERIC = "generic"


class Point3(Record):
    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: Fraction | QuadExt, y: Fraction | QuadExt, z: Fraction | QuadExt) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)


class Line3(Record):
    """Parametric line base + s*dir; all six coordinates must be rationals."""

    _fields = ("base", "dir")  # no __slots__: the cached properties need a __dict__

    def __init__(self, base: Point3, dir: tuple[Fraction, Fraction, Fraction]) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dir", dir)
        coords = (self.base.x, self.base.y, self.base.z, *self.dir)
        if not all(isinstance(c, Rational) for c in coords):
            raise ValueError("line coordinates must be rational")
        if all(c == 0 for c in self.dir):
            raise ValueError("line direction must be nonzero")

    @cached_property
    def integer_coords(self) -> tuple[int, int, int, int, int, int, int]:
        """The six coordinates over one common denominator: the integers
        (x0, y0, z0, dx, dy, dz) and den > 0, with base.x = x0/den and so on."""
        coords = (self.base.x, self.base.y, self.base.z, *self.dir)
        den = lcm(*(c.denominator for c in coords))
        return (*(c.numerator * (den // c.denominator) for c in coords), den)

    @cached_property
    def over_y(self) -> tuple[int, int, int, int] | None:
        """The line's height over the surface as a function of y, in integers
        over one denominator.

        With dy != 0 the height is z(y) - x(y)*y = (a*y^2 + b*y + c)/den, for
        integers a, b, c and den > 0 with no common factor; returned as
        (a, b, c, den).  None when dy == 0.  Over the denominator L of
        ``integer_coords``, x(y) = (L*dx*y + at_x)/(L*dy) with
        at_x = x0*dy - y0*dx, and z(y) likewise with at_z = z0*dy - y0*dz.
        """
        x0, y0, z0, dx, dy, dz, den = self.integer_coords
        if dy == 0:
            return None
        at_x, at_z = x0 * dy - y0 * dx, z0 * dy - y0 * dz
        form = (-den * dx, den * dz - at_x, at_z, den * dy)
        g = gcd(*form) if dy > 0 else -gcd(*form)
        return tuple(v // g for v in form)


class LineClass(Record):
    """A line's class, and a ruling's constant ``param`` = pn/pd as the ints the
    support rule asks about; pn and pd are None for a generic line."""

    __slots__ = ("kind", "param", "pn", "pd")
    _fields = ("kind", "param")

    def __init__(self, kind: str, param: Fraction | None = None) -> None:
        object.__setattr__(self, "kind", kind)  # X_RULING | Y_RULING | GENERIC
        object.__setattr__(self, "param", param)
        pn, pd = (None, None) if param is None else (param.numerator, param.denominator)
        object.__setattr__(self, "pn", pn)
        object.__setattr__(self, "pd", pd)


def ruling_line_x(c: Fraction) -> Line3:
    return Line3(Point3(Fraction(c), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(c)))


def ruling_line_y(b: Fraction) -> Line3:
    return Line3(Point3(Fraction(0), Fraction(b), Fraction(0)), (Fraction(1), Fraction(0), Fraction(b)))


def classify_line(line: Line3) -> LineClass:
    """Structural test for the two ruling families of z = x*y.

    Independent of ``line_surface_intersection``: this checks the line's
    shape directly, the other solves the substituted quadratic.  The two
    agree (ruling iff contained in the surface).
    """
    dx, dy, dz = line.dir
    b = line.base
    if dx == 0 and dy != 0:
        c = b.x
        if dz == c * dy and b.z == c * b.y:
            return LineClass(X_RULING, c)
    if dy == 0 and dx != 0:
        p = b.y
        if dz == p * dx and b.z == p * b.x:
            return LineClass(Y_RULING, p)
    return LineClass(GENERIC)


class SurfaceIntersection(Record):
    __slots__ = _fields = ("on_surface", "points")

    def __init__(self, on_surface: bool, points: tuple[Point3, ...] = ()) -> None:
        object.__setattr__(self, "on_surface", on_surface)
        object.__setattr__(self, "points", points)


def line_surface_intersection(line: Line3) -> SurfaceIntersection:
    """Meet a rational line with z = x*y.

    Substituting base + s*dir gives A s^2 + B s + C with A = dx*dy,
    B = px*dy + py*dx - dz, C = px*py - pz.  Identically zero means the
    whole line lies on the surface; otherwise 0, 1 or 2 parameter roots,
    a tangency reported as a single point.  At a root r = ra + rb*sqrt(d)
    each coordinate p + r*dp is formed as (p + ra*dp) + (rb*dp)*sqrt(d).
    """
    dx, dy, dz = line.dir
    p = line.base
    a = dx * dy
    bq = p.x * dy + p.y * dx - dz
    c = p.x * p.y - p.z
    if a == 0 and bq == 0 and c == 0:
        return SurfaceIntersection(on_surface=True)
    coords = (p.x, p.y, p.z)
    return SurfaceIntersection(False, tuple(
        Point3(*(QuadExt(pc + r.a * dc, r.b * dc, r.d) for pc, dc in zip(coords, line.dir)))
        for r in solve_quadratic(a, bq, c)
    ))


def line_plane_intersection(line: Line3, qn: int, qd: int, k: int) -> tuple[int, int, int] | None:
    """Meet base + s*dir with the plane y = q + eps*x, q = qn/qd for ints
    with qd > 0 and eps = 2^-k, in the plane's chart.

    In integers: the line is (x0, y0, z0) + s*(dx, dy, dz) over its common
    denominator L (``Line3.integer_coords``).  Then s = sn/sd for
    sn = ((qn*L - qd*y0) << k) + qd*x0 and sd = qd*((dy << k) - dx), both
    negated when sd < 0.  sd == 0: the line is parallel to the plane, or
    lies in it, and the meet is None.  Otherwise the hit is the chart point
    (u, w) = (un/ud, wn/ud), returned as the ints
    (un, wn, ud) = (x0*sd + sn*dx, z0*sd + sn*dz, L*sd) with ud > 0, not
    reduced; its y = (y0 + s*dy)/L is on the plane by the choice of s, so it
    is not formed.
    """
    x0, y0, z0, dx, dy, dz, den = line.integer_coords
    sd = (dy << k) - dx
    if sd == 0:
        return None
    sn = ((qn * den - qd * y0) << k) + qd * x0
    if sd < 0:
        sn, sd = -sn, -sd
    sd *= qd
    return x0 * sd + sn * dx, z0 * sd + sn * dz, den * sd


def line_to_record(line: Line3) -> dict:
    fr = format_rational
    return {
        "base": [fr(line.base.x), fr(line.base.y), fr(line.base.z)],
        "dir": [fr(d) for d in line.dir],
    }


def line_from_record(record: dict) -> Line3:
    pr = parse_rational
    try:
        base = record["base"]
        direction = record["dir"]
        if not all(type(v) is list and len(v) == 3 for v in (base, direction)):
            raise ValueError("base and dir must each be a JSON array of three rationals")
        return Line3(
            Point3(pr(base[0]), pr(base[1]), pr(base[2])),
            (pr(direction[0]), pr(direction[1]), pr(direction[2])),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed line record: {exc}") from exc
