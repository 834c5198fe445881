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
point, and a line parallel to it or lying in it has no chart point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from numbers import Rational

from .exactnum import QuadExt, Scalar, format_rational, parse_rational, solve_quadratic

X_RULING = "x-ruling"  # x = c, z = c*y: pierces a body iff c is in its support
Y_RULING = "y-ruling"  # y = b, z = b*x: constant-y line on the surface
GENERIC = "generic"


@dataclass(frozen=True)
class Point3:
    x: Scalar
    y: Scalar
    z: Scalar


@dataclass(frozen=True)
class Line3:
    """Parametric line base + s*dir; all six coordinates must be rationals."""

    base: Point3
    dir: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self) -> None:
        coords = (self.base.x, self.base.y, self.base.z, *self.dir)
        if not all(isinstance(c, Rational) for c in coords):
            raise ValueError("line coordinates must be rational")
        if all(c == 0 for c in self.dir):
            raise ValueError("line direction must be nonzero")

    @cached_property
    def over_y(self) -> tuple[int, int, int, int, int, int] | None:
        """The line as a function of y, in integers over one denominator.

        With dy != 0 the line is x(y) = (x1*y + x0)/den, and its height over
        the surface is z(y) - x(y)*y = (a*y^2 + b*y + c)/den, for integers
        a, b, c, x1, x0 and den > 0; returned as (a, b, c, x1, x0, den).
        None when dy == 0.
        """
        dx, dy, dz = (Fraction(d) for d in self.dir)
        if dy == 0:
            return None
        slope_x, slope_z = dx / dy, dz / dy
        x0 = self.base.x - self.base.y * slope_x
        z0 = self.base.z - self.base.y * slope_z
        coeffs = (-slope_x, slope_z - x0, z0, slope_x, x0)
        den = lcm(*(c.denominator for c in coeffs))
        return (*(c.numerator * (den // c.denominator) for c in coeffs), den)


@dataclass(frozen=True)
class LineClass:
    kind: str  # X_RULING | Y_RULING | GENERIC
    param: Fraction | None = None


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


@dataclass(frozen=True)
class SurfaceIntersection:
    on_surface: bool
    points: tuple[Point3, ...] = ()


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


def line_plane_intersection(
    line: Line3, q: Fraction, eps: Fraction
) -> tuple[Fraction, Fraction] | None:
    """Meet base + s*dir with the plane y = q + eps*x, in the plane's chart.

    With eps = en/ed cleared, den*s = num for num = ed*(q - y0) + en*x0 and
    den = ed*dy - en*dx.  den == 0: the line is parallel to the plane, or
    lies in it, and the meet is None.  Otherwise the hit is the chart point
    (u, w) = (x0 + s*dx, z0 + s*dz); its y = y0 + s*dy is on the plane by
    the choice of s, so it is not formed.
    """
    dx, dy, dz = line.dir
    base = line.base
    en, ed = eps.numerator, eps.denominator
    den = ed * dy - en * dx
    if den == 0:
        return None
    s = (ed * (q - base.y) + en * base.x) / den
    return base.x + s * dx, base.z + s * dz


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
