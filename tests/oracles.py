"""Reference implementations that tests compare the package against.

Each one computes its answer by a route of its own: it shares no code with
the package path it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from linepierce.geometry import Line3, Point3
from linepierce.intervals import IntervalSet


def point_at(line: Line3, s: Fraction) -> Point3:
    """The point base + s*dir of a line, for a rational s."""
    (dx, dy, dz), b = line.dir, line.base
    return Point3(b.x + s * dx, b.y + s * dy, b.z + s * dz)


def vertical_distance(pt: Point3) -> Fraction:
    """|z - x*y| of a rational point: its offset from the surface along z."""
    return abs(pt.z - pt.x * pt.y)


def pieces(s: IntervalSet) -> list[tuple[Fraction, Fraction]]:
    """The set's closed pieces as (lo, hi) pairs, in order."""
    return list(zip(s.points[::2], s.points[1::2]))


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
    return IntervalSet.from_pairs(out)


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
