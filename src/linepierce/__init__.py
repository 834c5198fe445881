"""Exact geometry toolkit for piercing thin convex bodies with lines.

Constructs deterministic finite prefixes of a family of compact convex sets
hugging the surface z = x*y, checks piercing claims with exact rational
arithmetic, and refutes any finite candidate line pool by exhibiting a
family member missed by all of its lines.
"""

from .exactnum import QuadExt, format_rational, parse_rational
from .family import ConvexBody, FamilyStream, body_from_record, body_to_record
from .geometry import (
    Line3,
    Point3,
    classify_line,
    line_surface_intersection,
    ruling_line_x,
    ruling_line_y,
)
from .intervals import IntervalSet, deep_witness, make_cover, remove_intervals
from .refutation import (
    InternalError,
    UncoverableError,
    max_vertical_distance,
    min_line_cover,
    non_piercing_certificate,
    pierce,
    piercing_matrix,
    refute,
)

__version__ = "0.1.0"
