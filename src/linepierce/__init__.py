"""Exact geometry toolkit for piercing thin convex bodies with lines.

Constructs deterministic finite prefixes of a family of compact convex sets
hugging the surface z = x*y, checks piercing claims with exact rational
arithmetic, and refutes any finite candidate line pool by exhibiting a
family member missed by all of its lines.
"""

from .exactnum import (
    QuadExt,
    Rational,
    RootSet,
    format_rational,
    parse_quadext,
    parse_rational,
    solve_quadratic,
)
from .family import (
    ConvexBody,
    FamilyStream,
    SupportAssigner,
    body_from_record,
    body_to_record,
    dyadic_approach,
    enumerate_Q0,
    eps_of,
)
from .geometry import (
    Line3,
    LineClass,
    Point3,
    SurfaceIntersection,
    TiltedPlane,
    classify_line,
    line_plane_intersection,
    line_surface_intersection,
    ruling_line_x,
    ruling_line_y,
    vertical_distance,
)
from .intervals import (
    CoverSpec,
    DepthCell,
    IntervalSet,
    deep_witness,
    depth_profile,
    intersect_many,
    make_cover,
    remove_intervals,
)
from .refutation import (
    Certificate,
    CoverSolution,
    PiercingMatrix,
    RefutationOutcome,
    UncoverableError,
    max_vertical_distance,
    min_line_cover,
    non_piercing_certificate,
    pierce,
    piercing_matrix,
    refute,
)

__version__ = "0.1.0"
