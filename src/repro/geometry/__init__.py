"""Planar geometry kernel underpinning every other subsystem.

Everything here is dependency-light (numpy only) and deterministic;
scipy is deliberately not imported so the kernel stays usable as an
independent oracle in tests.
"""

from repro.geometry.barycentric import (
    barycentric_coords,
    barycentric_coords_paired,
    from_barycentric,
    point_in_triangle,
    triangle_area,
)
from repro.geometry.clipping import bounding_box_polygon, clip_convex, clip_halfplane
from repro.geometry.hull import convex_hull
from repro.geometry.pointlocate import TriangleLocator
from repro.geometry.polygon import Polygon, polygon_centroid, signed_area
from repro.geometry.segment import (
    on_segment,
    orientation,
    point_segment_distance,
    project_point_on_segment,
    segment_intersection_point,
    segments_intersect,
    segments_properly_cross,
)
from repro.geometry.vec import (
    angle_of,
    as_point,
    as_points,
    cross2,
    distance,
    dot2,
    lerp,
    norm,
    normalize,
    pairwise_distances,
    perpendicular,
    polyline_length,
    rotate,
    rotation_matrix,
)

__all__ = [
    "Polygon",
    "TriangleLocator",
    "angle_of",
    "as_point",
    "as_points",
    "barycentric_coords",
    "barycentric_coords_paired",
    "bounding_box_polygon",
    "clip_convex",
    "clip_halfplane",
    "convex_hull",
    "cross2",
    "distance",
    "dot2",
    "from_barycentric",
    "lerp",
    "norm",
    "normalize",
    "on_segment",
    "orientation",
    "pairwise_distances",
    "perpendicular",
    "point_in_triangle",
    "point_segment_distance",
    "polygon_centroid",
    "polyline_length",
    "project_point_on_segment",
    "rotate",
    "rotation_matrix",
    "segment_intersection_point",
    "segments_intersect",
    "segments_properly_cross",
    "signed_area",
    "triangle_area",
]
