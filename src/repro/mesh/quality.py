"""Mesh-quality measures: angles, aspect ratios, embedding validity.

Used to validate FoI triangulations before harmonic mapping and to
check that disk embeddings remain fold-free (all triangles positively
oriented), which is the discrete statement of the diffeomorphism
property the paper relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.trimesh import TriMesh, doubled_areas

__all__ = ["triangle_angles", "min_angle", "QualityReport", "quality_report", "orientation_signs"]


def triangle_angles(mesh: TriMesh) -> np.ndarray:
    """Interior angles of every triangle, shape ``(m, 3)``, in radians."""
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]

    def _angle(p, q, r):
        u = q - p
        v = r - p
        cosang = (u * v).sum(axis=1) / np.maximum(
            np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1]), 1e-300
        )
        return np.arccos(np.clip(cosang, -1.0, 1.0))

    return np.column_stack([_angle(a, b, c), _angle(b, c, a), _angle(c, a, b)])


def min_angle(mesh: TriMesh) -> float:
    """Smallest interior angle of the mesh, in radians."""
    if mesh.triangle_count == 0:
        return 0.0
    return float(triangle_angles(mesh).min())


def orientation_signs(mesh: TriMesh) -> np.ndarray:
    """Sign of the signed area of each triangle (+1 CCW, -1 CW, 0 flat).

    A valid (fold-free) embedding has all signs positive once triangles
    were CCW in the reference mesh.
    """
    return np.sign(doubled_areas(mesh.vertices, mesh.triangles)).astype(int)


@dataclass(frozen=True)
class QualityReport:
    """Summary statistics of a mesh's triangle quality."""

    triangle_count: int
    min_angle_deg: float
    mean_angle_deg: float
    min_edge: float
    max_edge: float
    mean_edge: float
    total_area: float

    def __str__(self) -> str:
        return (
            f"{self.triangle_count} triangles, angles >= "
            f"{self.min_angle_deg:.1f} deg, edges "
            f"[{self.min_edge:.2f}, {self.max_edge:.2f}] "
            f"(mean {self.mean_edge:.2f}), area {self.total_area:.1f}"
        )


def quality_report(mesh: TriMesh) -> QualityReport:
    """Compute a :class:`QualityReport` for ``mesh``."""
    angles = triangle_angles(mesh)
    lengths = mesh.edge_lengths()
    return QualityReport(
        triangle_count=mesh.triangle_count,
        min_angle_deg=float(np.degrees(angles.min())) if angles.size else 0.0,
        mean_angle_deg=float(np.degrees(angles.mean())) if angles.size else 0.0,
        min_edge=float(lengths.min()) if lengths.size else 0.0,
        max_edge=float(lengths.max()) if lengths.size else 0.0,
        mean_edge=float(lengths.mean()) if lengths.size else 0.0,
        total_area=float(mesh.triangle_areas().sum()),
    )
