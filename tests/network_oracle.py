"""Dense reference for the unit-disk edge set.

:func:`repro.network.udg.udg_edges` takes its candidate pairs from a
KD-tree; this is the ``O(n^2)`` construction it replaced.  Both must
return bitwise-identical edge arrays.
"""

import numpy as np

from repro.errors import GeometryError
from repro.geometry.vec import as_points, pairwise_distances


def udg_edges(positions, comm_range: float) -> np.ndarray:
    """Every pair ``(i, j)``, ``i < j``, with ``hypot <= comm_range``,
    read off the full pairwise distance matrix's upper triangle."""
    pts = as_points(positions)
    if comm_range <= 0:
        raise GeometryError("communication range must be positive")
    if len(pts) < 2:
        return np.zeros((0, 2), dtype=int)
    d = pairwise_distances(pts)
    iu, ju = np.triu_indices(len(pts), k=1)
    mask = d[iu, ju] <= comm_range
    return np.column_stack([iu[mask], ju[mask]]).astype(int)
