"""The direct-translation baseline (paper Sec. IV).

"One method, represented by direct translation, computes the centroids
of both the current and target FoIs M1 and M2 and a rigid translation
from the centroid of M1 to the centroid of M2.  The mobile robots move
from M1 to M2 based on the rigid translation, and then adjust
themselves to optimal coverage positions in M2 based on Hungarian
method."

The rigid phase preserves every link by construction (all robots share
the same velocity), so any link breakage happens in the adjustment
phase - exactly the behaviour the paper's fifth-row plots show.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.hungarian import min_cost_matching
from repro.baselines.plans import BaselinePlan
from repro.foi.region import FieldOfInterest
from repro.geometry.vec import as_points
from repro.robots.transition import straight_transition

__all__ = ["direct_translation_plan"]


def direct_translation_plan(
    starts,
    target_positions,
    m1: FieldOfInterest,
    m2: FieldOfInterest,
    t_end: float = 1.0,
) -> BaselinePlan:
    """Plan the direct-translation transition.

    Parameters
    ----------
    starts : (n, 2) array-like
        Robot positions in M1.
    target_positions : (n, 2) array-like
        Pre-computed optimal coverage positions ``Q`` in M2.
    m1, m2 : FieldOfInterest
        Used only for their centroids (the rigid translation vector).
    t_end : float
        Total transition time ``T``.
    """
    p = as_points(starts)
    q = as_points(target_positions)
    offset = m2.centroid - m1.centroid
    translated = p + offset
    assignment = min_cost_matching(translated, q)
    finals = q[assignment]

    # Time split: rigid phase and adjustment phase share T proportionally
    # to their mean leg lengths (both phases are synchronous).
    rigid_leg = float(np.hypot(offset[0], offset[1]))
    adjust_d = np.hypot(*(finals - translated).T)
    adjust_leg = float(adjust_d.mean())
    total_leg = rigid_leg + adjust_leg
    if total_leg <= 0:
        split = 0.5 * t_end
    else:
        split = t_end * (rigid_leg / total_leg)
        split = min(max(split, 0.05 * t_end), 0.95 * t_end)

    trajectory = straight_transition(p, translated, 0.0, split).then(
        straight_transition(translated, finals, split, t_end)
    )
    return BaselinePlan(
        name="direct translation",
        assignment=assignment,
        final_positions=finals,
        trajectory=trajectory,
    )
