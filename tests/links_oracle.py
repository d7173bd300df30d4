"""Sampled reference for Definition 1 (the stable-link ratio ``L``).

The rules :func:`repro.network.links.links_alive_throughout` replaced:
every link tested at every global sample instant of the swarm.  The
kernel, which tests each link only at its own robots' rows, must give
the same mask.
"""

import numpy as np

from repro.geometry.vec import as_points
from repro.metrics.connectivity import _position_blocks


def stable_mask_over(table, snapshots):
    """Links of ``table`` in range at *every* snapshot of positions.

    ``snapshots`` is a ``(k, n, 2)`` array or an iterable of ``(n, 2)``
    arrays, in time order.
    """
    stable = np.ones(table.link_count, dtype=bool)
    for pos in snapshots:
        stable &= table.alive_mask(as_points(pos))
    return stable


def stable_link_ratio_over(table, snapshots):
    """Definition 1's ``L`` over sampled snapshots (1.0 with no links).

    The definition's double sum counts each link once per endpoint in
    both numerator and denominator, so the ratio of undirected counts
    is the same.
    """
    if table.link_count == 0:
        return 1.0
    return float(stable_mask_over(table, snapshots).mean())


def sampled_stable_mask(table, trajectory, resolution=32):
    """The sampled Definition-1 mask: right-sided positions at
    ``sample_times(resolution)``, left-sided ones at every jump time."""
    stable = np.ones(table.link_count, dtype=bool)
    for times, side in ((trajectory.sample_times(resolution), "right"),
                        (trajectory.discontinuity_times(), "left")):
        for block in _position_blocks(trajectory, times, side):
            stable &= stable_mask_over(table, block)
    return stable
