"""Total stable link ratio ``L`` (paper Definition 1).

A link counts as *stable* when the two robots remain within
communication range at every instant of the transition.  Between
consecutive waypoint times of a link's two robots both move linearly,
so their distance is convex there and peaks at an end: testing each
link at its own robots' waypoint times (and ``t_start``, ``t_end``) is
exact.  Trajectories may also contain *discontinuities* - duplicated
waypoint times modelling instantaneous jumps - where the right-sided
position is the post-jump one, so a link is also tested at the
left-sided limit of every jump of either robot: a link out of range
just before a jump counts as broken.
:func:`~repro.network.links.links_alive_throughout` is that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.links import LinkTable, _alive_throughout
from repro.obs import span
from repro.robots.motion import SwarmTrajectory

__all__ = ["StableLinkReport", "stable_link_ratio", "stable_link_report"]


@dataclass(frozen=True)
class StableLinkReport:
    """Stable-link accounting for one transition.

    Attributes
    ----------
    initial_links : int
        ``sum_i m_i / 2`` - number of undirected M1 links.
    stable_links : int
        Links in range throughout the transition.
    ratio : float
        ``L`` per Definition 1.
    broken_mask : (m,) bool ndarray
        True where the corresponding initial link broke.
    """

    initial_links: int
    stable_links: int
    ratio: float
    broken_mask: np.ndarray


def stable_link_ratio(
    links: LinkTable, trajectory: SwarmTrajectory, resolution: int = 32
) -> float:
    """Definition 1's ``L`` over a trajectory.

    ``resolution`` is unused and kept for callers that pass it: ``L``
    is exact and samples no grid.
    """
    return stable_link_report(links, trajectory, resolution).ratio


def stable_link_report(
    links: LinkTable, trajectory: SwarmTrajectory, resolution: int = 32
) -> StableLinkReport:
    """Detailed stable-link accounting over a trajectory.

    ``resolution`` is unused, as in :func:`stable_link_ratio`.
    """
    with span("metrics.stable_links", links=links.link_count) as sp:
        stable, rows, jumps = _alive_throughout(links, trajectory)
        m = links.link_count
        s = int(stable.sum())
        ratio = 1.0 if m == 0 else s / m
        sp.set_attributes(rows=rows, jumps=jumps, stable=s, ratio=ratio)
    return StableLinkReport(
        initial_links=m,
        stable_links=s,
        ratio=ratio,
        broken_mask=~stable,
    )
