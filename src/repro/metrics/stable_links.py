"""Total stable link ratio ``L`` (paper Definition 1).

A link counts as *stable* when the two robots remain within
communication range at every instant of the transition.  For
synchronous piecewise-linear motion the inter-robot distance is convex
on every common linear sub-interval, so evaluating at the union of the
trajectory's critical times (all waypoint times) and a safety grid is
exact.  Trajectories may additionally contain *discontinuities* -
duplicated waypoint times modelling instantaneous jumps - where
interval sampling only sees the post-jump position; the evaluator
therefore also checks the left-sided limit at each discontinuity so a
link that is out of range just before a jump is correctly counted as
broken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.connectivity import _position_blocks
from repro.network.links import LinkTable
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
        Links alive at every evaluated instant.
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
    """Definition 1's ``L`` over a trajectory."""
    return stable_link_report(links, trajectory, resolution).ratio


def stable_link_report(
    links: LinkTable, trajectory: SwarmTrajectory, resolution: int = 32
) -> StableLinkReport:
    """Detailed stable-link accounting over a trajectory."""
    times = trajectory.sample_times(resolution)
    with span(
        "metrics.stable_links",
        links=links.link_count,
        samples=int(len(times)),
    ) as sp:
        stable = _stable_over(links, trajectory, times, "right")
        disc = trajectory.discontinuity_times()
        if len(disc):
            # Right-continuous sampling above misses the pre-jump
            # positions; AND in aliveness at the left-sided limits.
            stable &= _stable_over(links, trajectory, disc, "left")
        m = links.link_count
        s = int(stable.sum())
        ratio = 1.0 if m == 0 else s / m
        sp.set_attributes(stable=s, ratio=ratio, discontinuities=int(len(disc)))
    return StableLinkReport(
        initial_links=m,
        stable_links=s,
        ratio=ratio,
        broken_mask=~stable,
    )


def _stable_over(
    links: LinkTable, trajectory: SwarmTrajectory, times: np.ndarray, side: str
) -> np.ndarray:
    """Links alive at every one of ``times`` (``side``-limits at jumps)."""
    stable = np.ones(links.link_count, dtype=bool)
    for table in _position_blocks(trajectory, times, side):
        stable &= links.stable_mask_over(table)
        if not stable.any():
            break
    return stable
