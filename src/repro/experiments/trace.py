"""Time-series traces of a transition: links, isolation, compression.

The paper's metrics (``D``, ``L``, ``C``) are scalars per transition;
this module records *how the transition unfolds*: at every sampled
instant, how many of the initial links are still alive, how many links
exist at all (the mid-flight compression effect), and how many robots
lack a path to the boundary.  Traces explain the scalars - e.g. L's
denominator effects - and render as an SVG time-series chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.metrics.connectivity import _position_blocks, isolated_counts
from repro.network.links import LinkTable
from repro.network.udg import udg_edges
from repro.robots.motion import SwarmTrajectory
from repro.viz.chart import LineChart

__all__ = ["TransitionTrace", "record_trace", "render_trace_chart"]


@dataclass(frozen=True)
class TransitionTrace:
    """Sampled time series over one transition.

    Attributes
    ----------
    times : (k,) ndarray
        Sample instants.
    initial_links_alive : (k,) int ndarray
        Initial links within range at each instant.
    total_links : (k,) int ndarray
        All links of the instantaneous unit-disk graph.
    isolated : (k,) int ndarray
        Robots without a path to the boundary anchors, per
        :func:`~repro.metrics.connectivity.isolated_counts`.
    stable_links_running : (k,) int ndarray
        Initial links alive at *every* instant up to and including this
        one - a non-increasing curve whose last value is L's numerator.
    """

    times: np.ndarray
    initial_links_alive: np.ndarray
    total_links: np.ndarray
    isolated: np.ndarray
    stable_links_running: np.ndarray

    @property
    def initial_link_count(self) -> int:
        return int(self.initial_links_alive[0])

    @property
    def final_stable_ratio(self) -> float:
        m = self.initial_link_count
        return 1.0 if m == 0 else float(self.stable_links_running[-1]) / m

    @property
    def peak_compression(self) -> float:
        """Max total links relative to the initial count (>= 1 when the
        formation transiently bunches up)."""
        m = max(self.initial_link_count, 1)
        return float(self.total_links.max()) / m


def record_trace(
    trajectory: SwarmTrajectory,
    links: LinkTable,
    boundary_anchors=None,
    resolution: int = 48,
) -> TransitionTrace:
    """Sample a trajectory into a :class:`TransitionTrace`."""
    times = trajectory.sample_times(resolution)
    alive_counts = []
    total_counts = []
    running = []
    stable = np.ones(links.link_count, dtype=bool)
    for table in _position_blocks(trajectory, times):
        for snapshot in table:
            alive = links.alive_mask(snapshot)
            stable &= alive
            alive_counts.append(int(alive.sum()))
            running.append(int(stable.sum()))
            total_counts.append(len(udg_edges(snapshot, links.comm_range)))
    return TransitionTrace(
        times=times,
        initial_links_alive=np.asarray(alive_counts),
        total_links=np.asarray(total_counts),
        isolated=isolated_counts(
            trajectory, links.comm_range, boundary_anchors, times
        ),
        stable_links_running=np.asarray(running),
    )


def render_trace_chart(trace: TransitionTrace, path, title: str = "Transition trace") -> Path:
    """Render a trace as an SVG time-series chart.

    Series are normalised by the initial link count so the stable-link
    floor and the mid-flight compression read off the same axis.
    """
    m = max(trace.initial_link_count, 1)
    chart = LineChart(
        title=title,
        x_label="transition time t / T",
        y_label="links / initial links",
        width=720,
    )
    chart.add_series(
        "initial links alive", trace.times, trace.initial_links_alive / m,
        color="#2a78d6",
    )
    chart.add_series(
        "stable so far", trace.times, trace.stable_links_running / m,
        color="#1baf7a",
    )
    chart.add_series(
        "all links", trace.times, trace.total_links / m, color="#eda100"
    )
    return chart.save(path)
