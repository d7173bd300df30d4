"""Evaluation metrics: moving distance D, stable link ratio L, connectivity C."""

from repro.metrics.connectivity import (
    ConnectivityReport,
    connectivity_report,
    global_connectivity,
    isolated_counts,
)
from repro.metrics.energy import (
    EnergyModel,
    LinkChurnReport,
    link_churn,
    transition_energy,
)
from repro.metrics.distance import (
    DistanceReport,
    distance_report,
    straight_line_lower_bound,
    total_moving_distance,
)
from repro.metrics.recovery import RecoveryMetrics
from repro.metrics.stable_links import (
    StableLinkReport,
    stable_link_ratio,
    stable_link_report,
)

__all__ = [
    "ConnectivityReport",
    "DistanceReport",
    "EnergyModel",
    "LinkChurnReport",
    "RecoveryMetrics",
    "StableLinkReport",
    "link_churn",
    "transition_energy",
    "connectivity_report",
    "distance_report",
    "global_connectivity",
    "isolated_counts",
    "stable_link_ratio",
    "stable_link_report",
    "straight_line_lower_bound",
    "total_moving_distance",
]
