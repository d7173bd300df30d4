"""Energy accounting: movement plus link re-pairing overhead.

The paper motivates link preservation economically: "Two ANRs can
communicate with each other only if they are paired and have
established a secure link.  The extensive change of local connectivity
may result in significant overhead and delay for re-pairing the
wireless links" - and the evaluation notes that preserving links
"saves a lot of energy on updating new connections".

This module turns that argument into numbers.  A transition's energy is

``E = move_cost_per_meter * D  +  pairing_cost * (# pairing events)``

where a *pairing event* is any pair of robots coming into communication
range (0 -> 1 edge transition) at some sampled instant of the
transition - including a previously-broken pair re-pairing.  The
initial deployment's links are considered already paired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.connectivity import _position_blocks
from repro.network.udg import udg_edges
from repro.robots.motion import SwarmTrajectory

__all__ = ["EnergyModel", "LinkChurnReport", "link_churn", "transition_energy"]


@dataclass(frozen=True)
class LinkChurnReport:
    """Link-state transitions over a sampled transition.

    Attributes
    ----------
    pairing_events : int
        0 -> 1 transitions summed over all robot pairs (secure-link
        establishments the swarm must perform).
    breaking_events : int
        1 -> 0 transitions (lost pairings).
    initial_links, final_links : int
    stable_links : int
        Pairs connected at every sampled instant.
    samples : int
    """

    pairing_events: int
    breaking_events: int
    initial_links: int
    final_links: int
    stable_links: int
    samples: int

    @property
    def churn(self) -> int:
        """Total link-state transitions (pairings + breaks)."""
        return self.pairing_events + self.breaking_events

    @property
    def new_pairings_required(self) -> int:
        """Secure pairings the *arrived* network needs: final links that
        were not maintained throughout - exactly the red ("new") edges
        of the paper's Fig. 2/3/5 colour convention.  Transient
        brush-past contacts during the march (counted in
        ``pairing_events``) need not be paired at all."""
        return self.final_links - self.stable_links


def link_churn(
    trajectory: SwarmTrajectory, comm_range: float, resolution: int = 32
) -> LinkChurnReport:
    """Count pairing/breaking events over a transition.

    Distances are evaluated at the trajectory's critical times merged
    with a uniform grid (exact for synchronous piecewise-linear motion,
    see :mod:`repro.robots.motion`).  Positions are fetched a block of
    instants at a time and each instant's links come from the spatial
    hash of :func:`~repro.network.udg.udg_edges`, so memory stays
    linear in the swarm and in its links.
    """
    times = trajectory.sample_times(resolution)
    n = trajectory.robot_count
    prev = stable = None
    pairing = breaking = initial = 0
    for table in _position_blocks(trajectory, times):
        for snapshot in table:
            e = udg_edges(snapshot, comm_range)
            links = np.unique(e[:, 0] * n + e[:, 1])  # one sorted key per link
            if prev is None:
                initial = len(links)
                stable = links
            else:
                pairing += len(np.setdiff1d(links, prev, assume_unique=True))
                breaking += len(np.setdiff1d(prev, links, assume_unique=True))
                stable = np.intersect1d(stable, links, assume_unique=True)
            prev = links
    final = len(prev) if prev is not None else 0
    return LinkChurnReport(
        pairing_events=pairing,
        breaking_events=breaking,
        initial_links=initial,
        final_links=final,
        stable_links=len(stable) if stable is not None else 0,
        samples=len(times),
    )


@dataclass(frozen=True)
class EnergyModel:
    """Cost coefficients of the energy account.

    Attributes
    ----------
    move_cost_per_meter : float
        Joules per metre of robot travel (default 6 J/m, a typical
        small ground robot at ~2 J/m/kg and ~3 kg).
    pairing_cost : float
        Joules per secure-link establishment (radio handshake + key
        agreement; default 25 J, dominated by the radio staying in
        high-duty mode during pairing).
    """

    move_cost_per_meter: float = 6.0
    pairing_cost: float = 25.0

    def movement_energy(self, trajectory: SwarmTrajectory) -> float:
        return self.move_cost_per_meter * trajectory.total_distance()

    def pairing_energy(self, churn: LinkChurnReport) -> float:
        """Cost of establishing the arrived network's new links."""
        return self.pairing_cost * churn.new_pairings_required


@dataclass(frozen=True)
class EnergyReport:
    """A transition's energy split."""

    movement: float
    pairing: float
    churn: LinkChurnReport

    @property
    def total(self) -> float:
        return self.movement + self.pairing


def transition_energy(
    trajectory: SwarmTrajectory,
    comm_range: float,
    model: EnergyModel | None = None,
    resolution: int = 32,
) -> EnergyReport:
    """Total transition energy under an :class:`EnergyModel`."""
    m = model or EnergyModel()
    churn = link_churn(trajectory, comm_range, resolution)
    return EnergyReport(
        movement=m.movement_energy(trajectory),
        pairing=m.pairing_energy(churn),
        churn=churn,
    )
