"""Distributed rotation-angle search (paper Sec. III-B / III-D2).

"At each step, a mobile robot divides current search interval of angle
into two and rotates its mapped position in unit disk with the midpoint
angle of the interval.  The mobile robot computes its mapped position
in M2 and exchanges the position with its one-range neighbors.  After
calculating its own stable link ratio, the mobile robot then floods the
information to other mobile robots."

Each robot here:

* holds only its own disk position and the (shared, static) target-FoI
  disk mesh - exactly what the paper loads onto every robot,
* evaluates a candidate angle *locally*: it rotates its own disk point,
  maps it into M2, exchanges mapped positions with its one-range
  neighbours, and counts its own surviving links (method (a)) or its
  own moving distance (method (b)),
* flood-sums the local scores so every robot holds the same global
  score, then all robots apply the identical deterministic
  interval-halving step - keeping the swarm's search state consistent
  without a leader.

That halving step is :func:`repro.harmonic.rotation.hierarchical_angle_search`
itself, run over the flooded global score: the protocol changes only
how a candidate angle is scored, not how the search proceeds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distributed.protocols.flooding import flood_aggregate
from repro.errors import ProtocolError
from repro.harmonic.rotation import AngleSearchResult, hierarchical_angle_search
from repro.harmonic.transfer import InducedMap
from repro.obs import span

__all__ = ["DistributedRotationSearch"]


class DistributedRotationSearch:
    """Coordinates the swarm-wide angle search over a message topology.

    Parameters
    ----------
    induced : InducedMap
        The target FoI's disk embedding (known to every robot).
    disk_positions : (n, 2) ndarray
        Each robot's own position in T's disk embedding.
    start_positions : (n, 2) ndarray
        Geographic positions in M1 (for method (b)'s distances).
    links : (m, 2) int ndarray
        Communication links in M1.
    comm_range : float
    adjacency : sequence of sequences
        The communication topology used for the score flooding.
    """

    def __init__(
        self,
        induced: InducedMap,
        disk_positions: np.ndarray,
        start_positions: np.ndarray,
        links: np.ndarray,
        comm_range: float,
        adjacency: Sequence[Sequence[int]],
    ) -> None:
        self.induced = induced
        self.disk = np.asarray(disk_positions, dtype=float)
        self.starts = np.asarray(start_positions, dtype=float)
        self.links = np.asarray(links, dtype=int).reshape(-1, 2)
        self.comm_range = float(comm_range)
        self.adjacency = adjacency
        n = len(self.disk)
        if len(self.starts) != n or len(adjacency) != n:
            raise ProtocolError("inconsistent robot counts")
        self.flood_rounds = 0

    # ------------------------------------------------------------------

    def _evaluate(self, angle: float, maximize: bool) -> tuple[np.ndarray, float]:
        """One candidate angle: the mapped targets and the flooded score."""
        # Every robot maps its own rotated disk point (local computation;
        # one batch call computes all robots' images at once).
        targets = self.induced.map_points(self.disk, rotation=angle)
        if maximize:
            # Local score: my surviving incident links (each link is seen
            # by both endpoints; the global flood sum therefore counts
            # every link twice, uniformly - the argmax is unaffected,
            # mirroring the double-sum in Definition 1).
            d = targets[self.links[:, 0]] - targets[self.links[:, 1]]
            alive = np.hypot(d[:, 0], d[:, 1]) <= self.comm_range
            local = np.bincount(
                self.links.ravel(),
                weights=np.repeat(alive, 2),
                minlength=len(self.disk),
            ).tolist()
        else:
            # Local score: my own moving distance (negated: flooding
            # computes a sum, the halving step always maximises).
            d = targets - self.starts
            local = (-np.hypot(d[:, 0], d[:, 1])).tolist()
        totals = flood_aggregate(local, self.adjacency)
        self.flood_rounds += 1
        if max(totals) - min(totals) > 1e-6 * max(1.0, abs(totals[0])):
            raise ProtocolError("robots disagree on the flooded score")
        return targets, totals[0]

    def run(
        self,
        depth: int = 4,
        initial_samples: int = 4,
        maximize: bool = True,
    ) -> tuple[AngleSearchResult, np.ndarray]:
        """Execute the search; returns the result and the winning targets."""
        if depth < 0:
            raise ProtocolError("depth must be non-negative")
        targets_at: dict[float, np.ndarray] = {}

        def flooded_score(angle: float) -> float:
            targets_at[angle], score = self._evaluate(angle, maximize)
            return score

        with span(
            "distributed.rotation_search",
            depth=depth,
            initial_samples=initial_samples,
            robots=len(self.disk),
        ) as sp:
            # The flooded score is already sign-normalised (method (b)
            # negates each robot's distance), so the search maximises.
            result = hierarchical_angle_search(
                flooded_score, depth=depth, initial_samples=initial_samples
            )
            sp.set_attributes(
                angle=result.angle,
                evaluations=result.evaluations,
                flood_rounds=self.flood_rounds,
            )
        # The search hands the objective ``angle % 2pi`` and returns its
        # best angle the same way, so the key is exact.
        return result, targets_at[result.angle]
