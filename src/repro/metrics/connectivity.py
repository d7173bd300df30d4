"""Global connectivity ``C`` over a transition (paper Definition 2).

A transition has ``C = 1`` when, at every instant, every robot has a
multi-hop communication path to the network boundary (the robots on the
outer boundary loop of the extracted triangulation ``T``).
:func:`isolated_counts` is the package's one evaluator of that
predicate.  With no anchors - ``None``, empty, or none left once absent
robots are dropped - it degrades to plain graph connectivity, the same
predicate whenever the anchors are a non-empty subset of the swarm.
:func:`connectivity_report` evaluates it at the right-sided
``sample_times`` plus the left-sided limit at every jump in
``discontinuity_times``.

Witness law: if every link of one spanning tree of the present robots
is up under the unit-disk predicate (``hypot <= r``, the test
:func:`~repro.network.udg.udg_edges` applies to every pair), the graph
is connected, so no robot is isolated, with anchors or without.  A
connected instant that is evaluated in full therefore seeds a witness
(:func:`~repro.network.graphs.spanning_tree` of its links), and the
instants after it with the same present robots test only the tree
links that are not *certified*, a block at a time; the first one where
such a link is down, or the present set changes, gets a full graph
again.

Certified links are links the caller knows to be up at every instant
it asks about.  :func:`connectivity_report` takes them from the link
kernel: the links at ``t_start`` that
:func:`~repro.network.links.links_alive_throughout` keeps within the
range less :func:`_rounding_band` for the whole transition, which keeps
them within the range at every instant the sampler evaluates.  If they
connect the swarm, ``C = 1`` at every instant and nothing is sampled.
Otherwise the witness prefers them (they weigh least), so each tree is
their forest plus ``c - 1`` *bridges*, only the bridges are tested, and
while the bridges' endpoints are fewer than ``_SWARM_SHARE`` of the
robots only their positions are read.  The counts do not depend on
which tree is the witness, so the certificate changes the work and
never the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError
from repro.network.graphs import component_labels, spanning_tree
from repro.network.links import (
    _SWARM_SHARE, LinkTable, links_alive, links_alive_throughout,
)
from repro.network.udg import UnitDiskGraph, udg_edges
from repro.obs import span
from repro.robots.motion import SwarmTrajectory

__all__ = [
    "ConnectivityReport", "connectivity_report", "global_connectivity",
    "isolated_counts",
]

# Instants whose witness links are tested in one vectorised call.
_WITNESS_BLOCK = 32
# Instants whose positions :func:`_position_blocks` fetches from the
# trajectory at once, so memory stays O(n) however many instants a
# sampler over a whole transition reads.
_POSITION_BLOCK = 64


def _position_blocks(trajectory: SwarmTrajectory, times, side: str = "right"):
    """``trajectory.positions_over(times, side)`` in consecutive tables of
    at most ``_POSITION_BLOCK`` instants each."""
    for lo in range(0, len(times), _POSITION_BLOCK):
        yield trajectory.positions_over(times[lo:lo + _POSITION_BLOCK], side=side)


@dataclass(frozen=True)
class ConnectivityReport:
    """Outcome of the Definition-2 check over a transition.

    Attributes
    ----------
    connected : bool
        The paper's ``C`` as a boolean.
    first_failure_time : float or None
        Earliest evaluated instant at which some robot lost its path to
        the boundary anchors (a jump time when only the left-sided
        limit there fails).
    max_isolated : int
        Largest number of simultaneously isolated robots at any instant.
    samples : int
        Number of instants evaluated, right-sided and left-sided.
    left_limit_isolated : int
        Largest isolated count over the left-sided limits alone.
    """

    connected: bool
    first_failure_time: float | None
    max_isolated: int
    samples: int
    left_limit_isolated: int = 0

    @property
    def as_flag(self) -> str:
        """Table-I style "Y"/"N" rendering."""
        return "Y" if self.connected else "N"


def isolated_counts(
    trajectory: SwarmTrajectory,
    comm_range: float,
    anchors,
    times,
    *,
    side: str = "right",
    alive_until=None,
    certified=None,
) -> np.ndarray:
    """Isolated robots at each of ``times`` (``side``-limits at jumps).

    ``anchors`` are the boundary robot indices (``None``/empty: plain
    connectivity).  ``alive_until`` holds per-robot crash times (``inf``
    = never); robot ``j`` is present at ``t`` iff ``t < alive_until[j]``,
    and absent robots neither count nor relay.  ``certified`` holds
    ``(m, 2)`` links the caller knows to be up at every one of ``times``
    from ``side``: a witness takes them first and never tests them.
    Returns a ``(k,)`` int array, whatever ``certified`` is.

    An instant is evaluated in full (one unit-disk graph) unless the
    spanning-tree witness of the last full evaluation still holds at it:
    same present robots, every tree link up.  Then it is connected and
    its count is 0.  A full graph reads the positions of its own instant;
    a witness reads ``_WITNESS_BLOCK`` instants at a time, of only its
    tested links' robots while they are fewer than ``_SWARM_SHARE`` of
    the swarm (:func:`_watch`).
    """
    ts = np.asarray(times, dtype=float)
    n = trajectory.robot_count
    is_anchor = np.zeros(n, dtype=bool)
    if anchors is not None:
        for a in (int(a) for a in anchors):
            if not 0 <= a < n:
                raise GeometryError(f"anchor {a} out of range")
            is_anchor[a] = True
    if alive_until is not None:
        alive_until = np.asarray(alive_until, dtype=float)
        if alive_until.shape != (n,):
            raise GeometryError(f"alive_until must have shape ({n},)")
    keys = None
    if certified is not None:
        pairs = np.sort(np.asarray(certified, dtype=np.int64).reshape(-1, 2), axis=1)
        keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
    counts = np.zeros(len(ts), dtype=int)
    with span("metrics.connectivity", samples=len(ts)) as sp:
        graphs = certified_instants = bridges = 0
        # Instants share a present set exactly when they share the
        # number of crash times at or before them.
        epoch = (
            np.zeros(len(ts), dtype=int) if alive_until is None
            else np.searchsorted(np.sort(alive_until), ts, side="right")
        )
        all_anchors = np.flatnonzero(is_anchor).tolist()
        tree, tree_epoch, k = None, None, 0
        while k < len(ts):
            if tree is not None and epoch[k] == tree_epoch:
                stop = k + _leading(epoch[k:k + _WITNESS_BLOCK] == tree_epoch)
                held = _leading(
                    _links_up(trajectory, tree, ts[k:stop], side, comm_range)
                )
                certified_instants += held
                k += held
                if k < stop:
                    tree = None
                continue
            tree = None
            snapshot = trajectory.positions_over(ts[k:k + 1], side=side)[0]
            local, present = all_anchors, None
            if alive_until is not None:
                present = np.flatnonzero(ts[k] < alive_until)
                if not len(present):
                    k += 1
                    continue
                snapshot = snapshot[present]
                local = np.flatnonzero(is_anchor[present]).tolist()
            graph = UnitDiskGraph(snapshot, comm_range)
            graphs += 1
            if local:
                counts[k] = int((~graph.nodes_connected_to(local)).sum())
            else:
                counts[k] = graph.node_count - len(graph.components[0])
            if (k + 1 < len(ts) and epoch[k + 1] == epoch[k]
                    and graph.is_connected()):
                tested = _witness(graph, present, keys, n)
                bridges = max(bridges, len(tested))
                tree, tree_epoch = _watch(tested, n), epoch[k]
            k += 1
        sp.set_attributes(
            graphs=graphs, certified=certified_instants,
            certified_links=0 if keys is None else len(keys), bridges=bridges,
        )
    return counts


def _watch(links: np.ndarray, n: int):
    """``(links, robots)``: the tested links over the robots read for
    them, while those are fewer than ``_SWARM_SHARE`` of the ``n``
    robots; ``(links, None)`` (every robot read) otherwise."""
    robots = np.unique(links)
    if len(robots) < _SWARM_SHARE * n:
        return np.searchsorted(robots, links), robots
    return links, None


def _links_up(trajectory: SwarmTrajectory, watched, ts: np.ndarray,
              side: str, comm_range: float) -> np.ndarray:
    """``(k,)`` bool: every watched link up at each of ``ts``."""
    links, robots = watched
    if not len(links):
        return np.ones(len(ts), dtype=bool)
    if robots is None:
        table = trajectory.positions_over(ts, side=side)
    else:
        table = trajectory.positions_of(robots, ts[:, None], side=side)
    return links_alive(links, table, comm_range).all(axis=1)


def _leading(mask: np.ndarray) -> int:
    """Length of the all-true prefix of a boolean vector."""
    return len(mask) if mask.all() else int(np.argmin(mask))


def _witness(graph: UnitDiskGraph, present, keys, n: int) -> np.ndarray:
    """The links a witness of a connected graph tests, as robot indices.

    A spanning tree of the graph's links, longest link minimised; with
    certified link ``keys`` (``i * n + j``, sorted) it is built from them
    first and only its other links - the bridges - are returned.
    ``present`` maps the graph's nodes to robots (``None``: the same).
    """
    e = graph.edges
    d = graph.positions[e[:, 0]] - graph.positions[e[:, 1]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    if keys is not None and len(e):
        # Certified links weigh least (1 in spanning_tree's ``1 + w``),
        # every other one more than 2, shorter ones still lighter.
        preferred = _member(e if present is None else present[e], keys, n)
        lengths = np.where(preferred, 0.0, 1.0 + lengths / (1.0 + lengths.max()))
    tree = spanning_tree(graph.node_count, e, lengths)
    if present is not None:
        tree = present[tree]
    return tree if keys is None else tree[~_member(tree, keys, n)]


def _member(pairs: np.ndarray, keys: np.ndarray, n: int) -> np.ndarray:
    """Which ``i < j`` robot pairs have their key ``i * n + j`` in ``keys``."""
    q = pairs[:, 0] * n + pairs[:, 1]
    if not len(keys):
        return np.zeros(len(q), dtype=bool)
    return np.take(keys, np.searchsorted(keys, q), mode="clip") == q


def _rounding_band(trajectory: SwarmTrajectory, comm_range: float) -> float:
    """How far inside ``comm_range`` a certified link must stay.

    Between its robots' rows a link's exact distance is convex, so the
    kernel's instants bound it.  Both the kernel and the sampler compute
    positions by the one blend ``a * x1 + (1 - a) * x0``: ``a`` carries
    at most 3 roundings, ``1 - a`` one more, each product and the sum
    one, so a coordinate is within ``(2 + 5a) eps M + eps M <= 8 eps M``
    of the exact point, ``M = max|xy|`` (an exact row, ``a = 0`` folded,
    is its own bits).  A computed distance is thus within
    ``sqrt(2) (16 + 2) eps M + eps r <= 26 eps M + eps r`` of the exact
    one, and a link within ``r - 52 eps M - 2 eps r`` at every kernel
    instant is within ``r`` at every instant the sampler computes; the
    band below covers that with room.
    """
    scale = float(np.abs(trajectory.xy).max())
    return 1e-9 * comm_range + 64 * np.finfo(float).eps * scale


def _certified_links(trajectory: SwarmTrajectory, comm_range: float,
                     times: np.ndarray) -> np.ndarray:
    """The links at ``t_start`` that stay up at every instant of ``times``.

    Each is proved by :func:`~repro.network.links.links_alive_throughout`
    at the range less :func:`_rounding_band`.  The kernel tests only
    from ``t_start`` to ``t_end``, so ``times`` reaching outside that
    interval (the ``1e-9`` tolerance of the critical times) get none.
    """
    if times.min() < trajectory.t_start or times.max() > trajectory.t_end:
        return np.zeros((0, 2), dtype=int)
    start = trajectory.positions_over([trajectory.t_start])[0]
    links = udg_edges(start, comm_range)
    shrunk = LinkTable(links, comm_range - _rounding_band(trajectory, comm_range))
    return links[links_alive_throughout(shrunk, trajectory)]


def global_connectivity(
    trajectory: SwarmTrajectory,
    comm_range: float,
    boundary_anchors=None,
    resolution: int = 32,
) -> bool:
    """Definition 2's ``C`` as a boolean."""
    return connectivity_report(
        trajectory, comm_range, boundary_anchors, resolution
    ).connected


def connectivity_report(
    trajectory: SwarmTrajectory,
    comm_range: float,
    boundary_anchors=None,
    resolution: int = 32,
) -> ConnectivityReport:
    """Definition 2 at ``sample_times(resolution)`` plus jump left-limits.

    ``boundary_anchors`` are the robot indices forming the network
    boundary; ``None`` requires plain connectivity of the whole graph.
    The certified links at ``t_start`` (:func:`_certified_links`) come
    first: when they connect the swarm the report is returned without
    sampling, and otherwise :func:`isolated_counts` tests only the
    bridges between their components.  The report is the one
    :func:`isolated_counts` gives without them, field for field.  The
    ``metrics.connectivity_report`` span records the
    ``certified_links``, their ``components`` and whether they
    ``proved`` ``C = 1``.
    """
    anchors = None if boundary_anchors is None else [int(a) for a in boundary_anchors]
    right = trajectory.sample_times(resolution)
    left = trajectory.discontinuity_times()
    times = np.concatenate([right, left])
    with span("metrics.connectivity_report", samples=len(times)) as sp:
        certified = _certified_links(trajectory, comm_range, times)
        labels = component_labels(trajectory.robot_count, certified)
        components = int(labels.max()) + 1
        sp.set_attributes(certified_links=len(certified),
                          components=components, proved=components == 1)
        if components == 1:
            return ConnectivityReport(
                connected=True, first_failure_time=None, max_isolated=0,
                samples=len(times), left_limit_isolated=0,
            )
        right_counts = isolated_counts(trajectory, comm_range, anchors, right,
                                       certified=certified)
        left_counts = isolated_counts(trajectory, comm_range, anchors, left,
                                      side="left", certified=certified)
    counts = np.concatenate([right_counts, left_counts])
    failed = counts > 0
    return ConnectivityReport(
        connected=not failed.any(),
        first_failure_time=float(times[failed].min()) if failed.any() else None,
        max_isolated=int(counts.max(initial=0)),
        samples=len(times),
        left_limit_isolated=int(left_counts.max(initial=0)),
    )
