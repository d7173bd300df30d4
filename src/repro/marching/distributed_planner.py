"""A marching planner that runs the paper's *distributed* stages.

:class:`~repro.marching.planner.MarchingPlanner` computes every stage
centrally (fast, and convenient as an oracle).  This variant is the
same pipeline with four stages swapped for the message-passing
algorithms the paper describes, run through the
:mod:`repro.distributed` runtime:

===========================  =========================================
stage                        execution here
===========================  =========================================
triangulation extraction     localized one-hop Delaunay agreement
                             (:func:`extract_triangulation_localized`)
boundary parameterization    boundary-loop token protocol
                             (hop counting, Sec. III-B)
harmonic interior solve      the sparse solver - proven sweep-for-sweep
                             equivalent to the averaging protocol by
                             the test suite; running tens of thousands
                             of Jacobi message rounds per plan would
                             only burn time, not add fidelity
rotation-angle search        per-robot local scores flooded to a
                             global one (Sec. III-B / III-D2)
isolation detection          boundary-flood subgroup protocol
                             (Sec. III-D1), escorts as in the paper
===========================  =========================================

Straggler escort, FoI projection, the Lloyd adjustment (already a
local two-range-neighbour iteration), the time split and the detoured
march are inherited unchanged.  The test suite asserts this planner
reproduces the centralized planner's rotation angle and targets.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.distributed.protocols.boundary_loop import run_boundary_loop_protocol
from repro.distributed.protocols.rotation_search import DistributedRotationSearch
from repro.distributed.protocols.subgroup import run_subgroup_detection
from repro.errors import PlanningError
from repro.harmonic.boundary import circle_positions
from repro.harmonic.diskmap import DiskMap
from repro.harmonic.rotation import AngleSearchResult
from repro.harmonic.solvers import solve_linear
from repro.harmonic.transfer import InducedMap
from repro.marching.planner import MarchingConfig, MarchingPlanner
from repro.marching.result import RepairInfo
from repro.mesh.holes import fill_holes
from repro.mesh.trimesh import TriMesh
from repro.network.extract import extract_triangulation_localized
from repro.network.graphs import adjacency_from_edges, connected_components
from repro.network.links import links_alive

__all__ = ["DistributedMarchingPlanner"]

#: Escort rounds before the protocol repair gives up.
_REPAIR_ROUNDS = 10


class DistributedMarchingPlanner(MarchingPlanner):
    """Plans a transition using the distributed protocol stages.

    Parameters
    ----------
    config : MarchingConfig, optional
        Same knobs as the centralized planner, except that the token
        protocol fixes ``T``'s boundary, so ``boundary_mode`` and
        ``solver`` are overridden: every robot embeds the target FoI
        alone with chord weights and the linear solver (Sec. III-B).
    """

    label = "ours ({method}, distributed)"

    def __init__(self, config: MarchingConfig | None = None) -> None:
        super().__init__(
            replace(config or MarchingConfig(), boundary_mode="chord", solver="linear")
        )

    def _extract(self, p: np.ndarray, comm_range: float) -> tuple[TriMesh, np.ndarray]:
        """Localized-Delaunay extraction."""
        return extract_triangulation_localized(p, comm_range)

    def _embed_t(self, t_mesh: TriMesh) -> DiskMap:
        """Disk embedding whose boundary comes from the token protocol."""
        filled = fill_holes(t_mesh)
        loop = filled.mesh.outer_boundary_loop
        angle_by_vertex = run_boundary_loop_protocol(
            loop, filled.mesh.vertex_count, filled.mesh.adjacency
        )
        loop_arr = np.asarray(loop, dtype=int)
        bpos = circle_positions([angle_by_vertex[v] for v in loop])
        positions = solve_linear(filled.mesh, loop_arr, bpos)
        return DiskMap(
            source=t_mesh,
            filled=filled,
            disk_positions=positions,
            boundary_mode="uniform-protocol",
            solver="linear",
            iterations=0,
        )

    def _search_rotation(
        self,
        induced: InducedMap,
        dm_t: DiskMap,
        t_mesh: TriMesh,
        p_t: np.ndarray,
        t_links: np.ndarray,
        comm_range: float,
    ) -> tuple[AngleSearchResult, np.ndarray, dict[str, object]]:
        """Rotation search by local scores and floods."""
        cfg = self.config
        search = DistributedRotationSearch(
            induced,
            dm_t.robot_disk_positions,
            p_t,
            t_links,
            comm_range,
            [t_mesh.adjacency[v] for v in range(t_mesh.vertex_count)],
        )
        result, targets_t = search.run(
            depth=cfg.search_depth,
            initial_samples=cfg.initial_samples,
            maximize=cfg.method == "a",
        )
        return result, targets_t, {"flood_rounds": search.flood_rounds}

    def _repair(
        self,
        p: np.ndarray,
        q: np.ndarray,
        links: np.ndarray,
        anchors: tuple[int, ...],
        comm_range: float,
    ) -> tuple[np.ndarray, RepairInfo]:
        """Sec. III-D1 with the subgroup-detection *protocol* in the loop."""
        q = q.copy()
        n = len(p)
        escorted: dict[int, int] = {}
        isolated_before = -1
        full_adj = adjacency_from_edges(n, links)
        for round_idx in range(1, _REPAIR_ROUNDS + 1):
            alive = links_alive(links, q, comm_range) & links_alive(
                links, p, comm_range
            )
            preserved_adj = adjacency_from_edges(n, links[alive])
            isolated, hops = run_subgroup_detection(anchors, preserved_adj)
            if round_idx == 1:
                isolated_before = len(isolated)
            if not isolated:
                return q, RepairInfo(
                    escorted=tuple(sorted(escorted)),
                    references=dict(escorted),
                    rounds=round_idx,
                    isolated_before=isolated_before,
                )
            iso_set = set(isolated)
            # Group isolated robots over preserved links.
            sub_adj = [
                [w for w in preserved_adj[v] if w in iso_set] if v in iso_set else []
                for v in range(n)
            ]
            comps = [c for c in connected_components(sub_adj) if set(c) <= iso_set]
            progressed = False
            for comp in comps:
                best = None
                pair = None
                for v in comp:
                    for w in full_adj[v]:
                        if hops[w] is None:
                            continue
                        d = float(np.hypot(*(p[v] - p[w])))
                        key = (hops[w], d)
                        if best is None or key < best:
                            best, pair = key, (v, w)
                if pair is None:
                    continue
                _, ref = pair
                disp = q[ref] - p[ref]
                for member in comp:
                    q[member] = p[member] + disp
                    escorted[member] = ref
                progressed = True
            if not progressed:
                raise PlanningError("distributed repair stalled")
        raise PlanningError("distributed repair did not converge")
