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
rotation-angle search        the centralized halving search over
                             per-robot local scores flooded to a
                             global one (Sec. III-B / III-D2)
connectivity repair          :func:`~repro.marching.repair.repair_targets`
                             with the boundary-flood subgroup protocol
                             as its flood (Sec. III-D1)
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
from repro.harmonic.boundary import circle_positions
from repro.harmonic.diskmap import DiskMap
from repro.harmonic.rotation import AngleSearchResult
from repro.harmonic.solvers import solve_linear
from repro.harmonic.transfer import InducedMap
from repro.marching.planner import MarchingConfig, MarchingPlanner
from repro.marching.repair import repair_targets
from repro.marching.result import RepairInfo
from repro.mesh.holes import fill_holes
from repro.mesh.trimesh import TriMesh
from repro.network.extract import extract_triangulation_localized

__all__ = ["DistributedMarchingPlanner"]


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
        """Sec. III-D1 with the subgroup-detection *protocol* as the flood."""
        return repair_targets(
            p, q, comm_range, anchors, links=links, reach=_protocol_hops
        )


def _protocol_hops(adjacency: list[list[int]], anchors: list[int]) -> np.ndarray:
    """Boundary hop counts from the protocol, ``-1`` for isolated robots."""
    _, hops = run_subgroup_detection(anchors, adjacency)
    return np.array([-1 if h is None else h for h in hops], dtype=int)
