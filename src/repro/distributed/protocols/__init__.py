"""Message-passing protocols backing the paper's distributed claims."""

from repro.distributed.protocols.averaging import (
    AveragingNode,
    run_distributed_harmonic,
)
from repro.distributed.protocols.boundary_loop import (
    BoundaryLoopNode,
    run_boundary_loop_protocol,
)
from repro.distributed.protocols.flooding import FloodSumNode, flood_aggregate
from repro.distributed.protocols.reliable_flood import (
    ReliableFloodNode,
    reliable_flood_aggregate,
)
from repro.distributed.protocols.rotation_search import DistributedRotationSearch
from repro.distributed.protocols.subgroup import (
    SubgroupDetectionNode,
    run_subgroup_detection,
)

__all__ = [
    "AveragingNode",
    "BoundaryLoopNode",
    "DistributedRotationSearch",
    "FloodSumNode",
    "ReliableFloodNode",
    "SubgroupDetectionNode",
    "flood_aggregate",
    "reliable_flood_aggregate",
    "run_boundary_loop_protocol",
    "run_distributed_harmonic",
    "run_subgroup_detection",
]
