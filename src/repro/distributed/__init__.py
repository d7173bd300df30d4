"""Synchronous message-passing runtime and the paper's protocols."""

from repro.distributed.protocols import (
    AveragingNode,
    BoundaryLoopNode,
    DistributedRotationSearch,
    FloodSumNode,
    ReliableFloodNode,
    SubgroupDetectionNode,
    flood_aggregate,
    reliable_flood_aggregate,
    run_boundary_loop_protocol,
    run_distributed_harmonic,
    run_subgroup_detection,
)
from repro.distributed.runtime import LinkFaults, Message, Node, NodeApi, SyncNetwork

__all__ = [
    "AveragingNode",
    "BoundaryLoopNode",
    "DistributedRotationSearch",
    "FloodSumNode",
    "LinkFaults",
    "Message",
    "Node",
    "NodeApi",
    "ReliableFloodNode",
    "SubgroupDetectionNode",
    "SyncNetwork",
    "flood_aggregate",
    "reliable_flood_aggregate",
    "run_boundary_loop_protocol",
    "run_distributed_harmonic",
    "run_subgroup_detection",
]
