"""Networking substrate: unit-disk graphs, links, extraction, graph utils."""

from repro.network.extract import (
    edge_shared_neighbor_counts,
    extract_triangulation,
    extract_triangulation_localized,
)
from repro.network.graphs import adjacency_from_edges, bfs_hops, component_labels
from repro.network.links import LinkTable, links_alive, links_alive_throughout
from repro.network.udg import UnitDiskGraph, udg_edges

__all__ = [
    "LinkTable",
    "UnitDiskGraph",
    "adjacency_from_edges",
    "bfs_hops",
    "component_labels",
    "edge_shared_neighbor_counts",
    "extract_triangulation",
    "extract_triangulation_localized",
    "links_alive",
    "links_alive_throughout",
    "udg_edges",
]
