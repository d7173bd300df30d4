"""Tests for the graph kernel: CSR adjacency, component labels,
spanning trees, BFS.

networkx is the oracle; a source scan keeps the kernel the only code
that labels components, builds CSR adjacency or builds spanning trees.
"""

import re
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh import TriMesh, vertex_fans
from repro.network import (
    UnitDiskGraph,
    adjacency_from_edges,
    bfs_hops,
    component_labels,
)
from repro.network.graphs import components_largest_first, spanning_tree

REPRO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

edge_list = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=40
)


def nx_graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u, v in edges if u != v)
    return g


class TestComponentLabels:
    def test_initial_singletons(self):
        assert component_labels(5, []).tolist() == [0, 1, 2, 3, 4]

    def test_union_connects(self):
        labels = component_labels(5, [(0, 1)])
        assert labels[0] == labels[1]
        assert labels.max() + 1 == 4

    def test_union_idempotent(self):
        once = component_labels(5, [(0, 1)])
        assert component_labels(5, [(0, 1), (1, 0), (0, 1)]).tolist() == once.tolist()

    def test_transitivity(self):
        labels = component_labels(5, [(0, 1), (1, 2)])
        assert labels[0] == labels[2]

    def test_component_sizes(self):
        labels = component_labels(6, [(0, 1), (2, 3), (3, 4)])
        assert sorted(np.bincount(labels).tolist(), reverse=True) == [3, 2, 1]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            component_labels(-1, [])

    @given(edge_list)
    @settings(max_examples=100)
    def test_matches_networkx_components(self, edges):
        n = 15
        labels = component_labels(n, edges)
        g = nx_graph(n, edges)
        assert labels.max() + 1 == nx.number_connected_components(g)
        for u in range(n):
            for v in range(n):
                assert (labels[u] == labels[v]) == nx.has_path(g, u, v)
        # Components are numbered in the order of their lowest node.
        lowest = [int(np.flatnonzero(labels == k)[0]) for k in range(labels.max() + 1)]
        assert lowest == sorted(lowest)


class TestSpanningTree:
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=1, max_size=14))
    @settings(max_examples=100)
    def test_minimum_forest_of_a_unit_disk_graph(self, cells):
        # A quarter grid: coincident robots give zero-length links and
        # many pairs sit exactly at range.
        pts = np.array(cells, dtype=float) / 4.0
        graph = UnitDiskGraph(pts, 0.5)
        d = pts[graph.edges[:, 0]] - pts[graph.edges[:, 1]]
        lengths = np.hypot(d[:, 0], d[:, 1])
        tree = spanning_tree(len(pts), graph.edges, lengths)
        g = nx.Graph()
        g.add_nodes_from(range(len(pts)))
        g.add_weighted_edges_from(
            (int(i), int(j), 1.0 + w) for (i, j), w in zip(graph.edges, lengths)
        )
        assert (tree[:, 0] < tree[:, 1]).all()
        assert {tuple(e) for e in tree.tolist()} <= graph.edge_set
        assert len(tree) == len(pts) - nx.number_connected_components(g)
        assert component_labels(len(pts), tree).tolist() == graph._labels.tolist()
        weight = dict(zip(map(tuple, graph.edges.tolist()), 1.0 + lengths))
        assert sum(weight[tuple(e)] for e in tree.tolist()) == pytest.approx(
            nx.minimum_spanning_tree(g).size(weight="weight")
        )

    def test_zero_length_link_kept(self):
        tree = spanning_tree(3, [(0, 1), (1, 2)], [0.0, 0.5])
        assert sorted(tree.tolist()) == [[0, 1], [1, 2]]


class TestAdjacencyAndBfs:
    def test_adjacency_builds_sorted(self):
        adj = adjacency_from_edges(4, [(0, 2), (2, 1), (0, 1)])
        assert adj == [[1, 2], [0, 2], [0, 1], []]

    def test_self_loops_dropped(self):
        adj = adjacency_from_edges(3, [(1, 1), (0, 1)])
        assert adj == [[1], [0], []]

    def test_bfs_hops_line(self):
        adj = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        hops = bfs_hops(adj, [0])
        assert hops.tolist() == [0, 1, 2, 3]

    def test_bfs_multi_source(self):
        adj = adjacency_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        hops = bfs_hops(adj, [0, 4])
        assert hops.tolist() == [0, 1, 2, 1, 0]

    def test_bfs_unreachable(self):
        adj = adjacency_from_edges(3, [(0, 1)])
        hops = bfs_hops(adj, [0])
        assert hops[2] == -1

    @given(edge_list, st.integers(0, 14))
    @settings(max_examples=100)
    def test_bfs_matches_networkx(self, edges, source):
        n = 15
        adj = adjacency_from_edges(n, edges)
        hops = bfs_hops(adj, [source])
        lengths = nx.single_source_shortest_path_length(nx_graph(n, edges), source)
        for v in range(n):
            expected = lengths.get(v, -1)
            assert hops[v] == expected

    def test_connected_components_order(self):
        labels = component_labels(6, [(0, 1), (1, 2), (3, 4)])
        comps = components_largest_first(labels)
        assert comps == [[0, 1, 2], [3, 4], [5]]


class TestKernelCallers:
    @given(
        st.lists(
            st.tuples(st.floats(0, 10), st.floats(0, 10)), min_size=1, max_size=25
        ),
        st.floats(0.5, 4.0),
        st.lists(st.integers(0, 24), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_udg_components_match_networkx(self, pts, rc, anchors):
        g = UnitDiskGraph(pts, rc)
        n = len(pts)
        oracle = nx_graph(
            n,
            [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if np.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) <= rc
            ],
        )
        expected = sorted(
            (sorted(c) for c in nx.connected_components(oracle)),
            key=lambda c: (-len(c), c[0]),
        )
        assert g.components == expected
        assert g.is_connected() == nx.is_connected(oracle)
        anchors = [a % n for a in anchors]
        reached = set(anchors).union(*(nx.node_connected_component(oracle, a) for a in anchors))
        assert np.flatnonzero(g.nodes_connected_to(anchors)).tolist() == sorted(reached)

    def test_largest_component_tie_keeps_triangle_zero(self):
        # Two equal two-triangle squares; triangle 0 lies in the square on
        # the higher-numbered vertices.
        verts = [(0, 0), (1, 0), (1, 1), (0, 1), (5, 0), (6, 0), (6, 1), (5, 1)]
        tris = [(4, 5, 6), (0, 1, 2), (0, 2, 3), (4, 6, 7)]
        big, vmap = TriMesh(verts, tris).largest_component()
        assert big.triangle_count == 2
        assert vmap.tolist() == [4, 5, 6, 7]

    def test_vertex_fans_order(self):
        # Vertex 0 carries three fans: {0}, {1, 3} and {2}.  The largest
        # comes first, equal sizes keep the lowest triangle first, and
        # each fan lists its triangles in ascending order.
        angles = np.radians([0, 30, 90, 120, 150, 220, 250])
        verts = [(0.0, 0.0)] + [(np.cos(a), np.sin(a)) for a in angles]
        tris = [(0, 1, 2), (0, 3, 4), (0, 6, 7), (0, 4, 5)]
        assert vertex_fans(TriMesh(verts, tris), 0) == [[1, 3], [0], [2]]


def test_one_component_kernel():
    """Only ``network/graphs.py`` labels components, builds CSR adjacency
    or builds spanning trees, and only it imports ``scipy.sparse.csgraph``."""
    forbidden = [r"def find\(", r"parent\[", r"stack\.pop\(\)", r"_frontier_neighbors"]
    kernel_only = [
        r"connected_components\(",
        r"np\.cumsum\(np\.bincount\(",
        r"minimum_spanning_tree\(",
        r"scipy\.sparse\.csgraph|from\s+scipy\.sparse\s+import[^\n]*\bcsgraph\b",
    ]
    sources = {
        str(path.relative_to(REPRO_SRC)): path.read_text()
        for path in REPRO_SRC.rglob("*.py")
    }
    found = {
        pattern: sorted(name for name, text in sources.items() if re.search(pattern, text))
        for pattern in forbidden + kernel_only
    }
    assert found == {
        **{pattern: [] for pattern in forbidden},
        **{pattern: ["network/graphs.py"] for pattern in kernel_only},
    }
