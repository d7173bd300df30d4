"""Tests for unit-disk graphs and link bookkeeping."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.network import (
    LinkTable,
    UnitDiskGraph,
    links_alive,
    links_alive_throughout,
    udg_edges,
)
from repro.network import links as links_module
from repro.robots import SwarmTrajectory
from tests.links_oracle import stable_link_ratio_over, stable_mask_over

LINE = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 0.0]])


def through(snapshots):
    """Every robot moves linearly from one snapshot to the next, one per
    unit of time, so Definition 1 over it is the per-snapshot rule."""
    snaps = np.asarray(snapshots, dtype=float)
    k, n = snaps.shape[:2]
    return SwarmTrajectory(
        np.arange(n + 1) * k, np.tile(np.arange(k, dtype=float), n),
        snaps.transpose(1, 0, 2).reshape(-1, 2), 0.0, float(k - 1),
    )


class TestUdgEdges:
    def test_chain(self):
        e = udg_edges(LINE, 1.5)
        assert e.tolist() == [[0, 1], [1, 2]]

    def test_no_edges(self):
        e = udg_edges(LINE, 0.5)
        assert len(e) == 0

    def test_complete(self):
        e = udg_edges(LINE, 10.0)
        assert len(e) == 6

    def test_single_node(self):
        assert len(udg_edges([[0.0, 0.0]], 1.0)) == 0

    def test_bad_range(self):
        with pytest.raises(GeometryError):
            udg_edges(LINE, 0.0)

    def test_boundary_inclusive(self):
        e = udg_edges([[0, 0], [1, 0]], 1.0)
        assert len(e) == 1


class TestUnitDiskGraph:
    def test_neighbors(self):
        g = UnitDiskGraph(LINE, 1.5)
        assert g.neighbors(1) == [0, 2]
        assert g.neighbors(3) == []
        assert g.degree(0) == 1

    def test_has_edge(self):
        g = UnitDiskGraph(LINE, 1.5)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 3)

    def test_components(self):
        g = UnitDiskGraph(LINE, 1.5)
        comps = g.components
        assert comps[0] == [0, 1, 2]
        assert comps[1] == [3]
        assert not g.is_connected()

    def test_connected(self):
        g = UnitDiskGraph(LINE[:3], 1.5)
        assert g.is_connected()

    def test_single_node_connected(self):
        assert UnitDiskGraph([[0.0, 0.0]], 1.0).is_connected()

    def test_nodes_connected_to(self):
        g = UnitDiskGraph(LINE, 1.5)
        mask = g.nodes_connected_to([0])
        assert mask.tolist() == [True, True, True, False]

    def test_anchor_out_of_range(self):
        g = UnitDiskGraph(LINE, 1.5)
        with pytest.raises(GeometryError):
            g.nodes_connected_to([99])

    @given(st.integers(2, 12), st.floats(0.5, 3.0))
    @settings(max_examples=50)
    def test_edge_symmetry_property(self, n, rc):
        rng = np.random.default_rng(n)
        pts = rng.uniform(0, 5, (n, 2))
        g = UnitDiskGraph(pts, rc)
        d = np.hypot(*(pts[:, None] - pts[None, :]).T)
        for i, j in g.edges:
            assert d[i, j] <= rc + 1e-12
        # Every in-range pair is present.
        expected = sum(
            1 for i in range(n) for j in range(i + 1, n) if d[i, j] <= rc
        )
        assert len(g.edges) == expected


class TestLinkTable:
    def test_from_positions(self):
        table = LinkTable.from_positions(LINE, 1.5)
        assert table.link_count == 2

    def test_alive_mask_after_move(self):
        table = LinkTable.from_positions(LINE, 1.5)
        moved = LINE + np.array([[0, 0], [0, 2.0], [0, 0], [0, 0]])
        mask = table.alive_mask(moved)
        assert mask.tolist() == [False, False]  # robot 1 moved away from both

    def test_surviving_fraction(self):
        table = LinkTable.from_positions(LINE, 1.5)
        assert table.surviving_fraction(LINE) == 1.0

    def test_empty_links_fraction_one(self):
        table = LinkTable.from_positions(LINE, 0.5)
        assert table.surviving_fraction(LINE) == 1.0

    def test_stable_mask_over_snapshots(self):
        table = LinkTable.from_positions(LINE, 1.5)
        mid = LINE + np.array([[0, 0], [0, 5.0], [0, 0], [0, 0]])
        snaps = [LINE, mid, LINE]  # link breaks mid-way then returns
        assert stable_mask_over(table, snaps).tolist() == [False, False]
        assert links_alive_throughout(table, through(snaps)).tolist() == [False, False]

    def test_stable_ratio_definition(self):
        table = LinkTable.from_positions(LINE, 1.5)
        mid = LINE + np.array([[0, 0], [0, 0], [0, 5.0], [0, 0]])
        # Only link (1,2) breaks; (0,1) stays.
        assert stable_link_ratio_over(table, [LINE, mid]) == pytest.approx(0.5)
        assert links_alive_throughout(table, through([LINE, mid])).mean() == 0.5

    def test_links_alive_function(self):
        links = np.array([[0, 1], [1, 2]])
        alive = links_alive(links, LINE, 1.5)
        assert alive.tolist() == [True, True]
        alive = links_alive(np.zeros((0, 2), dtype=int), LINE, 1.5)
        assert len(alive) == 0


quarter = st.integers(0, 12).map(lambda v: v / 4.0)


@st.composite
def stacked_positions(draw):
    """``(k, n, 2)`` snapshots on a quarter grid (ranges hit exactly)."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(0, 12))
    return np.array(
        [[[draw(quarter), draw(quarter)] for _ in range(n)] for _ in range(k)]
    ).reshape(k, n, 2)


def per_snapshot_stable(links, snapshots, comm_range):
    """Definition 1's mask, one snapshot at a time (the oracle)."""
    stable = np.ones(len(links), dtype=bool)
    for pos in snapshots:
        stable &= links_alive(links, pos, comm_range)
    return stable


class TestStackedLinks:
    @given(snaps=stacked_positions(),
           comm_range=st.sampled_from([0.25, 0.75, 1.0, 1.5]))
    @settings(max_examples=100, deadline=None)
    def test_links_alive_is_the_udg_predicate(self, snaps, comm_range):
        # Every pair is up under links_alive exactly when udg_edges keeps
        # it: the spanning-tree witness of Definition 2 relies on this.
        n = snaps.shape[1]
        pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
        for pos in snaps:
            edges = {tuple(e) for e in udg_edges(pos, comm_range).tolist()}
            alive = links_alive(pairs, pos, comm_range)
            assert {tuple(p) for p in pairs[alive].tolist()} == edges

    @given(snaps=stacked_positions(),
           comm_range=st.sampled_from([0.25, 0.75, 1.0, 1.5]))
    @settings(max_examples=100, deadline=None)
    def test_stacked_equals_per_snapshot(self, snaps, comm_range):
        n = snaps.shape[1]
        links = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
        got = links_alive(links, snaps, comm_range)
        assert got.shape == (len(snaps), len(links))
        for k, pos in enumerate(snaps):
            assert got[k].tolist() == links_alive(links, pos, comm_range).tolist()

    @given(snaps=stacked_positions(),
           comm_range=st.sampled_from([0.75, 1.0, 1.5, 2.5]),
           cells=st.sampled_from([1, 20, 50, links_module._SNAPSHOT_CELLS]),
           form=st.sampled_from(["array", "list", "generator"]))
    @settings(max_examples=100, deadline=None)
    def test_stable_mask_equals_per_snapshot_loop(self, snaps, comm_range,
                                                  cells, form):
        # The kernel tests instants every robot has a row at as blocks
        # of whole-swarm snapshots; any block size gives the same mask.
        start = snaps[0] if len(snaps) else np.zeros((snaps.shape[1], 2))
        table = LinkTable.from_positions(start, comm_range)
        given_snaps = {"array": snaps, "list": list(snaps),
                       "generator": (pos for pos in snaps)}[form]
        want = per_snapshot_stable(table.links, snaps, comm_range)
        assert stable_mask_over(table, given_snaps).tolist() == want.tolist()
        if len(snaps):
            with mock.patch.object(links_module, "_SNAPSHOT_CELLS", cells):
                got = links_alive_throughout(table, through(snaps))
            assert got.dtype == bool
            assert got.tolist() == want.tolist()

    def test_stacked_rejects_bad_shapes(self):
        links = np.array([[0, 1]])
        with pytest.raises(GeometryError):
            links_alive(links, np.zeros((2, 3, 3)), 1.0)
        with pytest.raises(GeometryError):
            links_alive(links, np.full((2, 2, 2), np.nan), 1.0)

    def test_empty_links_stacked(self):
        assert links_alive(np.zeros((0, 2), dtype=int),
                           np.zeros((3, 4, 2)), 1.0).shape == (3, 0)
