"""Tests for transition time-series traces."""

import numpy as np
import pytest

from repro.experiments import record_trace, render_trace_chart
from repro.network import LinkTable
from repro.robots import straight_transition


def chain(n, spacing=1.0):
    return np.column_stack([np.arange(n) * spacing, np.zeros(n)])


class TestRecordTrace:
    def test_static_swarm_flat_trace(self):
        pos = chain(5)
        links = LinkTable.from_positions(pos, 1.5)
        traj = straight_transition(pos, pos)
        trace = record_trace(traj, links, resolution=8)
        assert trace.initial_link_count == 4
        assert (trace.initial_links_alive == 4).all()
        assert (trace.stable_links_running == 4).all()
        assert trace.final_stable_ratio == 1.0
        assert (trace.isolated == 0).all()

    def test_running_stable_non_increasing(self, rng):
        pos = rng.uniform(0, 5, (10, 2))
        target = pos + rng.normal(0, 3, (10, 2))
        links = LinkTable.from_positions(pos, 2.5)
        traj = straight_transition(pos, target)
        trace = record_trace(traj, links, resolution=16)
        assert (np.diff(trace.stable_links_running) <= 0).all()
        # Running stable never exceeds the instantaneous alive count.
        assert (trace.stable_links_running <= trace.initial_links_alive).all()

    def test_final_ratio_matches_metric(self, rng):
        from repro.metrics import stable_link_ratio

        pos = rng.uniform(0, 5, (8, 2))
        target = pos + rng.normal(0, 2, (8, 2))
        links = LinkTable.from_positions(pos, 2.5)
        traj = straight_transition(pos, target)
        trace = record_trace(traj, links, resolution=16)
        assert trace.final_stable_ratio == pytest.approx(
            stable_link_ratio(links, traj, resolution=16)
        )

    def test_compression_detected(self):
        """Robots converging to a point mid-flight inflate total links."""
        pos = chain(6, spacing=2.0)
        target = pos[::-1].copy()  # swap ends: everyone crosses the middle
        links = LinkTable.from_positions(pos, 2.5)
        traj = straight_transition(pos, target)
        trace = record_trace(traj, links, resolution=32)
        assert trace.peak_compression > 1.0

    def test_isolation_with_anchors(self):
        pos = chain(4)
        target = pos.copy()
        target[3] += [30.0, 0.0]
        links = LinkTable.from_positions(pos, 1.5)
        traj = straight_transition(pos, target)
        trace = record_trace(traj, links, boundary_anchors=[0], resolution=16)
        assert trace.isolated[-1] == 1
        assert trace.isolated[0] == 0


class TestRenderTraceChart:
    def test_chart_written(self, tmp_path, rng):
        pos = rng.uniform(0, 5, (8, 2))
        links = LinkTable.from_positions(pos, 2.5)
        traj = straight_transition(pos, pos + [5.0, 0.0])
        trace = record_trace(traj, links, resolution=8)
        path = render_trace_chart(trace, tmp_path / "trace.svg", title="T")
        assert path.exists()
        text = path.read_text()
        assert "initial links alive" in text
        assert "stable so far" in text


class TestTraceBlocks:
    def test_block_size_does_not_change_the_trace(self, rng):
        from unittest import mock

        from repro.metrics import connectivity

        pos = rng.uniform(0, 5, (10, 2))
        links = LinkTable.from_positions(pos, 2.5)
        traj = straight_transition(pos, pos + rng.normal(0, 3, (10, 2)))
        traces = []
        for block in (1, 5, connectivity._POSITION_BLOCK):
            with mock.patch.object(connectivity, "_POSITION_BLOCK", block):
                traces.append(record_trace(traj, links, resolution=16))
        for t in traces[1:]:
            for field in ("initial_links_alive", "total_links", "isolated",
                          "stable_links_running"):
                assert getattr(t, field).tolist() == getattr(traces[0], field).tolist()
