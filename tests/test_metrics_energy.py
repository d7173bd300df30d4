"""Tests for the energy/link-churn model."""

import numpy as np
import pytest

from repro.metrics import EnergyModel, link_churn, transition_energy
from repro.robots import SwarmTrajectory, straight_transition


def chain(n, spacing=1.0):
    return np.column_stack([np.arange(n) * spacing, np.zeros(n)])


class TestLinkChurn:
    def test_static_swarm_no_events(self):
        pos = chain(4)
        traj = straight_transition(pos, pos)
        report = link_churn(traj, 1.5)
        assert report.pairing_events == 0
        assert report.breaking_events == 0
        assert report.initial_links == report.final_links == 3
        assert report.stable_links == 3

    def test_break_only(self):
        pos = chain(2)
        target = pos.copy()
        target[1] += [10.0, 0.0]
        traj = straight_transition(pos, target)
        report = link_churn(traj, 1.5)
        assert report.breaking_events == 1
        assert report.pairing_events == 0
        assert report.final_links == 0

    def test_new_pairing(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0]])
        target = np.array([[0.0, 0.0], [1.0, 0.0]])
        traj = straight_transition(pos, target)
        report = link_churn(traj, 1.5)
        assert report.pairing_events == 1
        assert report.breaking_events == 0
        assert report.initial_links == 0

    def test_re_pairing_counted_twice(self):
        """Break + re-pair = one breaking and one pairing event."""
        traj = SwarmTrajectory.constant_speed(
            [0, 2, 5], [[0, 0], [0, 0], [1, 0], [50, 0], [1, 0]], 0.0, 1.0
        )
        report = link_churn(traj, 1.5)
        assert report.breaking_events == 1
        assert report.pairing_events == 1
        assert report.stable_links == 0
        assert report.churn == 2

    def test_new_pairings_required_red_edges(self):
        """Fig. 2 semantics: required pairings = final minus stable links."""
        pos = chain(3)
        target = pos.copy()
        target[2] += [10.0, 0.0]  # link (1,2) breaks; no new link forms
        traj = straight_transition(pos, target)
        report = link_churn(traj, 1.5)
        assert report.new_pairings_required == report.final_links - report.stable_links
        assert report.new_pairings_required == 0

    def test_re_paired_link_counts_as_new(self):
        traj = SwarmTrajectory.constant_speed(
            [0, 2, 5], [[0, 0], [0, 0], [1, 0], [50, 0], [1, 0]], 0.0, 1.0
        )
        report = link_churn(traj, 1.5)
        # The pair ends connected but was not maintained: one re-pairing.
        assert report.new_pairings_required == 1

    def test_stable_links_match_linktable(self):
        from repro.network import LinkTable
        from repro.metrics import stable_link_report

        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 5, (8, 2))
        target = pos + rng.normal(0, 2, (8, 2))
        traj = straight_transition(pos, target)
        churn = link_churn(traj, 2.5)
        links = LinkTable.from_positions(pos, 2.5)
        rep = stable_link_report(links, traj)
        assert churn.stable_links == rep.stable_links
        assert churn.initial_links == rep.initial_links


class TestEnergy:
    def test_movement_energy(self):
        traj = straight_transition([[0, 0]], [[100.0, 0.0]])
        model = EnergyModel(move_cost_per_meter=2.0, pairing_cost=0.0)
        report = transition_energy(traj, 1.0, model)
        assert report.movement == pytest.approx(200.0)
        assert report.total == pytest.approx(200.0)

    def test_pairing_energy(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0]])
        target = np.array([[0.0, 0.0], [1.0, 0.0]])
        traj = straight_transition(pos, target)
        model = EnergyModel(move_cost_per_meter=0.0, pairing_cost=25.0)
        report = transition_energy(traj, 1.5, model)
        assert report.pairing == pytest.approx(25.0)

    def test_defaults_positive(self):
        model = EnergyModel()
        assert model.move_cost_per_meter > 0
        assert model.pairing_cost > 0

    def test_link_preserving_plan_cheaper_on_pairing(self):
        """The paper's energy argument: scrambling plans pay for
        re-pairing.  A rigid shift pays zero pairing energy; a swap of
        two robots pays for the links both tear and re-form."""
        pos = chain(4)
        rigid = straight_transition(pos, pos + [100.0, 0.0])
        swapped_targets = pos + [100.0, 0.0]
        swapped_targets[[0, 3]] = swapped_targets[[3, 0]]
        swapped = straight_transition(pos, swapped_targets)
        model = EnergyModel(move_cost_per_meter=0.0, pairing_cost=1.0)
        e_rigid = transition_energy(rigid, 1.5, model)
        e_swapped = transition_energy(swapped, 1.5, model)
        assert e_rigid.pairing == 0.0
        assert e_swapped.pairing > 0.0


def _dense_churn(traj, comm_range, resolution):
    """The per-instant dense reference: the full position table and an
    n x n distance matrix per instant."""
    from repro.geometry.vec import pairwise_distances

    table = traj.positions_over(traj.sample_times(resolution))
    iu, ju = np.triu_indices(table.shape[1], k=1)
    states = [pairwise_distances(snap)[iu, ju] <= comm_range for snap in table]
    pairs = list(zip(states, states[1:]))
    return (
        sum(int((b & ~a).sum()) for a, b in pairs),
        sum(int((a & ~b).sum()) for a, b in pairs),
        int(states[0].sum()),
        int(states[-1].sum()),
        int(np.logical_and.reduce(states).sum()),
    )


class TestChurnBlocks:
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_match_dense_at_every_block_size(self, seed):
        from unittest import mock

        from repro.metrics import connectivity

        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 6, (12, 2))
        mid = pos + rng.normal(0, 2.0, (12, 2))
        traj = straight_transition(pos, mid, 0.0, 0.5).then(
            straight_transition(mid, rng.uniform(0, 6, (12, 2)), 0.5, 1.0)
        )
        want = _dense_churn(traj, 2.0, 16)
        for block in (1, 5, connectivity._POSITION_BLOCK):
            with mock.patch.object(connectivity, "_POSITION_BLOCK", block):
                r = link_churn(traj, 2.0, resolution=16)
            got = (r.pairing_events, r.breaking_events, r.initial_links,
                   r.final_links, r.stable_links)
            assert got == want
