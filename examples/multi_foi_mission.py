"""A multi-FoI mission: the swarm explores several fields in sequence.

The paper's motivating scenario: "a group of ANRs that are instructed
to explore a number of FoIs.  After they complete a task at current
FoI, they move to the next one."  This example chains three transitions
- including one into a FoI with a concave flower-pond hole - and shows
that the swarm stays globally connected through the entire mission
while preserving most links on every leg.

Run:  python examples/multi_foi_mission.py
"""

from __future__ import annotations

import numpy as np

from repro import MarchingConfig, MarchingPlanner, RadioSpec, Swarm
from repro.foi import m1_base, m2_scenario1, m2_scenario3, m2_scenario2
from repro.metrics import connectivity_report, stable_link_ratio

RESOLUTION = 32  # metric samples per leg


def main() -> None:
    radio = RadioSpec.from_comm_range(80.0)
    start_foi = m1_base()
    swarm = Swarm.deploy_lattice(start_foi, 100, radio)

    # The mission: three target fields at increasing distances/bearings.
    origin = start_foi.centroid
    targets = [
        foi.translated(origin + offset - foi.centroid)
        for foi, offset in (
            (m2_scenario1(), np.array([1800.0, 0.0])),
            (m2_scenario3(), np.array([3400.0, 1200.0])),
            (m2_scenario2(), np.array([5200.0, 400.0])),
        )
    ]

    print(f"Mission start: {swarm.size} robots on {start_foi.name}\n")
    planner = MarchingPlanner(MarchingConfig(method="a"))
    total_distance = 0.0
    all_connected = True
    source = start_foi
    # Each leg starts where the last one ended, detouring around the
    # holes of the FoI it leaves.
    for index, target in enumerate(targets, start=1):
        result = planner.plan(swarm, target, source_foi=source)
        connected = connectivity_report(
            result.trajectory, radio.comm_range, result.boundary_anchors,
            RESOLUTION,
        ).connected
        ratio = stable_link_ratio(result.links, result.trajectory, RESOLUTION)
        print(f"Leg {index}: -> {target.name}")
        print(f"  D = {result.total_distance / 1000:8.1f} km   "
              f"L = {ratio:.3f}   "
              f"C = {'Y' if connected else 'N'}   "
              f"escorts = {result.repair.escort_count}")
        total_distance += result.total_distance
        all_connected = all_connected and connected
        swarm = swarm.with_positions(result.final_positions)
        source = target

    print(f"\nMission complete. Fleet-wide distance: "
          f"{total_distance / 1000:.1f} km; every leg connected: "
          f"{all_connected}; swarm still connected: "
          f"{swarm.is_connected()}")


if __name__ == "__main__":
    main()
