"""Streaming missions: follow a replanning job's live SSE event feed.

Boots a `repro.service.PlanningService` (one job queue, two
dispatchers), submits a drifting mission (`POST /v1/mission`), and
follows its progress over the `GET /v1/jobs/{id}/events` stream: one
`plan_diff` + `epoch` pair per replanned leg, in order, as the mission
advances.  Then checks two of
the mission contracts:

* the mission document fetched over HTTP is byte-identical to running
  the same `(spec, config)` through `repro.missions.MissionRunner`
  in-process (missions scope their own cache and metrics, so worker
  count and transport cannot leak into the bytes), and
* the drifting target is served from the translation-canonical
  disk-map cache - every epoch after the first reports a cache hit.

Run:  python examples/mission_stream.py
"""

from __future__ import annotations

from repro.io import dumps_canonical
from repro.missions import MissionConfig, MissionRunner, MissionSpec
from repro.service import PlanningService, ServiceClient

SPEC = MissionSpec(family="corridor", seed=0, epochs=3, motion="drift")
CONFIG = MissionConfig()


def show(event: dict) -> None:
    kind = event.get("kind")
    if kind == "plan_diff":
        print(
            f"  epoch {event['epoch']}: target shifted "
            f"{event['target_shift']:.1f} m, plan D = "
            f"{event['plan_distance'] / 1000:.2f} km "
            f"(cache {event['cache_hits']} hit / "
            f"{event['cache_misses']} miss)"
        )
    elif kind == "epoch":
        print(
            f"  epoch {event['epoch']} done: {event['robots']} robots, "
            f"{event['c_violations']} connectivity violations"
        )
    elif kind == "recovery":
        print(
            f"  recovery: robots {event['failed']} lost at fraction "
            f"{event['at']}, {event['survivors']} march on"
        )


def main() -> None:
    with PlanningService(port=0, dispatchers=2) as service:
        client = ServiceClient(port=service.port, timeout=120.0, retries=3)
        print(
            f"service on port {service.port}: streaming a "
            f"{SPEC.epochs}-epoch {SPEC.motion!r} mission over "
            f"{SPEC.family!r} targets"
        )
        served = client.run_mission(SPEC, config=CONFIG, on_event=show)

        summary = served["summary"]
        print(
            f"mission complete: {summary['replans']} replans, "
            f"D = {summary['total_distance'] / 1000:.2f} km, "
            f"{summary['survivors']} robots in formation, "
            f"C violations = {summary['c_violations']}"
        )

        # Contract 1: served document == in-process run, byte for byte.
        local = MissionRunner(SPEC, CONFIG).run()
        assert dumps_canonical(served) == dumps_canonical(local)
        print("byte-identity vs in-process MissionRunner: OK")

        # Contract 2: a rigidly drifting target is a disk-map cache hit
        # on every replan after the cold first solve.
        for record in served["epochs"][1:]:
            assert record["plan_diff"]["cache_hits"] >= 1, record
        print("translation-canonical cache hits on every drift replan: OK")


if __name__ == "__main__":
    main()
