"""Fault injection and resilient mission execution.

The paper motivates ANR systems with recoverability: "the failure of an
individual robot can be recovered by its peers", and the global-
connectivity invariant (Definition 2) exists so survivors can
coordinate a new plan mid-march.  This package turns that claim into
running, measured code:

* :mod:`repro.faults.schedule` - declarative, seeded fault schedules:
  robot crashes (single, clustered, cascading), stuck/slow robots, and
  message-level faults (loss windows, delay, duplication) shared with
  the distributed runtime's :class:`~repro.distributed.runtime.LinkFaults`.
* :mod:`repro.faults.executor` - a resilient executor that runs a full
  marching transition under a schedule: detect each failure at its
  instant, freeze the march and settle the survivors through the crash
  freeze step of :mod:`repro.marching.replan` (escort-rejoining cut
  survivors), cascade through replanning, and raise a typed
  :class:`~repro.errors.UnrecoverableError` when recovery is impossible
  - never a silent partial plan, never a hang.
"""

from repro.distributed.runtime import LinkFaults
from repro.errors import UnrecoverableError
from repro.faults.executor import ChaosRunReport, ResilientExecutor, SegmentRecord
from repro.faults.schedule import (
    ARCHETYPES,
    CrashFault,
    FaultSchedule,
    SlowFault,
    StuckFault,
    build_archetype_schedule,
    random_schedule,
    schedule_from_dict,
)
from repro.marching.replan import rejoin_components

__all__ = [
    "ARCHETYPES",
    "ChaosRunReport",
    "CrashFault",
    "FaultSchedule",
    "LinkFaults",
    "ResilientExecutor",
    "SegmentRecord",
    "SlowFault",
    "StuckFault",
    "UnrecoverableError",
    "build_archetype_schedule",
    "random_schedule",
    "rejoin_components",
    "schedule_from_dict",
]
