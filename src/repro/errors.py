"""Exception hierarchy for the ``repro`` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library-level failures with a
single ``except`` clause while still letting programming errors
(``TypeError``, ``ValueError`` from numpy, ...) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GeometryError(ReproError):
    """A geometric primitive received degenerate or invalid input."""


class MeshError(ReproError):
    """A triangle mesh violates a structural invariant.

    Raised, for example, when a mesh that is required to be a topological
    disk has zero or several boundary loops, or when a triangulation
    references vertices that do not exist.
    """


class TriangulationError(MeshError):
    """No grid up to the refinement bound triangulates a FoI's topology."""

    stage = "triangulate_foi"


class MappingError(ReproError):
    """A harmonic map could not be computed or failed validation."""


class PlanningError(ReproError):
    """A marching plan could not be constructed for the given scenario."""


class ProtocolError(ReproError):
    """A distributed protocol reached an inconsistent state."""


class CoverageError(ReproError):
    """A coverage computation (Voronoi / Lloyd) received invalid input."""


class ExecutionError(ReproError):
    """A parallel-execution task or a service job failed permanently.

    Raised by :func:`repro.exec.parallel_map` when a chunk still fails
    after its retry or the task function cannot be shipped to worker
    processes (it does not pickle), by :func:`repro.exec.resolve_workers`
    for a malformed ``REPRO_WORKERS``, and by the service's
    :class:`~repro.service.ExecutorBridge` when a job's attempts all
    raised or timed out.  The original failure is chained as
    ``__cause__`` when one exists.
    """


class ScenarioError(ReproError):
    """An experiment scenario is mis-specified."""


class UnrecoverableError(PlanningError):
    """The survivors of a crash cannot march on.

    Raised by the crash freeze step of :mod:`repro.marching.replan`
    (too few survivors, or survivors cut apart when the caller refuses
    a partial network) and by :mod:`repro.faults` (the planner cannot
    produce a new plan, or the survivors' recovery consensus cannot
    complete under the injected communication faults).  The resilient
    executor guarantees every run ends either recovered or with this
    error - never a silent partial plan, never a hang.

    Attributes
    ----------
    stage : str
        Recovery stage that failed (``"consensus"``, ``"replan"``,
        ``"rejoin"``, ``"survivors"``).
    survivors : int
        Robots still alive when recovery was abandoned.
    """

    def __init__(self, message: str, stage: str = "", survivors: int = 0) -> None:
        super().__init__(message)
        self.stage = stage
        self.survivors = int(survivors)


class MissionError(ReproError):
    """A streaming mission is mis-specified or cannot continue.

    Raised by :mod:`repro.missions` - on an invalid mission spec, on a
    fault schedule the mission executor cannot honour, or when a crash
    mid-epoch leaves the survivors unable to march on (too few robots,
    disconnected network).  The mission contract mirrors the resilient
    executor's: every epoch ends in a metrics record or a typed error,
    never a silently degraded plan.

    Attributes
    ----------
    epoch : int
        Epoch being executed when the mission failed (-1 when the
        failure precedes execution, e.g. a bad spec).
    """

    def __init__(self, message: str, epoch: int = -1) -> None:
        super().__init__(message)
        self.epoch = int(epoch)


class MissionInterrupted(ReproError):
    """A mission run was interrupted at an epoch boundary.

    Raised by :class:`repro.missions.MissionRunner` when an ``interrupt``
    callable (wired by the service drain path) fires between epochs.
    The runner checkpoints every completed epoch *before* raising, so the
    mission can later resume from the boundary and still produce a
    document byte-identical to an uninterrupted run.  This is a control
    signal, not a failure: the service releases the job back to the
    queue instead of marking it failed.

    Attributes
    ----------
    epochs_completed : int
        Number of epochs fully executed (and checkpointed) before the
        interrupt was honoured.
    """

    def __init__(self, message: str, epochs_completed: int = 0) -> None:
        super().__init__(message)
        self.epochs_completed = int(epochs_completed)


class ServiceError(ReproError):
    """The planning service rejected or could not complete a request.

    Raised by :mod:`repro.service` - by the server when a request is
    malformed or arrives while the service is draining, and by the
    client when the server answers with an error status.  The admission
    failures (queue full, queue closed) are narrower subclasses defined
    in :mod:`repro.service.jobs`.
    """


class JournalError(ReproError):
    """The write-ahead job journal is unusable.

    Raised when a journal directory is locked by another live process,
    or when replay encounters a record written by an unsupported journal
    format version.  Torn trailing records (the normal signature of a
    ``kill -9``) are *not* errors - replay skips them and counts them.
    """
