"""Mission specifications: what a streaming mission is made of.

A *mission* is a seeded sequence of target FoIs executed as one
long-running job: the swarm marches toward the current target, the
target drifts or deforms at epoch boundaries, and the planner replans
incrementally.  Everything downstream (the target sequence, every
plan, the canonical mission document) is a pure function of the
``(MissionSpec, MissionConfig, FaultSchedule)`` triple, which is what
lets the service dedup missions by content address and byte-compare
runs across worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.coverage import LloydConfig
from repro.errors import MissionError
from repro.experiments.zoo.families import FAMILIES
from repro.marching.planner import MarchingConfig

__all__ = ["MOTIONS", "MissionConfig", "MissionSpec"]

#: Target-motion kinds a mission can request.
#:
#: * ``"drift"`` - the target translates rigidly each epoch (the shape
#:   is unchanged, so the translation-canonical disk-map cache turns
#:   every replan's harmonic solve into a cache hit);
#: * ``"deform"`` - the target is redrawn from the zoo family each
#:   epoch (same area, same centroid - a genuine re-solve);
#: * ``"drift+deform"`` - drifts every epoch and additionally redraws
#:   the shape on even epochs.
MOTIONS = ("drift", "deform", "drift+deform")


@dataclass(frozen=True)
class MissionSpec:
    """One mission: a seeded target-motion scenario.

    Attributes
    ----------
    family : str
        Zoo family the base target is drawn from.
    seed : int
        Seed for the base scenario and every motion draw.
    epochs : int
        Number of mission legs; each leg replans against the epoch's
        target.  Epoch 0 marches toward the base zoo target.
    motion : str
        One of :data:`MOTIONS`.
    drift_step : float
        Per-epoch target translation, in communication ranges.
    name : str
        Optional label carried into documents and reports.
    """

    family: str = "corridor"
    seed: int = 0
    epochs: int = 3
    motion: str = "drift"
    drift_step: float = 0.5
    name: str = ""

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise MissionError(
                f"unknown mission family {self.family!r}; "
                f"valid: {list(FAMILIES)}"
            )
        if self.motion not in MOTIONS:
            raise MissionError(
                f"unknown mission motion {self.motion!r}; "
                f"valid: {list(MOTIONS)}"
            )
        if self.epochs < 1:
            raise MissionError("a mission needs at least one epoch")
        if self.drift_step <= 0.0:
            raise MissionError("drift_step must be positive")

    def to_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "seed": int(self.seed),
            "epochs": int(self.epochs),
            "motion": self.motion,
            "drift_step": float(self.drift_step),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MissionSpec":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise MissionError(
                f"unknown mission spec fields: {sorted(extra)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class MissionConfig:
    """Size/resolution knobs of a mission run (CI-sized defaults).

    Attributes
    ----------
    robot_count, separation_factor, comm_range : as in the zoo config;
        the smaller defaults keep a multi-epoch mission CI-sized.
    foi_target_points, grid_target, lloyd_max_iterations : int
        Planner resolution knobs.
    resolution : int
        Definition-2 sampling resolution per leg (``L`` is exact).
    method : str
        Planner method for every leg (``"a"`` or ``"b"``).
    advance_fraction : float
        Fraction of each leg's plan the swarm executes before the next
        epoch's target update arrives (the final leg always runs to
        completion).  Must lie in ``(0, 1]``.
    cache_capacity : int
        Entry budget of the mission's private in-memory cache.
    """

    robot_count: int = 25
    separation_factor: float = 3.0
    comm_range: float = 80.0
    foi_target_points: int = 120
    grid_target: int = 400
    lloyd_max_iterations: int = 12
    resolution: int = 6
    method: str = "a"
    advance_fraction: float = 0.5
    cache_capacity: int = 64

    def __post_init__(self) -> None:
        if self.method not in ("a", "b"):
            raise MissionError(
                f"unknown marching method {self.method!r}; valid: a, b"
            )
        if not (0.0 < self.advance_fraction <= 1.0):
            raise MissionError("advance_fraction must lie in (0, 1]")
        for fld in (
            "robot_count", "separation_factor", "comm_range",
            "foi_target_points", "grid_target", "lloyd_max_iterations",
            "resolution", "cache_capacity",
        ):
            if getattr(self, fld) <= 0:
                raise MissionError(f"{fld} must be positive")

    def marching_config(self) -> MarchingConfig:
        return MarchingConfig(
            method=self.method,
            foi_target_points=self.foi_target_points,
            lloyd=LloydConfig(
                grid_target=self.grid_target,
                max_iterations=self.lloyd_max_iterations,
            ),
            use_cache=True,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "robot_count": int(self.robot_count),
            "separation_factor": float(self.separation_factor),
            "comm_range": float(self.comm_range),
            "foi_target_points": int(self.foi_target_points),
            "grid_target": int(self.grid_target),
            "lloyd_max_iterations": int(self.lloyd_max_iterations),
            "resolution": int(self.resolution),
            "method": self.method,
            "advance_fraction": float(self.advance_fraction),
            "cache_capacity": int(self.cache_capacity),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MissionConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise MissionError(
                f"unknown mission config fields: {sorted(extra)}"
            )
        return cls(**data)
