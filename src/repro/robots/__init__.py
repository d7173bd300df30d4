"""Robot, swarm, and motion models."""

from repro.robots.motion import SwarmTrajectory
from repro.robots.robot import SQRT3, RadioSpec, Robot
from repro.robots.swarm import Swarm
from repro.robots.transition import (
    DEFAULT_TRANSITION_TIME,
    detoured_transition,
    stepwise_trajectory,
    straight_transition,
)

__all__ = [
    "DEFAULT_TRANSITION_TIME",
    "RadioSpec",
    "Robot",
    "SQRT3",
    "Swarm",
    "SwarmTrajectory",
    "detoured_transition",
    "stepwise_trajectory",
    "straight_transition",
]
