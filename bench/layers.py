"""Benchmark-side layer tracing: exclusive (self) time per wrapped function.

``TARGETS`` names public functions of the program by their *lookup site*
(``"module:attr"`` or ``"module:Class.method"``) together with the layer
they belong to.  :meth:`LayerTracer.install` swaps every resolvable target
for a wrapper that pushes a frame on a per-thread span stack; when a frame
pops, its duration minus the time its child frames covered is charged to
its layer as self time.  Nothing under ``src/`` is edited: the wrappers sit
where the program looks the function up, and :meth:`LayerTracer.uninstall`
puts the originals back.

Roots are the benchmark's own operations (or, inside a traced server, the
job body).  A root's self time is the part of the end-to-end time that no
wrapped layer accounts for: the ``trace.unattributed_frac`` numerator.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager

__all__ = ["LAYERS", "ROOT", "TARGETS", "LayerTracer", "resolve"]

ROOT = "root"

#: (lookup site, layer).  Several lookup sites may feed one layer: the
#: program imports some functions by name into more than one module, and
#: each of those names is a separate place a call can go through.
TARGETS: tuple[tuple[str, str], ...] = (
    ("repro.marching.planner:MarchingPlanner.plan", "marching.plan"),
    ("repro.marching.planner:repair_targets", "marching.repair_targets"),
    ("repro.marching.planner:extract_triangulation", "network.extract_triangulation"),
    ("repro.network.udg:UnitDiskGraph.__init__", "network.udg"),
    ("repro.network.udg:UnitDiskGraph.nodes_connected_to", "network.nodes_connected_to"),
    ("repro.marching.planner:triangulate_foi", "mesh.triangulate_foi"),
    ("repro.marching.planner:compute_disk_map", "harmonic.compute_disk_map"),
    ("repro.marching.planner:hierarchical_angle_search", "harmonic.angle_search"),
    ("repro.harmonic.transfer:InducedMap.map_points", "harmonic.map_points"),
    ("repro.marching.planner:run_lloyd", "coverage.run_lloyd"),
    ("repro.robots.transition:path_blocked_by_holes", "foi.path_blocked_by_holes"),
    ("repro.robots.transition:detour_path_holes", "foi.detour_path_holes"),
    ("repro.marching.planner:detoured_transition", "robots.detoured_transition"),
    ("repro.marching.planner:stepwise_trajectory", "robots.stepwise_trajectory"),
    ("repro.robots.motion:SwarmTrajectory.positions_at", "robots.positions"),
    ("repro.robots.motion:SwarmTrajectory.positions_over", "robots.positions"),
    # The benchmark's own verification and serialization calls go
    # through these module attributes.
    ("repro.metrics:connectivity_report", "metrics.connectivity_report"),
    ("repro.metrics:stable_link_ratio", "metrics.stable_link_ratio"),
    ("repro.io:result_to_dict", "io.serialize"),
    ("repro.io:dumps_canonical", "io.serialize"),
    # Missions.
    ("repro.missions.runner:MissionRunner.run", "missions.run"),
    ("repro.missions.runner:stable_link_ratio", "metrics.stable_link_ratio"),
    ("repro.missions.runner:result_to_dict", "io.serialize"),
    ("repro.missions.runner:canonical_digest", "io.serialize"),
    # The planning service's job body and serialization (traced server).
    ("repro.experiments.scenarios:ScenarioSpec.build", "experiments.build_scenario"),
    ("repro.experiments.harness:extract_triangulation", "network.extract_triangulation"),
    ("repro.experiments.harness:optimal_coverage_positions", "coverage.optimal_positions"),
    ("repro.robots.swarm:Swarm.deploy_lattice", "robots.deploy_lattice"),
    ("repro.experiments.harness:connectivity_report", "metrics.connectivity_report"),
    ("repro.experiments.harness:stable_link_ratio", "metrics.stable_link_ratio"),
    ("repro.service.executor_bridge:dumps_canonical", "io.serialize"),
)

#: every layer name, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in TARGETS))

#: counts read off a layer's return value: layer -> (metric, attribute).
RESULT_COUNTS = {
    "metrics.connectivity_report": ("metrics.connectivity_report.samples", "samples"),
}


def resolve(target: str):
    """``(owner, attr, value)`` for a lookup site; raises on a missing one."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    # Read a class attribute through __dict__ so that restoring it puts
    # back exactly what was there (not a bound or inherited lookup).
    value = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, value


class _ThreadState:
    __slots__ = ("stack", "acc", "counts", "top_level_s")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.acc: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.top_level_s = 0.0


class LayerTracer:
    """Per-thread span stacks whose frames charge self time to layers.

    A frame is ``[layer, start, child_seconds]``.  Each thread accumulates
    into its own ``{layer: [self_s, calls]}`` dict, registered once under a
    lock, so the hot path takes no lock.  Read the report once the traced
    work has finished.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._state().stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        state = self._state()
        state.stack.pop()
        slot = state.acc.get(frame[0])
        if slot is None:
            slot = state.acc[frame[0]] = [0.0, 0]
        slot[0] += duration - frame[2]
        slot[1] += 1
        if state.stack:
            state.stack[-1][2] += duration
        else:
            state.top_level_s += duration

    @contextmanager
    def span(self, layer: str = ROOT):
        frame = self.enter(layer)
        try:
            yield
        finally:
            self.exit(frame)

    def wrap(self, fn, layer: str):
        enter, exit_ = self.enter, self.exit
        counted = RESULT_COUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if counted is not None:
                counts = self._state().counts
                name, attr = counted
                counts[name] = counts.get(name, 0) + getattr(result, attr)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every resolvable target; returns (and keeps) the absent ones.

        Every target module is imported before anything is wrapped, so a
        module that copies a name from another at import time copies the
        original, not a wrapper (which would count each call twice).
        """
        for target, _ in targets:
            try:
                importlib.import_module(target.partition(":")[0])
            except ImportError:
                pass
        self.absent = []
        for target, layer in targets:
            try:
                owner, attr, value = resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target)
                continue
            self._installed.append((owner, attr, value))
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(self.wrap(value.__func__, layer))
            else:
                wrapped = self.wrap(value, layer)
            setattr(owner, attr, wrapped)
        return self.absent

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, value = self._installed.pop()
            setattr(owner, attr, value)

    # -- report -------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """``<layer>.self_s`` and ``<layer>.calls`` for every layer in
        :data:`LAYERS` (zero when not exercised), the :data:`RESULT_COUNTS`
        counts, the traced end-to-end time ``trace.traced_total_s``
        (top-level frames summed over threads) and
        ``trace.unattributed_frac`` = root self time / that total."""
        with self._lock:
            states = list(self._states)
        totals: dict[str, list] = {}
        counts = {name: 0 for name, _ in RESULT_COUNTS.values()}
        traced_total = 0.0
        for state in states:
            traced_total += state.top_level_s
            for layer, (self_s, calls) in state.acc.items():
                slot = totals.setdefault(layer, [0.0, 0])
                slot[0] += self_s
                slot[1] += calls
            for name, value in state.counts.items():
                counts[name] += value
        out: dict[str, float] = {}
        for layer in LAYERS:
            self_s, calls = totals.get(layer, (0.0, 0))
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.calls"] = calls
        out.update(counts)
        root_self = totals.get(ROOT, (0.0, 0))[0]
        out["trace.traced_total_s"] = traced_total
        out["trace.unattributed_frac"] = (
            root_self / traced_total if traced_total > 0 else 0.0
        )
        return out
