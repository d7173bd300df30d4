"""The benchmark's four workloads: seeded inputs, a timed loop, checked outputs.

Each workload runs in a fresh child process (``run.py`` starts it) and
returns one result dict::

    {"correct", "attempted", "failed", "failures", "metrics", "detail"}

``metrics`` holds the end-to-end metrics of ``BENCHMARK.json`` for an
untraced run and its per-layer metrics for a traced one; ``detail`` holds
everything else a run measured (per-case times, service counters, digests).

An *operation* is what a user waits for: a verified plan document
(paper_holes, swarm_1k), a mission epoch (mission_corridor) or a planning
job (service_mix).  Every operation's output is checked; an operation that
raises, breaks ``C = 1``, reports ``L`` outside [0, 1], misses its pinned
digest or deadline, or answers 5xx counts as failed, never as fast.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from layers import ROOT, LayerTracer

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"

#: Definition-2 / Definition-1 sampling resolution of every verified plan.
VERIFY_RESOLUTION = 32

#: timed repeats of the input build (or server boot) behind ``setup_s``.
SETUP_REPEATS = 3


@dataclass
class Context:
    """What the child was asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    spawned_at: float  # time.monotonic() in the parent when it started us
    scratch: Path  # writable directory inside the checkout

    @property
    def setup_repeats(self) -> int:
        return 1 if (self.smoke or self.trace) else SETUP_REPEATS


@dataclass
class Tally:
    """Operations attempted and the reasons each failed one failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")


# ----------------------------------------------------------------------
# helpers


def canonical_bytes(doc) -> bytes:
    """The canonical JSON form, computed independently of the program."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def pinned_digest(ctx: Context, label: str) -> str | None:
    """The sha256 pinned for ``label`` at seed 0; None at other seeds.

    A seed-0 case with no pin reads ``"missing"``, so it fails its check.
    """
    if ctx.seed != 0 or ctx.smoke:
        return None
    return json.loads(PINS_PATH.read_text()).get(ctx.workload, {}).get(label, "missing")


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method, interpolated)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(seconds: float, run_pass) -> float:
    """Run whole passes until another would overrun ``seconds``.

    At least one pass always runs, so every case of a workload is
    represented equally in every run.  Returns the measured wall time.
    """
    t0 = time.perf_counter()
    passes = 0
    while True:
        run_pass()
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (passes + 1) / passes > seconds:
            return elapsed


def measure_setup(ctx: Context, import_program, build, discard=None):
    """``(inputs, setup_s, build_times)``.

    ``setup_s`` is the time from the parent starting this process to the
    end of the program imports, plus the median of ``ctx.setup_repeats``
    timed input builds.  The last build's inputs are kept; ``discard``
    releases each earlier one, outside the timed region.
    """
    import_program()
    import_s = time.monotonic() - ctx.spawned_at
    times = []
    inputs = None
    for _ in range(ctx.setup_repeats):
        if inputs is not None and discard is not None:
            discard(inputs)
        t0 = time.perf_counter()
        inputs = build()
        times.append(time.perf_counter() - t0)
    return inputs, import_s + statistics.median(times), times


def end_to_end(setup_s: float, latencies: list[float], measured_s: float,
               rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run (none if no op succeeded).

    The typical latency is a geometric mean, not a median: a plan workload
    runs each of a few very different cases once per pass, so its median
    is one case's single sample (interquartile spread 0.22 of the median
    over ten runs, against 0.08 for the geometric mean).  ``op_p90_s`` is
    reported but not gated.
    """
    if not latencies:
        return {}
    return {
        "setup_s": setup_s,
        "op_gmean_s": statistics.geometric_mean(latencies),
        "op_p90_s": percentile(latencies, 90),
        "ops_per_s": len(latencies) / measured_s,
        "peak_rss_mb": rss_mb,
    }


def ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def cache_ratios(value) -> dict:
    """Disk-map and factorization cache hit ratios; ``value(name)`` reads a
    counter of the program's metrics registry."""
    return {
        "cache.diskmap.hit_ratio": ratio(
            value("cache.harmonic.diskmap.hits"),
            value("cache.harmonic.diskmap.misses"),
        ),
        "cache.factorization.hit_ratio": ratio(
            value("cache.harmonic_factorization.hits"),
            value("cache.harmonic_factorization.misses"),
        ),
    }


def layer_metrics(report: dict, cache: dict, document_bytes: int,
                  overhead: float) -> dict:
    """The per-layer metrics of one traced run.

    A :class:`LayerTracer` report plus the cache hit ratios, the bytes of
    the documents produced, the tracing overhead and two stage aggregates:
    ``march.self_s`` is the march stage with its hole detours
    (``robots.detoured_transition`` plus every ``foi.*`` layer);
    ``metrics.self_s`` is the Definition-1/2 samplers together.
    """
    out = {**report, **cache, "io.document_bytes": document_bytes,
           "trace.overhead_frac": overhead}
    out["march.self_s"] = (
        report["robots.detoured_transition.self_s"]
        + report["foi.path_blocked_by_holes.self_s"]
        + report["foi.detour_path_holes.self_s"]
    )
    out["metrics.self_s"] = (
        report["metrics.connectivity_report.self_s"]
        + report["metrics.stable_link_ratio.self_s"]
    )
    return out


def overhead_frac(untraced: list[float], traced: list[float]) -> float:
    """Traced / untraced time of paired operations, minus 1.

    The first pair is left out when there are others: the first operation
    of a process also pays for lazy imports and cold code paths.
    """
    pairs = list(zip(untraced, traced))
    if len(pairs) > 1:
        pairs = pairs[1:]
    return sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0


def finish(tally: Tally, metrics: dict, detail: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": metrics,
        "detail": detail,
    }


# ----------------------------------------------------------------------
# verified plans: paper_holes and swarm_1k

#: paper scenarios 3-7 (every hole-bearing one), alternating methods so
#: both objectives appear.  Cases are (label, scenario id, method).
PAPER_CASES = (("3b", 3, "b"), ("4a", 4, "a"), ("5b", 5, "b"),
               ("6a", 6, "a"), ("7b", 7, "b"))
PAPER_FOI_POINTS = 500
PAPER_GRID_TARGET = 2000

#: zoo cases at 1,000 robots: two hole-bearing, one hole-free.
ZOO_CASES = (("rough/0", "rough", 0), ("rough/1", "rough", 1),
             ("archipelago/0", "archipelago", 0))


def paper_separation(seed: int) -> float:
    """M1-M2 separation in communication ranges; seed 0 gives the paper's 20.

    The band is narrow on purpose: the seed changes every document while
    keeping the work per plan, and so the run-to-run spread, nearly equal.
    """
    return 20.0 + 0.25 * (seed % 5)


def zoo_separation(seed: int) -> float:
    """Zoo M1-M2 separation; seed 0 gives the zoo default of 5."""
    return 5.0 + 0.25 * (0, 1, -1, 2)[seed % 4]


@dataclass
class PlanCase:
    label: str
    config: object  # MarchingConfig
    swarm: object
    target: object
    source: object


def build_paper_cases(seed: int, smoke: bool) -> list[PlanCase]:
    from repro.coverage.lloyd import LloydConfig
    from repro.experiments.scenarios import get_scenario
    from repro.marching import MarchingConfig
    from repro.robots import RadioSpec, Swarm

    cases = PAPER_CASES[1:2] if smoke else PAPER_CASES
    points, grid = (150, 500) if smoke else (PAPER_FOI_POINTS, PAPER_GRID_TARGET)
    out = []
    for label, scenario_id, method in cases:
        spec = get_scenario(scenario_id)
        m1, m2 = spec.build(paper_separation(seed))
        swarm = Swarm.deploy_lattice(
            m1, spec.robot_count, RadioSpec.from_comm_range(spec.comm_range)
        )
        config = MarchingConfig(
            method=method,
            foi_target_points=points,
            lloyd=LloydConfig(grid_target=grid),
        )
        out.append(PlanCase(label, config, swarm, m2, m1))
    return out


def build_zoo_cases(seed: int, smoke: bool) -> list[PlanCase]:
    from repro.experiments.zoo.campaign import ZooConfig, build_zoo_scenario

    if smoke:
        zoo = ZooConfig(robot_count=150, foi_target_points=300, grid_target=600,
                        separation_factor=zoo_separation(seed))
        cases = ZOO_CASES[1:2]
    else:
        zoo = ZooConfig(robot_count=1000, foi_target_points=1000,
                        grid_target=3000, separation_factor=zoo_separation(seed))
        cases = ZOO_CASES
    out = []
    for label, family, family_seed in cases:
        scenario = build_zoo_scenario(family, family_seed, zoo)
        out.append(PlanCase(label, zoo.marching_config("ours (a)"),
                            scenario.swarm, scenario.m2, scenario.m1))
    return out


def verified_plan(case: PlanCase):
    """Plan, verify Definitions 1 and 2, and serialize: one operation.

    Every call into the program goes through a module attribute so the
    traced pass can wrap it.  Returns ``(payload, connected, L)``.
    """
    import repro.io
    import repro.metrics
    from repro.marching import MarchingPlanner

    result = MarchingPlanner(case.config).plan(
        case.swarm, case.target, source_foi=case.source
    )
    report = repro.metrics.connectivity_report(
        result.trajectory, result.links.comm_range, result.boundary_anchors,
        VERIFY_RESOLUTION,
    )
    stable = repro.metrics.stable_link_ratio(
        result.links, result.trajectory, VERIFY_RESOLUTION
    )
    doc = repro.io.result_to_dict(result)
    doc["verification"] = {
        "resolution": VERIFY_RESOLUTION,
        "connected": report.connected,
        "first_failure_time": report.first_failure_time,
        "max_isolated": report.max_isolated,
        "samples": report.samples,
        "stable_link_ratio": stable,
    }
    return repro.io.dumps_canonical(doc), report.connected, stable


def check_plan_document(payload: bytes, connected: bool, stable: float,
                        pin: str | None, seen: str | None) -> list[str]:
    problems = []
    if not connected:
        problems.append("C != 1")
    if not 0.0 <= stable <= 1.0:
        problems.append(f"L = {stable} outside [0, 1]")
    if canonical_bytes(json.loads(payload)) != payload:
        problems.append("document is not a canonical-JSON fixed point")
    digest = sha256(payload)
    if pin is not None and digest != pin:
        problems.append(f"digest {digest} != pinned {pin}")
    if seen is not None and digest != seen:
        problems.append("bytes differ from an earlier pass of the same case")
    return problems


def run_plan_workload(ctx: Context, build_cases) -> dict:
    def import_program():
        import repro.io  # noqa: F401
        import repro.marching  # noqa: F401
        import repro.metrics  # noqa: F401

    cases, setup_s, build_times = measure_setup(
        ctx, import_program, lambda: build_cases(ctx.seed, ctx.smoke)
    )

    from repro.exec.cache import ContentCache, activate_cache
    from repro.harmonic import clear_factorization_cache
    from repro.obs import Metrics, activate_metrics

    tally = Tally()
    tracer = LayerTracer()
    metrics = Metrics()
    latencies: list[float] = []
    per_case: dict[str, list[float]] = {c.label: [] for c in cases}
    digests: dict[str, str] = {}
    timed: dict[bool, list[float]] = {False: [], True: []}
    traced_bytes = 0

    def one(case: PlanCase, traced: bool) -> None:
        nonlocal traced_bytes
        clear_factorization_cache()
        try:
            with activate_cache(ContentCache()), activate_metrics(metrics):
                t0 = time.perf_counter()
                with tracer.span(ROOT) if traced else nullcontext():
                    payload, connected, stable = verified_plan(case)
                latency = time.perf_counter() - t0
        except Exception as exc:  # a raising plan is a failed operation
            tally.record(case.label, [f"{type(exc).__name__}: {exc}"])
            return
        problems = check_plan_document(payload, connected, stable,
                                       pinned_digest(ctx, case.label),
                                       digests.get(case.label))
        digests.setdefault(case.label, sha256(payload))
        tally.record(case.label, problems)
        timed[traced].append(latency)
        if traced:
            traced_bytes += len(payload)
        else:
            latencies.append(latency)
            per_case[case.label].append(latency)

    def run_pass() -> None:
        for case in cases:
            one(case, traced=False)
            if ctx.trace:
                tracer.install()
                try:
                    one(case, traced=True)
                finally:
                    tracer.uninstall()

    measured_s = timed_passes(ctx.seconds, run_pass)
    detail = {
        "cases": [c.label for c in cases],
        "case_median_s": {k: statistics.median(v) for k, v in per_case.items() if v},
        "latencies_s": latencies,
        "digests": digests,
        "build_s": build_times,
        "measured_s": measured_s,
        "separation": (paper_separation if ctx.workload == "paper_holes"
                       else zoo_separation)(ctx.seed),
    }
    if ctx.trace:
        detail["trace.absent_targets"] = tracer.absent
        return finish(tally, layer_metrics(
            tracer.report(),
            cache_ratios(lambda name: metrics.counter(name).value),
            traced_bytes, overhead_frac(timed[False], timed[True]),
        ), detail)
    return finish(tally, end_to_end(setup_s, latencies, measured_s,
                                    peak_rss_mb()), detail)


# ----------------------------------------------------------------------
# mission_corridor

MISSION_EPOCHS = 8


#: per-seed drift steps (communication ranges per epoch), seed 0 first.
#: Each keeps C = 1 for this mission; 0.48, 0.505, 0.52 and 0.65 do not,
#: so the list is explicit.  The band is narrow because epoch cost moves
#: with the drift step (0.45 and 0.6 differ by ~15%).
MISSION_DRIFT_STEPS = (0.5, 0.51, 0.495, 0.515, 0.49)


def mission_inputs(seed: int, smoke: bool):
    from repro.missions import MissionConfig, MissionSpec

    if smoke:
        spec = MissionSpec(family="corridor", seed=0, epochs=2,
                           motion="drift+deform")
        return spec, MissionConfig(robot_count=36)
    spec = MissionSpec(
        family="corridor", seed=0, epochs=MISSION_EPOCHS, motion="drift+deform",
        drift_step=MISSION_DRIFT_STEPS[seed % len(MISSION_DRIFT_STEPS)],
    )
    config = MissionConfig(robot_count=144, foi_target_points=400,
                           grid_target=1500, lloyd_max_iterations=20,
                           resolution=16)
    return spec, config


def run_mission_workload(ctx: Context) -> dict:
    def import_program():
        import repro.io  # noqa: F401
        import repro.missions  # noqa: F401

    def build():
        from repro.missions import mission_targets

        spec, config = mission_inputs(ctx.seed, ctx.smoke)
        mission_targets(spec, config)  # the FoI/swarm build a mission starts with
        return spec, config

    (spec, config), setup_s, build_times = measure_setup(ctx, import_program, build)

    import repro.io
    import repro.missions.runner as runner_module
    from repro.harmonic import clear_factorization_cache

    label = f"{spec.family}/{spec.seed}"
    pin = pinned_digest(ctx, label)
    tally = Tally()
    tracer = LayerTracer()
    epoch_gaps: list[float] = []
    mission_times: list[float] = []
    timed: dict[bool, list[float]] = {False: [], True: []}
    digests: set[str] = set()
    cache_counts = {"hits": 0, "misses": 0}
    traced_bytes = 0
    # The runner scopes a private Metrics registry per mission; keep the
    # ones it creates so factorization hits can be read afterwards.
    registries: list = []
    make_registry = runner_module.Metrics

    def capture_registry():
        registry = make_registry()
        registries.append(registry)
        return registry

    def one(traced: bool) -> None:
        nonlocal traced_bytes
        clear_factorization_cache()
        stamps: list[float] = []

        def progress(kind, data):
            if kind == "epoch":
                stamps.append(time.perf_counter())

        try:
            t0 = time.perf_counter()
            with tracer.span(ROOT) if traced else nullcontext():
                doc = runner_module.run_mission(spec, config, progress=progress)
                payload = repro.io.dumps_canonical(doc)
            mission_s = time.perf_counter() - t0
        except Exception as exc:  # a raising mission fails all its epochs
            tally.attempted += spec.epochs
            tally.failed += spec.epochs
            tally.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        digest = sha256(payload)
        mission_problems = []
        summary = doc["summary"]
        if not (summary.get("completed") and summary.get("connected_all")):
            mission_problems.append(
                f"connected_all={summary.get('connected_all')} "
                f"completed={summary.get('completed')}"
            )
        if len(doc["epochs"]) != spec.epochs or len(stamps) != spec.epochs:
            mission_problems.append("wrong epoch count")
        if canonical_bytes(json.loads(payload)) != payload:
            mission_problems.append("document is not a canonical-JSON fixed point")
        if pin is not None and digest != pin:
            mission_problems.append(f"digest {digest} != pinned {pin}")
        if digests and digest not in digests:
            mission_problems.append("bytes differ from an earlier mission")
        digests.add(digest)
        for record in doc["epochs"]:
            problems = list(mission_problems)
            if record["c_violations"]:
                problems.append(f"{record['c_violations']} C violations")
            tally.record(f"{label} epoch {record['epoch']}", problems)
        timed[traced].append(mission_s)
        if traced:
            traced_bytes += len(payload)
            cache_counts["hits"] += summary["cache_hits"]
            cache_counts["misses"] += summary["cache_misses"]
        else:
            mission_times.append(mission_s)
            epoch_gaps.extend(b - a for a, b in zip([t0] + stamps, stamps))

    def run_pass() -> None:
        one(traced=False)
        if ctx.trace:
            tracer.install()
            runner_module.Metrics = capture_registry
            try:
                one(traced=True)
            finally:
                runner_module.Metrics = make_registry
                tracer.uninstall()

    measured_s = timed_passes(ctx.seconds, run_pass)
    detail = {
        "mission": {"spec": spec.to_dict(), "config": config.to_dict()},
        "mission_p50_s": statistics.median(mission_times) if mission_times else None,
        "missions": len(mission_times),
        "latencies_s": epoch_gaps,
        "digests": sorted(digests),
        "build_s": build_times,
        "measured_s": measured_s,
    }
    if ctx.trace:
        cache = cache_ratios(
            lambda name: sum(r.counter(name).value for r in registries)
        )
        # The runner counts disk-map traffic per leg into its document.
        cache["cache.diskmap.hit_ratio"] = ratio(cache_counts["hits"],
                                                 cache_counts["misses"])
        detail["trace.absent_targets"] = tracer.absent
        return finish(tally, layer_metrics(
            tracer.report(), cache, traced_bytes,
            overhead_frac(timed[False], timed[True]),
        ), detail)
    return finish(tally, end_to_end(setup_s, epoch_gaps, measured_s,
                                    peak_rss_mb()), detail)


# ----------------------------------------------------------------------
# service_mix

SERVICE_RATE_HZ = 3.0
SERVICE_REPEAT_FRACTION = 0.2
SERVICE_DEADLINE_S = 60.0
SERVICE_POLL_S = 0.01
SERVE_ARGS = ("serve", "--port", "0", "--service-workers", "2", "--workers", "1")
BANNER = "repro service listening on http://"


def service_request(scenario_id: int, separation: float) -> dict:
    return {
        "scenario_ids": [scenario_id],
        "separation_factor": separation,
        "methods": ["ours (a)"],
        "foi_target_points": 200,
        "lloyd_grid_target": 600,
        "resolution": 12,
    }


#: solved before the timed loop, one per scenario, at a separation no
#: schedule draws: a long-running server has built its per-scenario state
#: long before a given request arrives.
WARMUP_REQUESTS = (service_request(1, 5.0), service_request(2, 5.0))


def build_schedule(seed: int, seconds: float) -> list[dict]:
    """The open-loop arrival schedule: a pure function of its arguments.

    ``round(SERVICE_RATE_HZ x seconds)`` arrivals, stratified so every seed
    offers the same load and request mix: arrival ``k`` falls uniformly
    inside its own slot ``[k, k + 1) / rate`` (gaps range over
    ``(0, 2 / rate)``), and the unique requests alternate scenarios 1 and 2
    and draw one separation from each equal-width stratum of ``[10, 30)``,
    in seeded order.
    Exactly ``round(SERVICE_REPEAT_FRACTION x (count - 1))`` arrivals,
    never the first, resubmit an earlier unique request, which the service
    must deduplicate; ``repeat_of`` names the arrival that first sent it.
    """
    rng = random.Random(f"bench-service:{seed}")
    count = max(1, round(SERVICE_RATE_HZ * seconds))
    slot = seconds / count
    times = [(k + rng.random()) * slot for k in range(count)]
    repeats = set(rng.sample(range(1, count),
                             round(SERVICE_REPEAT_FRACTION * (count - 1))))
    uniques = count - len(repeats)
    pool = [
        service_request(1 + k % 2, round(10.0 + 20.0 * (k + rng.random()) / uniques, 1))
        for k in range(uniques)
    ]
    rng.shuffle(pool)
    schedule: list[dict] = []
    originals: list[int] = []
    for index, t in enumerate(times):
        if index in repeats:
            origin = rng.choice(originals)
            schedule.append({"t": t, "request": schedule[origin]["request"],
                             "repeat_of": origin})
        else:
            originals.append(index)
            schedule.append({"t": t, "request": pool.pop(), "repeat_of": None})
    return schedule


class Server:
    """A ``repro serve`` child process on an ephemeral port.

    With ``traced_report`` the server runs under ``traced_serve.py``, which
    writes its per-layer report to that path when the server exits.
    """

    def __init__(self, scratch: Path, traced_report: Path | None = None) -> None:
        self.journal = scratch / f"journal-{uuid.uuid4().hex}"
        if traced_report is None:
            cmd = [sys.executable, "-m", "repro", *SERVE_ARGS]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_serve.py"),
                   str(traced_report), *SERVE_ARGS]
        cmd += ["--journal-dir", str(self.journal)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.port = None
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> None:
        from repro.errors import ServiceError
        from repro.service import ServiceClient

        for line in self.proc.stdout:
            if line.startswith(BANNER):
                self.port = int(line.rsplit(":", 1)[1])
                break
        else:
            raise RuntimeError(f"server exited {self.proc.wait()} before binding")
        client = ServiceClient(port=self.port, timeout=5.0)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                if client.healthz().get("status") == "ok":
                    return
            except ServiceError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server /healthz never reported ok")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (a graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        shutil.rmtree(self.journal, ignore_errors=True)


def check_plan_batch(payload: bytes) -> list[str]:
    doc = json.loads(payload)
    problems = []
    if canonical_bytes(doc) != payload:
        problems.append("result is not a canonical-JSON fixed point")
    if doc.get("kind") != "plan_batch" or not doc.get("runs"):
        problems.append("not a plan_batch document")
    for run in doc.get("runs", {}).values():
        for method, ev in run["evaluations"].items():
            if ev["globally_connected"] is not True:
                problems.append(f"{method}: C != 1")
            if not 0.0 <= ev["stable_link_ratio"] <= 1.0:
                problems.append(f"{method}: L outside [0, 1]")
    return problems


@dataclass
class _Job:
    index: int
    job_id: str
    due: float


def open_loop(port: int, schedule: list[dict], tally: Tally) -> dict:
    """Replay ``schedule`` with one submitter thread and one poller thread.

    Latency runs from an arrival's *scheduled* time to its result bytes in
    hand, so 429 waits, retries and a late generator all count.  Every
    arrival ends as exactly one recorded operation.
    """
    from repro.errors import ServiceError
    from repro.service import QueueFull, ServiceClient

    lock = threading.Lock()
    outstanding: list[_Job] = []
    admitted: dict[int, str] = {}
    digests: dict[str, str] = {}
    latencies: list[float] = []
    calls: dict[str, list[float]] = {"submit": [], "status": [], "result": []}
    counts = {"rejected_429": 0, "http_5xx": 0, "max_lag_s": 0.0, "bytes": 0}
    submitting = threading.Event()
    submitting.set()
    t0 = time.monotonic() + 0.05

    def record(label: str, problems: list[str]) -> None:
        with lock:
            tally.record(label, problems)

    def describe(exc: Exception) -> str:
        status = getattr(exc, "status", None)
        if isinstance(status, int) and status >= 500:
            with lock:
                counts["http_5xx"] += 1
        return f"{type(exc).__name__}: {exc}"

    def admit(client, entry: dict, due: float) -> dict:
        """Submit until admitted; 429 is an answer to wait out, not a failure."""
        while True:
            start = time.monotonic()
            try:
                admission = client.submit_request(entry["request"])
            except QueueFull as exc:
                counts["rejected_429"] += 1
                if time.monotonic() - due > SERVICE_DEADLINE_S:
                    raise
                time.sleep(min(exc.retry_after_s or 0.05, 1.0))
                continue
            calls["submit"].append(time.monotonic() - start)
            return admission

    def submitter() -> None:
        client = ServiceClient(port=port, timeout=30.0)
        try:
            for index, entry in enumerate(schedule):
                due = t0 + entry["t"]
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                counts["max_lag_s"] = max(counts["max_lag_s"], -delay)
                try:
                    job_id = admit(client, entry, due)["job_id"]
                except Exception as exc:  # every refusal is a failed op
                    record(f"job {index}", [describe(exc)])
                    continue
                origin = entry["repeat_of"]
                if origin is not None and admitted.get(origin, job_id) != job_id:
                    record(f"job {index}", ["resubmission got a different job id"])
                    continue
                with lock:
                    admitted[index] = job_id
                    outstanding.append(_Job(index, job_id, due))
        finally:
            submitting.clear()

    def collect(client, job: _Job) -> bool:
        """One status poll; True once the job's operation is recorded."""
        label = f"job {job.index}"
        try:
            start = time.monotonic()
            state = client.status(job.job_id).get("state")
            calls["status"].append(time.monotonic() - start)
            if state == "done":
                start = time.monotonic()
                payload = client.result_bytes(job.job_id)
                end = time.monotonic()
                calls["result"].append(end - start)
                problems = check_plan_batch(payload)
                digest = sha256(payload)
                if digests.setdefault(job.job_id, digest) != digest:
                    problems.append("different bytes for one job id")
                with lock:
                    latencies.append(end - job.due)
                    counts["bytes"] += len(payload)
                record(label, problems)
                return True
            if state in ("failed", "cancelled", "expired"):
                record(label, [f"job ended {state}"])
                return True
            if time.monotonic() - job.due > SERVICE_DEADLINE_S:
                record(label, ["deadline miss"])
                return True
            return False
        except Exception as exc:  # a client-side crash is a finding too
            record(label, [describe(exc)])
            return True

    def poller() -> None:
        client = ServiceClient(port=port, timeout=30.0)
        while True:
            with lock:
                jobs = list(outstanding)
            if not jobs and not submitting.is_set():
                return
            finished = [job for job in jobs if collect(client, job)]
            with lock:
                for job in finished:
                    outstanding.remove(job)
            if not finished:
                time.sleep(SERVICE_POLL_S)

    threads = [threading.Thread(target=submitter, name="bench-submit"),
               threading.Thread(target=poller, name="bench-poll")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"latencies": latencies, "elapsed_s": time.monotonic() - t0,
            "calls": calls, **counts}


def warm_up(port: int) -> None:
    """Solve :data:`WARMUP_REQUESTS` (untimed) before a measured loop."""
    from repro.service import ServiceClient

    client = ServiceClient(port=port, timeout=30.0)
    for request in WARMUP_REQUESTS:
        job_id = client.submit_request(request)["job_id"]
        state = client.wait(job_id, timeout=SERVICE_DEADLINE_S, poll_s=0.01)
        if state.get("state") != "done":
            raise RuntimeError(f"warm-up job ended {state.get('state')!r}")


def service_layers(scrape: dict, loop: dict) -> dict:
    """The service's own layer numbers: client timings plus ``/metrics``."""
    def counter(name: str) -> float:
        return scrape.get(name, {}).get("value", 0.0)

    def histogram(name: str, key: str) -> float:
        return scrape.get(name, {}).get(key, 0.0)

    accepted = counter("service.jobs.accepted")
    deduplicated = counter("service.jobs.deduplicated")
    out = {
        f"service.http.{name}.p50_ms": statistics.median(values) * 1000.0
        for name, values in loop["calls"].items() if values
    }
    out.update({
        "service.queue_wait.mean_s": histogram("service.queue_wait_s", "mean"),
        "service.queue_wait.max_s": histogram("service.queue_wait_s", "max"),
        "service.job_duration.mean_s": histogram("service.job_duration_s", "mean"),
        "service.jobs.solved": counter("service.jobs.solved"),
        "service.jobs.deduplicated": deduplicated,
        "service.jobs.rejected": counter("service.jobs.rejected"),
        "service.jobs.failed": counter("service.jobs.failed"),
        "service.dedup_ratio": ratio(deduplicated, accepted),
        "service.journal.appends_per_job": (
            counter("service.journal.appends") / accepted if accepted else 0.0
        ),
        "service.cache.diskmap.hit_ratio": cache_ratios(counter)["cache.diskmap.hit_ratio"],
        "service.http.5xx": sum(
            v.get("value", 0.0) for k, v in scrape.items()
            if k.startswith("service.http.status.5")
        ),
        "loadgen.max_lag_s": loop["max_lag_s"],
        "loadgen.rejected_429": loop["rejected_429"],
    })
    return out


def run_service_workload(ctx: Context) -> dict:
    def import_program():
        import repro.service  # noqa: F401

    server, setup_s, boot_times = measure_setup(
        ctx, import_program, lambda: Server(ctx.scratch), discard=Server.stop
    )
    from repro.service import ServiceClient

    tally = Tally()
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    schedule = build_schedule(ctx.seed, seconds)
    try:
        warm_up(server.port)
        loop = open_loop(server.port, schedule, tally)
        scrape = ServiceClient(port=server.port).metrics()
        server_rss = server.peak_rss_mb()
    finally:
        server.stop()
    detail = {
        "arrivals": len(schedule),
        "unique_requests": sum(1 for e in schedule if e["repeat_of"] is None),
        "boot_s": boot_times,
        "elapsed_s": loop["elapsed_s"],
        "latencies_s": loop["latencies"],
        **service_layers(scrape, loop),
    }
    if not ctx.trace:
        return finish(tally, end_to_end(setup_s, loop["latencies"],
                                        loop["elapsed_s"], server_rss), detail)

    # Traced pass: the same schedule against a server whose layers are
    # wrapped; its end-to-end latency against the untraced loop's above
    # gives the tracing overhead.
    report_path = ctx.scratch / f"layers-{uuid.uuid4().hex}.json"
    traced_server = Server(ctx.scratch, traced_report=report_path)
    try:
        warm_up(traced_server.port)
        traced = open_loop(traced_server.port, schedule, tally)
        traced_scrape = ServiceClient(port=traced_server.port).metrics()
    finally:
        traced_server.stop()
    try:
        server_report = json.loads(report_path.read_text())
    finally:
        report_path.unlink(missing_ok=True)
    detail.update({f"traced.{k}": v
                   for k, v in service_layers(traced_scrape, traced).items()})
    detail["trace.absent_targets"] = server_report.pop("trace.absent_targets")
    return finish(tally, layer_metrics(
        server_report,
        cache_ratios(lambda name: traced_scrape.get(name, {}).get("value", 0.0)),
        traced["bytes"],
        overhead_frac([statistics.mean(loop["latencies"])],
                      [statistics.mean(traced["latencies"])]),
    ), detail)


# ----------------------------------------------------------------------

RUNNERS = {
    "paper_holes": lambda ctx: run_plan_workload(ctx, build_paper_cases),
    "swarm_1k": lambda ctx: run_plan_workload(ctx, build_zoo_cases),
    "mission_corridor": run_mission_workload,
    "service_mix": run_service_workload,
}
WORKLOADS = tuple(RUNNERS)
