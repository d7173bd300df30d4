"""Swarm-size scaling curves: wall-clock and peak allocation per stage.

The paper evaluates 100-400 robots; the pipeline itself is meant to
scale far beyond that.  This module measures each swarm-size-sensitive
stage - unit-disk-graph construction, CSR adjacency, connectivity,
trajectory sampling, stable-link accounting, the harmonic solve (cold
and factorization-warm) and batch point location - on synthetic swarms
of growing size, recording wall-clock seconds and peak allocation
(:mod:`tracemalloc`, which numpy's allocator reports to).

``python -m repro report --scaling`` appends the resulting curves to
the reproduction report; ``benchmarks/test_bench_perf_scaling.py`` and
``scripts/smoke.py scaling`` (the ``scaling`` entry of the CI ``smoke``
job) assert budgets on them.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_SIZES",
    "scaling_curve",
    "format_scaling_table",
    "stage_lookup",
    "synthetic_swarm_positions",
]

DEFAULT_SIZES = (100, 1_000, 10_000)

# Mean UDG degree the synthetic deployments aim for - dense enough to
# be connected-ish and exercise real neighbor lists, sparse enough that
# edge counts grow linearly with the swarm.
_TARGET_MEAN_DEGREE = 10.0

# Sample instants per trajectory when measuring swarm sampling.
_SAMPLE_TIMES = 33


def synthetic_swarm_positions(
    n: int, comm_range: float = 80.0, seed: int = 0
) -> np.ndarray:
    """Uniform random swarm over a square of constant expected density.

    The square's area grows linearly with ``n`` so the expected UDG
    degree stays near ``10`` at every size - the scaling axis is swarm
    size, not density.
    """
    rng = np.random.default_rng(seed)
    area = max(n, 1) * np.pi * comm_range**2 / _TARGET_MEAN_DEGREE
    side = float(np.sqrt(area))
    return rng.uniform(0.0, side, size=(n, 2))


def _measure(fn: Callable[[], object]) -> tuple[object, float, int]:
    """Run ``fn`` returning ``(result, seconds, peak_bytes)``.

    Peak allocation comes from :mod:`tracemalloc`, so the timing
    includes tracing overhead; curves are for *relative* growth across
    sizes, which tracing inflates uniformly.
    """
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, seconds, peak


def _curve_for_size(
    n: int, comm_range: float, seed: int, verify_max_n: int
) -> list[dict]:
    from repro.geometry import TriangleLocator
    from repro.harmonic import clear_factorization_cache, solve_linear
    from repro.harmonic.boundary import boundary_parameterization, circle_positions
    from repro.mesh.delaunay import delaunay_mesh
    from repro.network import (
        LinkTable,
        UnitDiskGraph,
        links_alive_throughout,
        udg_edges,
    )
    from repro.network.udg import _udg_edges_bruteforce
    from repro.robots.transition import straight_transition

    pts = synthetic_swarm_positions(n, comm_range, seed)
    rows: list[dict] = []

    def record(stage: str, fn: Callable[[], object], **detail) -> object:
        result, seconds, peak = _measure(fn)
        rows.append(
            {"stage": stage, "n": n, "seconds": seconds, "peak_bytes": peak,
             **detail}
        )
        return result

    edges = record("network.udg_edges", lambda: udg_edges(pts, comm_range))
    if n <= verify_max_n:
        oracle = _udg_edges_bruteforce(pts, comm_range)
        if not np.array_equal(edges, oracle):
            raise AssertionError(
                f"KD-tree UDG deviates from brute force at n={n}"
            )

    graph = UnitDiskGraph(pts, comm_range)
    record("network.adjacency", lambda: graph.adjacency, edges=len(edges))
    record("network.components", lambda: graph.components)

    # Straight constant-speed march of the whole swarm, sampled on a
    # uniform grid - the motion model the metrics consume; Definition 1
    # reads the march itself.
    goal = pts + np.array([comm_range, 0.0])
    traj = straight_transition(pts, goal, 0.0, 10.0)
    times = np.linspace(0.0, 10.0, _SAMPLE_TIMES)
    record(
        "robots.sampling",
        lambda: traj.positions_over(times),
        samples=_SAMPLE_TIMES,
    )

    links = LinkTable.from_graph(graph)
    record(
        "metrics.stable_links",
        lambda: links_alive_throughout(links, traj),
        links=links.link_count,
    )

    mesh = record("mesh.delaunay", lambda: delaunay_mesh(pts))
    loop, angles = boundary_parameterization(mesh)
    bpos = circle_positions(angles)
    clear_factorization_cache()
    record(
        "harmonic.solve_cold",
        lambda: solve_linear(mesh, loop, bpos),
        interior=int(mesh.vertex_count - len(loop)),
    )
    record("harmonic.solve_warm", lambda: solve_linear(mesh, loop, bpos))
    clear_factorization_cache()

    locator = record(
        "geometry.locator_build",
        lambda: TriangleLocator(mesh.vertices, mesh.triangles),
        triangles=int(mesh.triangle_count),
    )
    record("geometry.locate_batch", lambda: locator.locate_nearest_many(pts))
    return rows


def scaling_curve(
    sizes: Sequence[int] = DEFAULT_SIZES,
    comm_range: float = 80.0,
    seed: int = 0,
    verify_max_n: int = 1_000,
) -> dict:
    """Measure every stage at every swarm size.

    Parameters
    ----------
    sizes : sequence of int
        Swarm sizes, ascending.
    comm_range : float
        Communication range (deployment density tracks it).
    seed : int
        Seed for the synthetic deployments.
    verify_max_n : int
        Up to this size the KD-tree edge set is checked against
        the brute-force oracle (an :class:`AssertionError` on any
        deviation); beyond it the oracle is too slow to run routinely.

    Returns
    -------
    dict
        ``{"sizes", "comm_range", "seed", "rows"}`` where ``rows`` is a
        flat list of per-(stage, n) measurements with ``seconds`` and
        ``peak_bytes``.
    """
    rows: list[dict] = []
    for n in sizes:
        rows.extend(_curve_for_size(int(n), comm_range, seed, verify_max_n))
    return {
        "sizes": [int(n) for n in sizes],
        "comm_range": float(comm_range),
        "seed": int(seed),
        "rows": rows,
    }


def stage_lookup(curve: dict) -> dict[tuple[str, int], dict]:
    """Index a curve's rows by ``(stage, n)``."""
    return {(r["stage"], r["n"]): r for r in curve["rows"]}


def format_scaling_table(curve: dict) -> str:
    """Render a curve as a stage x size markdown table.

    Each cell reads ``seconds / peak-MB``; stages appear in pipeline
    order, sizes ascending.
    """
    from repro.experiments.tables import format_table

    sizes = curve["sizes"]
    by_key = stage_lookup(curve)
    stages: list[str] = []
    for r in curve["rows"]:
        if r["stage"] not in stages:
            stages.append(r["stage"])
    rows = []
    for stage in stages:
        cells: list[str] = [stage]
        for n in sizes:
            r = by_key.get((stage, n))
            if r is None:
                cells.append("-")
            else:
                cells.append(
                    f"{r['seconds']:.3f} s / {r['peak_bytes'] / 1e6:.1f} MB"
                )
        rows.append(cells)
    return format_table(
        ["stage"] + [f"n={n}" for n in sizes], rows, markdown=True
    )
