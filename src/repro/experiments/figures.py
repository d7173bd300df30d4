"""Figure generation: render sweep results as the paper's plot panels.

Produces the fourth-row (total moving distance, normalised to the
Hungarian optimum) and fifth-row (total stable link ratio) panels of
Figs. 3-5 as SVG line charts from a :class:`SweepResult`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.experiments.harness import SweepResult
from repro.viz.chart import LineChart

__all__ = ["write_sweep_figures"]


def write_sweep_figures(
    sweep: SweepResult,
    directory,
    methods: Sequence[str] = ("ours (a)", "ours (b)", "direct translation", "Hungarian"),
) -> list[Path]:
    """Write the two figure panels for one scenario sweep.

    Parameters
    ----------
    sweep : SweepResult
    directory : path-like
        Output directory (created if needed).
    methods : sequence of str
        Methods to plot, in the fixed palette order.

    Returns
    -------
    list of Path
        ``[<dir>/scenario<k>_distance_ratio.svg, <dir>/scenario<k>_stable_links.svg]``
    """
    out = Path(directory)
    seps = sweep.separations
    written: list[Path] = []

    distance = LineChart(
        title=f"Scenario {sweep.scenario_id}: total moving distance "
        "(normalised to Hungarian)",
        x_label="M1-M2 separation (x communication range)",
        y_label="D / D_Hungarian",
    )
    for m in methods:
        distance.add_series(m, seps, sweep.series("distance_ratio", m))
    written.append(out / f"scenario{sweep.scenario_id}_distance_ratio.svg")
    distance.save(written[-1])

    links = LineChart(
        title=f"Scenario {sweep.scenario_id}: total stable link ratio",
        x_label="M1-M2 separation (x communication range)",
        y_label="stable link ratio L",
        y_range=(0.0, 1.05),
    )
    for m in methods:
        links.add_series(m, seps, sweep.series("stable_link_ratio", m))
    written.append(out / f"scenario{sweep.scenario_id}_stable_links.svg")
    links.save(written[-1])
    return written

