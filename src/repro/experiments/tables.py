"""Plain-text rendering of the paper's tables and figure series.

The benchmark harness prints these so a run's stdout contains the same
rows the paper reports (Table I, the distance-ratio and stable-link
series of Figs. 3-5).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.experiments.harness import ScenarioRun, SweepResult

__all__ = ["format_table", "render_sweep", "render_table1"]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], markdown: bool = False
) -> str:
    """Render rows as a fixed-width text table with a header rule, or as
    a markdown pipe table with ``markdown=True``."""
    str_rows = [[str(c) for c in row] for row in rows]
    if markdown:
        lines = [list(headers), ["---"] * len(headers), *str_rows]
        return "\n".join("| " + " | ".join(line) + " |" for line in lines)
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
    rule = "-+-".join("-" * w for w in widths)
    lines = [fmt(headers), rule]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def render_sweep(sweep: SweepResult, methods: Sequence[str]) -> str:
    """Fig. 3-style series: distance ratio and stable link ratio per method."""
    headers = ["sep (x r_c)"]
    for m in methods:
        headers.append(f"D/{'D_H'} {m}")
    for m in methods:
        headers.append(f"L {m}")
    rows = []
    for point in sweep.points:
        row = [f"{point.separation_factor:g}"]
        row.extend(f"{point.distance_ratio[m]:.3f}" for m in methods)
        row.extend(f"{point.stable_link_ratio[m]:.3f}" for m in methods)
        rows.append(row)
    title = f"Scenario {sweep.scenario_id}: metrics vs M1-M2 separation"
    return title + "\n" + format_table(headers, rows)


def render_table1(runs: Mapping[int, ScenarioRun], methods: Sequence[str]) -> str:
    """Table I: global connectivity Y/N per scenario and method."""
    headers = ["Scenario"] + list(methods)
    rows = []
    for scenario_id in sorted(runs):
        run = runs[scenario_id]
        row = [f"Scenario {scenario_id}"]
        for m in methods:
            row.append(run.evaluations[m].connectivity_flag)
        rows.append(row)
    return "TABLE I. GLOBAL CONNECTIVITY DURING TRANSITION\n" + format_table(
        headers, rows
    )
