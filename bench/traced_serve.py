"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage::

    PYTHONPATH=src python bench/traced_serve.py REPORT.json serve [options]

The service's plan-job body (``run_plan_request``) is traced as a root, so
the per-layer self times of every solved job land in one report.  When the
server exits (SIGTERM drains it first) the report is written to
``REPORT.json``: the same keys :meth:`layers.LayerTracer.report` returns,
plus ``trace.absent_targets``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from layers import ROOT, TARGETS, LayerTracer

SERVICE_ROOT = ("repro.service.server:run_plan_request", ROOT)


def main(argv: list[str]) -> int:
    report_path, *serve_argv = argv
    tracer = LayerTracer()
    absent = tracer.install(TARGETS + (SERVICE_ROOT,))
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_argv)
    finally:
        report = tracer.report()
        report["trace.absent_targets"] = absent
        Path(report_path).write_text(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
