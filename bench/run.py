"""The repository benchmark: one command that runs, checks and reports.

Run from the repository root::

    python3 bench/run.py --workload paper_holes --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workloads paper_holes swarm_1k --runs 3 --out a.json
    python3 bench/run.py --trace                      # per-layer pass
    python3 bench/run.py --compare a.json b.json       # verdict per metric
    python3 bench/run.py --smoke                       # all four, tiny sizes

Each (workload, run) executes in its own fresh child process, so set-up
time is measured from process start and no run inherits another's caches.
The program is imported from ``src/`` of the checkout this file sits in.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` for an untraced run, its per-layer metrics
for ``--trace 1``.  The exit code is 0 only when every operation of every
run succeeded and was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from importlib import metadata
from pathlib import Path

from workloads import RUNNERS, WORKLOADS, Context

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
SCRATCH_ROOT = REPO_ROOT / ".bench_tmp"

#: a child that has not answered by then is killed, with its process group.
CHILD_TIMEOUT_S = 170.0


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def metric_units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ----------------------------------------------------------------------
# child side


def child_main(args) -> int:
    ctx = Context(
        workload=args.child,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        spawned_at=float(os.environ["BENCH_SPAWNED_AT"]),
        scratch=Path(args.scratch),
    )
    print(json.dumps(RUNNERS[args.child](ctx)), flush=True)
    return 0


# ----------------------------------------------------------------------
# parent side


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool) -> dict:
    """One workload run in a fresh process; returns its result dict.

    Raises ``RuntimeError`` when the child crashes, times out or prints no
    result.
    """
    scratch = SCRATCH_ROOT / uuid.uuid4().hex
    scratch.mkdir(parents=True)
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src"), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(scratch)
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--child", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--scratch", str(scratch)]
    if smoke:
        cmd.append("--smoke")
    env["BENCH_SPAWNED_AT"] = repr(time.monotonic())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=REPO_ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def fingerprint(seed: int) -> dict:
    def version(name: str) -> str:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "absent"

    # The ceiling keeps git from answering for a repository that merely
    # contains this checkout.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO_ROOT.parent))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, env=git_env,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_run(workload: str, seed: int, result: dict, units: dict,
              wall_s: float) -> None:
    attempted, failed = result["attempted"], result["failed"]
    fail_frac = failed / attempted if attempted else 1.0
    print(f"== {workload} seed={seed}: {attempted} ops attempted, {failed} failed "
          f"(fail_frac {fail_frac:.4f}), wall {wall_s:.1f} s")
    for name, value in result["metrics"].items():
        print(f"  {name:44s} {format_value(value):>14s} {units.get(name, '')}")
    for name, value in result["detail"].items():
        items = value.items() if isinstance(value, dict) else [("", value)]
        for key, number in items:
            if isinstance(number, (int, float)):
                label = f"{name}.{key}" if key else name
                print(f"  {label:44s} {format_value(number):>14s}")
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}")


def result_line(results: dict[str, list[dict]], spec: dict, trace: bool) -> dict:
    """The last output line: totals plus every metric the spec declares.

    With one workload the metric names are the spec's own; with several,
    each is prefixed by its workload.  Over several runs a metric is the
    median of its runs.
    """
    units = metric_units(spec)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, runs in results.items():
        for run in runs:
            line["correct"] &= run["correct"] and run["failed"] == 0
            line["attempted"] += run["attempted"]
            line["failed"] += run["failed"]
        prefix = "" if len(results) == 1 else f"{workload}."
        for name in names:
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            if len(values) < len(runs):
                line["correct"] = False
                continue
            line["metrics"][prefix + name] = {
                "value": statistics.median(values), "unit": units[name],
            }
    return line


# ----------------------------------------------------------------------
# --compare


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for B against baseline A.

    ``worse`` means B's median is worse than A's by more than ``bound``.
    ``better`` means it improved by more than A's own quartile spread.
    When either side's spread is wider than the bound (or a side has a
    single run) the metric is ``unresolved`` unless every run of one side
    beats every run of the other.
    """
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (qb[1] - qa[1]) / qa[1]
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    if len(a) < 2 or len(b) < 2 or max(spread_a, spread_b) > bound:
        if len(a) >= 2 and len(b) >= 2:
            if min(sign * x for x in b) > max(sign * x for x in a):
                return "better"
            if max(sign * x for x in b) < min(sign * x for x in a):
                return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread_a:
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    print(f"A = {path_a} (rev {a['fingerprint']['git_rev'][:12]}), "
          f"B = {path_b} (rev {b['fingerprint']['git_rev'][:12]})")
    header = (f"{'workload':17s} {'metric':12s} {'unit':5s} "
              f"{'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s} "
              f"{'change':>8s}  verdict")
    print(header)
    worse = 0
    for workload, runs_a in a["runs"].items():
        runs_b = b["runs"].get(workload)
        if not runs_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name] for r in runs_a if name in r["metrics"]]
            vb = [r["metrics"][name] for r in runs_b if name in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            result = verdict(va, vb, metric["better"], metric["bound"])
            worse += result == "worse"
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (qa, qb)]
            change = (qb[1] - qa[1]) / qa[1]
            print(f"{workload:17s} {name:12s} {metric['unit']:5s} "
                  f"{cells[0]:>30s} {cells[1]:>30s} {change:+8.1%}  {result}")
    return 1 if worse else 0


# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", action="extend", choices=WORKLOADS,
                        help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every input draw (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, with seeds seed, seed+1, ...")
    parser.add_argument("--out", metavar="FILE",
                        help="write every run and an environment fingerprint")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files against the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass: checks the harness only")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {REPO_ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    workloads = list(dict.fromkeys(args.workloads or WORKLOADS))
    seconds = 1.0 if args.smoke else (args.seconds or float(spec["run_seconds"]))
    units = metric_units(spec)
    record = {"fingerprint": fingerprint(args.seed), "trace": bool(args.trace),
              "smoke": args.smoke, "seconds": seconds, "runs": {},
              "wall_s": {}}
    try:
        for workload in workloads:
            t0 = time.perf_counter()
            for i in range(args.runs):
                seed = args.seed + i
                start = time.perf_counter()
                result = run_child(workload, seed, seconds, bool(args.trace),
                                   args.smoke)
                result["seed"] = seed
                print_run(workload, seed, result, units, time.perf_counter() - start)
                record["runs"].setdefault(workload, []).append(result)
            record["wall_s"][workload] = time.perf_counter() - t0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["fingerprint"]["loadavg_end"] = list(os.getloadavg())
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    line = result_line(record["runs"], spec, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
