#!/usr/bin/env python3
"""Record what one tree of ``cobotsim`` costs, as one JSON file:

    PYTHONPATH=src python3 scripts/bench.py --record BENCH_<n>.json \\
        [--repeats N] [--python PY ...] [--perfbench-seconds S] \\
        [--perfbench-runs N]

The record holds:

- ``python``, ``cpu_count`` and ``environment``: the interpreter that ran
  the record, the CPUs it saw, and ``cost_report.ENVIRONMENT``, the
  variables pinned for the counted ops and the timed commands;
- ``size``: per module of ``src/cobotsim``, its physical and code lines
  (``cost_report.sizes``), and their totals;
- ``ops``: the opcodes and Python calls of each ``cost_report`` op, counts
  that do not vary between runs, and ``files``, the share of the op's
  opcodes executed in each file (``cost_report.file_shares``, to six
  significant digits), largest first;
- ``wall_ms``: each timed command's argv and its wall times in ms over
  ``--repeats`` rounds, with their best, median and worst. Each command
  runs as its own process under this interpreter, from a temporary
  directory, with ``PYTHONDONTWRITEBYTECODE=1``; a round runs every
  command once, so host drift between rounds falls on all of them alike.
  ``python -I -c pass`` ignores ``PYTHONPATH`` and the user site but
  still runs the ``site`` module and the ``.pth`` hooks of site-packages;
  ``python -I -S -c pass`` skips those too, so the difference between the
  two is what the installed packages add to every start;
- ``cross_version``: the versions of the ``--python`` interpreters given
  (null for one that does not run) and the exit status of
  ``scripts/cross_version.py`` over them (0 when every snapshot matches
  the first), or null without ``--python``. Its report goes to this
  script's stdout;
- ``perfbench``: the first seed, the seconds per run, the number of runs,
  and per workload of ``BENCHMARK.json`` the ``correct`` flag of every run
  and, per metric of the last line of ``perfbench/run.py --trace 0``, its
  unit, its value in each run, and their median and quartiles
  (``statistics.quantiles``, inclusive). Each workload runs
  ``--perfbench-runs`` times (default 5), at seeds ``PERFBENCH_SEED`` on,
  one seed per round, a round running every workload once; each run lasts
  ``--perfbench-seconds`` (default 10). It is null when that is 0.
  Nothing under ``perfbench/`` is imported or changed; it only runs as a
  subprocess.

Every subprocess imports the same ``cobotsim`` as the counted ops. Commit
one record per change, so the next reads a trajectory.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import cost_report
import cross_version

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench" / "run.py"
# The workload seed of the first perfbench round, so that records compare.
PERFBENCH_SEED = 1
CLI = ["-m", "cobotsim"]
# (label, arguments after the interpreter) of each timed command.
COMMANDS = (
    ("python -I -S -c pass", ["-I", "-S", "-c", "pass"]),
    ("python -I -c pass", ["-I", "-c", "pass"]),
    ("python -c pass", ["-c", "pass"]),
    ("import cobotsim", ["-c", "import cobotsim"]),
    ("run --variant v1.3 --emit csv,json,svg",
     [*CLI, "run", "--variant", "v1.3", "--emit", "csv,json,svg", "--out", "out"]),
    ("ensemble --variant v1.3 --seeds 1000",
     [*CLI, "ensemble", "--variant", "v1.3", "--seeds", "1000", "--out", "out"]),
    ("table2", [*CLI, "table2", "--out", "out"]),
    ("compare --seeds 1000", [*CLI, "compare", "--seeds", "1000", "--out", "out"]),
)


def size() -> dict:
    """Physical and code lines per module, then their totals."""
    modules = {name: {"lines": lines, "code": code}
               for name, lines, code in cost_report.sizes()}
    modules["total"] = {
        key: sum(module[key] for module in modules.values()) for key in ("lines", "code")
    }
    return modules


def wall_ms(repeats: int, env: dict) -> dict:
    """Each command of ``COMMANDS`` timed ``repeats`` times, a round at a
    time."""
    times = {label: [] for label, _ in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(repeats):
            for label, args in COMMANDS:
                start = time.perf_counter()
                subprocess.run([sys.executable, *args], cwd=tmp, env=env, check=True,
                               stdout=subprocess.DEVNULL)
                times[label].append(round(1000 * (time.perf_counter() - start), 2))
    return {
        label: {"argv": ["python", *args], "best": min(times[label]),
                "median": statistics.median(times[label]), "worst": max(times[label]),
                "runs": times[label]}
        for label, args in COMMANDS
    }


def version(python: str) -> str | None:
    """The version of ``python``, or None if it does not run."""
    try:
        return cross_version.python_version(python)
    except (OSError, subprocess.CalledProcessError):
        return None


def cross_versions(pythons: list[str], env: dict) -> dict | None:
    """The versions of ``pythons`` and the exit status of
    ``cross_version.py`` over them."""
    if not pythons:
        return None
    result = subprocess.run([sys.executable, cross_version.__file__, *pythons], env=env)
    return {"pythons": [*map(version, pythons)], "exit": result.returncode}


def perfbench(seconds: float, runs: int, env: dict) -> dict | None:
    """Per workload of ``BENCHMARK.json``, whether every one of ``runs``
    ``perfbench/run.py --trace 0`` runs of ``seconds`` was ``correct``, and
    each metric's values over them with their median and quartiles."""
    if not seconds:
        return None
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in benchmark["workloads"]]
    lasts = {name: [] for name in names}
    for seed in range(PERFBENCH_SEED, PERFBENCH_SEED + runs):
        for name in names:
            argv = [sys.executable, str(PERFBENCH), "--workload", name, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", "0"]
            result = subprocess.run(argv, cwd=ROOT, env=env, check=True,
                                    stdout=subprocess.PIPE, text=True)
            lasts[name].append(json.loads(result.stdout.splitlines()[-1]))
    workloads = {}
    for name, last in lasts.items():
        metrics = {}
        for metric, first in last[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in last]
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if runs > 1 else values * 3)
            metrics[metric] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                               "values": values}
        workloads[name] = {"correct": all(run["correct"] for run in last),
                           "metrics": metrics}
    return {"seed": PERFBENCH_SEED, "seconds": seconds, "runs": runs,
            "workloads": workloads}


def record(repeats: int, pythons: list[str], seconds: float, runs: int) -> dict:
    ops = {}
    for name, counts, calls in cost_report.counted_ops():
        shares = cost_report.file_shares(counts)
        files = {file: float(f"{share:.6g}") for file, share in shares.items()}
        ops[name] = {"opcodes": counts.total(), "calls": calls, "files": files}
    env = dict(os.environ, **cost_report.ENVIRONMENT, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(cost_report.PACKAGE.parent))
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "environment": cost_report.ENVIRONMENT,
        "size": size(),
        "ops": ops,
        "wall_ms": wall_ms(repeats, env),
        "cross_version": cross_versions(pythons, env),
        "perfbench": perfbench(seconds, runs, env),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--record", required=True, type=Path, metavar="PATH",
                        help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=7, metavar="N",
                        help="rounds of timed commands (default 7)")
    parser.add_argument("--python", action="append", default=[], metavar="PY",
                        help="an interpreter for cross_version.py; repeat for each")
    parser.add_argument("--perfbench-seconds", type=float, default=10.0, metavar="S",
                        help="seconds of each perfbench workload run; 0 skips them "
                        "(default 10)")
    parser.add_argument("--perfbench-runs", type=int, default=5, metavar="N",
                        help="runs of each perfbench workload, at consecutive seeds "
                        "(default 5)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not 0 <= args.perfbench_seconds < math.inf:
        parser.error("--perfbench-seconds must be finite and >= 0")
    if args.perfbench_runs < 1:
        parser.error("--perfbench-runs must be >= 1")
    data = record(args.repeats, args.python, args.perfbench_seconds, args.perfbench_runs)
    args.record.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
