"""End-to-end and per-layer benchmark of the cobotsim package.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``. Each run is a closed loop with
one client in this single-threaded process: the next op starts when the
previous one returns. Every op's output is checked against the independent
reference evaluator in ``reference.py``, outside the timed call, and both
golden trajectories under ``tests/golden`` are checked once per run.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
Op times are CPU times scaled by the host-speed calibration in
``timing.py``; raw values and the correction factors are printed beside
them. ``setup_s`` is the median over several in-process set-ups of the time
to import every ``cobotsim`` module, generate the first inputs and run one
warm-up op.

``--trace 1`` runs a fixed number of ops untraced, then the same ops with a
span around each public-function binding (``tracing.py``), then derives
counts from the records of the ops' shifts and times the layer functions in
isolation. It reports the per-layer metrics; their counts repeat exactly
for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference as ref
import tracing
import workloads
from timing import clock, correction_factor, percentile, time_calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SUBMODULES = ("cli", "engine", "game", "disruption", "dynamics", "repair",
              "configio", "reports", "charts")
SETUP_SAMPLES = 7
# A block whose two calibrations differ by more than this share ran while the
# host changed speed; no single factor corrects it, so its ops are checked
# but not timed, unless too few blocks were steady to leave any out.
STEADY_CALIBRATION = 0.1
MIN_STEADY_SHARE = 0.25
TRACE_OPS = {"paired-ensemble": 16, "cli-sweep": 200, "long-shift": 16}
GOLDEN = (
    ("v1_1_trajectory.csv", {"variant": "v1.1"}),
    ("v1_3_seed42_trajectory.csv", {"variant": "v1.3", "seed": 42}),
)

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def load_cobotsim():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cobotsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cobotsim source under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("cobotsim")
    if Path(package.__file__).resolve().parent != SRC / "cobotsim":
        raise SystemExit(f"perfbench: imported cobotsim from {package.__file__}")
    for name in SUBMODULES:
        importlib.import_module(f"cobotsim.{name}")
    return package


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def run_op(wl, op, tally: Tally, call=None):
    """Time one op; returns (seconds, result), or None when it raised."""
    call = call or wl.run
    start = clock()
    try:
        result = call(op)
    except Exception:  # an op that raises counts as failed; the loop goes on
        tally.add("raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        return None
    return clock() - start, result


def timed_block(wl, ops, tally: Tally, call=None, after_op=None):
    """Run ``ops`` between two calibrations, then check each result.
    Returns [(raw seconds, correction factor)] of the ops that ran, and
    whether the two calibrations agree within ``STEADY_CALIBRATION``.

    The cyclic collector is emptied first, so that where its passes fall
    inside the ops depends on what the ops allocate, not on what the checks
    allocated before them."""
    gc.collect()
    before = time_calibration()
    ran = []
    for op in ops:
        outcome = run_op(wl, op, tally, call)
        if outcome is not None:
            ran.append((op, *outcome))
            if after_op is not None:
                after_op(op)
    after = time_calibration()
    factor = correction_factor((before + after) / 2)
    timings = []
    for op, seconds, result in ran:
        tally.add(wl.check(op, result))
        timings.append((seconds, factor))
    return timings, abs(after - before) <= STEADY_CALIBRATION * min(after, before)


def check_goldens(cs, tally: Tally) -> None:
    """The program and the reference both reproduce the frozen trajectories."""
    for name, overrides in GOLDEN:
        path = ROOT / "tests" / "golden" / name
        cfg = ref.resolve(overrides)
        try:
            model = cs.configio.parse_config(workloads.render_config(cfg))
            produced = cs.reports.emit_trajectory_csv(cs.engine.run_shift(model)[0])
        except Exception as exc:  # reported as a failed check, not a crash
            tally.add(f"golden {name}: raised {exc!r}")
            continue
        golden = path.read_text(encoding="utf-8") if path.is_file() else None
        if golden is None:
            tally.add(f"golden {name}: missing")
        elif produced != golden:
            tally.add(f"golden {name}: program output differs")
        elif ref.trajectory_csv(ref.simulate(cfg)) != golden:
            tally.add(f"golden {name}: reference output differs")
        else:
            tally.add(None)


def measure_setup(make, tally: Tally):
    """(raw seconds, correction factor) of ``SETUP_SAMPLES`` set-ups, and the
    package loaded by the last one.

    A set-up imports every ``cobotsim`` module afresh (after dropping them
    from ``sys.modules``), generates the first op's inputs and runs it as a
    warm-up. It runs in this process, between two calibrations on the same
    CPU; the first one, which also imports the standard-library modules the
    package needs, is discarded. Interpreter start-up is left out: the
    package cannot change it, and on a shared virtual machine its cost
    follows the rate of page faults rather than the speed the calibration
    measures."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        for name in [m for m in sys.modules if m.partition(".")[0] == "cobotsim"]:
            del sys.modules[name]
        gc.collect()
        before = time_calibration()
        start = clock()
        cs = load_cobotsim()
        wl = make(cs)
        op, result = _warm_up(wl)
        elapsed = clock() - start
        factor = correction_factor((before + time_calibration()) / 2)
        tally.add(wl.check(op, result))
        if i:
            samples.append((elapsed, factor))
    return samples, cs


def _warm_up(wl):
    op = wl.next_ops(1)[0]
    return op, wl.run(op)


def end_to_end(args, make, tally: Tally) -> tuple[dict, dict]:
    setup, cs = measure_setup(make, tally)
    wl = make(cs)
    steady_timings, all_timings = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        block, steady = timed_block(wl, wl.next_ops(wl.block), tally)
        all_timings += block
        if steady:
            steady_timings += block
    if not all_timings:
        raise SystemExit("perfbench: no op completed")
    use_steady = len(steady_timings) >= MIN_STEADY_SHARE * len(all_timings)
    timings = steady_timings if use_steady else all_timings
    raw = [s for s, _ in timings]
    corrected = [s * f for s, f in timings]
    factors = [f for _, f in timings]

    def summary(times):
        return {
            "ops_per_s": len(times) / sum(times),
            "op_ms_p50": 1e3 * percentile(times, 0.5),
            "op_ms_p90": 1e3 * percentile(times, 0.9),
        }

    metrics = summary(corrected)
    metrics["setup_s"] = statistics.median(s * f for s, f in setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["ok_frac"] = 1 - tally.failed / tally.attempted
    context = {
        "ops": len(all_timings),
        "timed_ops": len(timings),
        "raw": {**summary(raw), "setup_s": statistics.median(s for s, _ in setup)},
        "correction_factor": {
            "median": statistics.median(factors), "min": min(factors), "max": max(factors),
            "setup_median": statistics.median(f for _, f in setup),
        },
        "failed_frac": tally.failed / tally.attempted,
        "trace_overhead_frac": None,
    }
    return metrics, context


def per_layer(args, cs, make, tally: Tally) -> tuple[dict, dict]:
    warm = make(cs)
    tally.add(warm.check(*_warm_up(warm)))
    n_ops = TRACE_OPS[args.workload]

    def one_pass(wl, call=None, after_op=None):
        # A fresh workload per pass replays the same ops from the same seed.
        timings = []
        for _ in range(n_ops // wl.block):
            timings += timed_block(wl, wl.next_ops(wl.block), tally, call, after_op)[0]
        return timings

    untraced = one_pass(make(cs))

    wl = make(cs)
    tracer = tracing.Tracer()
    first_op_spans: list[tuple] = []
    det_calls = 0

    def after_op(op):
        nonlocal det_calls
        if not first_op_spans:
            first_op_spans.extend(tracer.spans())
        if all(c["variant"] not in ref.STOCHASTIC for c in wl.shift_configs(op)):
            det_calls += tracer.names.count("disruption.sample_disruption")
        tracer.fold()

    tracer.install()
    try:
        traced = one_pass(wl, tracer.span(tracing.ROOT, wl.run), after_op)
    finally:
        tracer.uninstall()
    artifact_bytes = {name: 0 for name in workloads.ARTIFACTS}
    for name, size in wl.written:
        artifact_bytes[name] += size

    counts = tracing.Counts()
    shifts = []
    kept_turns = 0
    counted = make(cs)
    for op in counted.next_ops(n_ops):
        for cfg in counted.shift_configs(op):
            model = cs.configio.parse_config(workloads.render_config(cfg))
            records, summary = cs.engine.run_shift(model)
            counts.add_shift(records, summary, cfg)
            if kept_turns < 20000:
                shifts.append((records, summary, cfg, model))
                kept_turns += len(records)

    factor = statistics.median(f for _, f in traced + untraced)
    iso, missing = tracing.isolated_timings(cs, shifts, factor)
    untraced_s = sum(s * f for s, f in untraced)
    traced_s = sum(s * f for s, f in traced)

    metrics = dict.fromkeys(tracing.PER_LAYER, 0)
    metrics.update(tracing.span_metrics(tracer.totals, counts.c["engine.turns"], factor))
    metrics.update(counts.metrics())
    metrics.update(iso)
    metrics["disruption.det_calls"] = det_calls
    metrics["reports.bytes"] = artifact_bytes["trajectory.csv"] + artifact_bytes["summary.json"]
    metrics["charts.bytes"] = artifact_bytes["chart.svg"]
    metrics["cli.files_written"] = len(wl.written)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    metrics["trace.ops"] = n_ops

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps({
        "totals": {name: dict(zip(("entered", "total_s", "self_s", "calls"), t))
                   for name, t in sorted(tracer.totals.items())},
        "first_op": [dict(zip(("name", "start", "end", "parent"), s)) for s in first_op_spans],
    }, indent=1), encoding="utf-8")
    context = {
        "ops": n_ops,
        "correction_factor": {"median": factor},
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "trace_overhead_frac": metrics["trace.overhead_frac"],
        "isolated_unavailable": missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failed_frac": tally.failed / tally.attempted,
    }
    return metrics, context


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the whole run, so that each calibration measures the CPU
    # that runs the ops it brackets. The last one is the least likely to
    # serve interrupts.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    cs = load_cobotsim()
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()

    def make(package):
        return workloads.WORKLOADS[args.workload](package, args.seed, workdir)

    try:
        check_goldens(cs, tally)
        if args.trace:
            metrics, context = per_layer(args, cs, make, tally)
            units = tracing.PER_LAYER
        else:
            metrics, context = end_to_end(args, make, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's directory is still there
            pass

    context.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_lines": src_lines(),
        "errors": tally.errors,
    })
    for name, unit in units.items():
        print(f"{name:28} {metrics[name]:>14.6g} {unit}")
    print("context " + json.dumps(context))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
