"""Tests of the benchmark itself: its reference evaluator, its output checks,
its span arithmetic and its host-speed correction.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import random
from pathlib import Path

import pytest

import cobotsim
import reference as ref
import run
import timing
import tracing
import workloads
from cobotsim import cli, configio, engine, reports

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


def model_config(cfg: dict):
    return configio.parse_config(workloads.render_config(cfg))


@pytest.mark.parametrize("name, overrides", run.GOLDEN)
def test_reference_matches_golden_files(name, overrides):
    rows = ref.simulate(ref.resolve(overrides))
    assert ref.trajectory_csv(rows) == (GOLDEN_DIR / name).read_text(encoding="utf-8")


def test_reference_matches_package_on_random_configs():
    rng = random.Random(20251017)
    for i in range(300):
        cfg = workloads.random_config(rng, ref.VARIANTS[i % 4])
        records, summary = engine.run_shift(model_config(cfg))
        assert ref.check_records(records, summary, cfg) is None, cfg
        assert reports.emit_trajectory_csv(records) == ref.trajectory_csv(ref.simulate(cfg))


def test_reference_matches_compare_report():
    text = cli.format_comparison(30, 977)
    assert ref.check_comparison(text, 30, 977) is None


def _workload(cls, tmp_path, seed=5):
    return cls(cobotsim, seed, tmp_path)


@pytest.mark.parametrize("cls", [workloads.PairedEnsemble, workloads.LongShift,
                                 workloads.CliSweep])
def test_workload_ops_pass_their_checks(cls, tmp_path):
    wl = _workload(cls, tmp_path)
    for op in wl.next_ops(4):
        assert wl.check(op, wl.run(op)) is None


def test_perturbed_trajectory_file_fails_the_check(tmp_path):
    wl = _workload(workloads.CliSweep, tmp_path)
    op = wl.next_ops(1)[0]
    assert wl.run(op) == 0
    path = op[1] / "trajectory.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[3].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)  # trust_pre of turn 3
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    assert wl.check(op, 0) == "trajectory CSV differs from the reference"


def test_perturbed_records_and_report_fail_the_check(tmp_path):
    wl = _workload(workloads.LongShift, tmp_path)
    op = wl.next_ops(1)[0]
    records, summary = wl.run(op)
    records[100].fatigue_post += 0.5
    assert "step 101" in wl.check(op, (records, summary))

    wl = _workload(workloads.PairedEnsemble, tmp_path)
    op = wl.next_ops(1)[0]
    text = wl.run(op)
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith(f"{op:>8} |"))
    lines[row] = f"{op:>8} | t=1 k=1 | t=1 k=1"
    assert wl.check(op, "\n".join(lines)) is not None
    assert wl.check(op, text.replace("mean final trust:   v1.2 0", "mean final trust:   v1.2 1")) \
        is not None


def test_harness_counts_a_perturbed_op_as_failed(tmp_path):
    wl = _workload(workloads.LongShift, tmp_path)

    def perturbed(op):
        records, summary = wl.run(op)
        records[-1].trust_post = 2.0
        return records, summary

    tally = run.Tally()
    timings, _ = run.timed_block(wl, wl.next_ops(2), tally, call=perturbed)
    assert (tally.attempted, tally.failed, len(timings)) == (2, 2, 2)


@pytest.mark.parametrize("spread, steady", [(0.5, True), (2.0, False)])
def test_block_is_unsteady_when_its_calibrations_disagree(tmp_path, monkeypatch, spread, steady):
    calibrations = (0.004, 0.004 * (1 + spread * run.STEADY_CALIBRATION))
    times = iter(calibrations)
    monkeypatch.setattr(run, "time_calibration", lambda: next(times))
    wl = _workload(workloads.PairedEnsemble, tmp_path)
    timings, got = run.timed_block(wl, wl.next_ops(1), run.Tally())
    assert got is steady
    assert timings[0][1] == timing.correction_factor(sum(calibrations) / 2)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_folds_calls_by_layer():
    tracer = tracing.Tracer()
    inner = tracer.span("game.solve", lambda x: x)
    same_layer = tracer.span("engine.summary", lambda x: x)
    outer = tracer.span("engine.run", lambda: [inner(1), inner(2), same_layer(3)])
    root = tracer.span(tracing.ROOT, outer)
    root()
    assert [name for name, *_ in tracer.spans()] == [
        tracing.ROOT, "engine.run", "game.solve", "game.solve", "engine.summary"
    ]
    tracer.fold()
    assert tracer.spans() == []
    entered = {name: total[0] for name, total in tracer.totals.items()}
    assert entered == {tracing.ROOT: 1, "engine.run": 1, "game.solve": 2, "engine.summary": 0}
    for name, (_, duration, self_time, _) in tracer.totals.items():
        assert 0.0 <= self_time <= duration


def test_tracer_skips_missing_bindings_and_restores_the_rest(monkeypatch):
    monkeypatch.delattr(cli, "median_recovery_capped")
    original = engine.solve_stage_game
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert engine.solve_stage_game is not original
        engine.run_shift(engine.ModelConfig())
    finally:
        tracer.uninstall()
    assert engine.solve_stage_game is original
    assert not hasattr(cli, "median_recovery_capped")
    tracer.fold()
    assert tracer.totals["game.solve_stage_game"][3] == 50


def test_counts_follow_the_records():
    cfg = ref.resolve({"variant": "v1.3", "seed": 42})
    records, summary = engine.run_shift(model_config(cfg))
    counts = tracing.Counts()
    counts.add_shift(records, summary, cfg)
    m = counts.metrics()
    events = sum(r.disruption_event.value != "none" for r in records)
    assert m["engine.turns"] == 50
    assert m["disruption.draws"] == 50 + events
    assert m["repair.arms"] == m["dynamics.severe_failures"] == len(summary.severe_failure_turns)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_correction_factor_is_one_at_the_reference_time():
    assert timing.correction_factor(timing.REFERENCE_CALIBRATION_S) == 1.0
    assert timing.correction_factor(2 * timing.REFERENCE_CALIBRATION_S) == 0.5


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 101)]
    assert timing.percentile(values, 0.5) == 50.5
    assert timing.percentile(values, 0.9) == pytest.approx(90.1)
