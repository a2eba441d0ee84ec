"""Per-layer measurement: span tracing, counts from records, isolated timings.

Layers are the ``cobotsim`` modules. Spans are recorded by wrapping each
module's public functions where their callers bind them (for example
``cobotsim.engine.solve_stage_game``); the program itself is not edited. A
binding that a later refactor removes is skipped, so its layer reports zero
calls instead of failing. Counts come from the ``StepRecord``s and summaries
that ``run_shift`` returns, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import reference as ref

# (module, attribute, span name); the span name's prefix is its layer.
BINDINGS = (
    ("cobotsim.engine", "solve_stage_game", "game.solve_stage_game"),
    ("cobotsim.engine", "human_best_response", "game.human_best_response"),
    ("cobotsim.engine", "sample_disruption", "disruption.sample_disruption"),
    ("cobotsim.engine", "update_fatigue", "dynamics.update_fatigue"),
    ("cobotsim.engine", "classify_interaction", "dynamics.classify_interaction"),
    ("cobotsim.engine", "update_trust", "dynamics.update_trust"),
    ("cobotsim.engine", "leader_override", "repair.leader_override"),
    ("cobotsim.engine", "tick", "repair.tick"),
    ("cobotsim.engine", "on_outcome", "repair.on_outcome"),
    ("cobotsim.engine", "run_step", "engine.run_step"),
    ("cobotsim.engine", "run_shift", "engine.run_shift"),
    ("cobotsim.engine", "summarize_shift", "engine.summarize_shift"),
    ("cobotsim.engine", "recovery_time", "engine.recovery_time"),
    ("cobotsim.cli", "run_shift", "engine.run_shift"),
    ("cobotsim.cli", "run_ensemble", "engine.run_ensemble"),
    ("cobotsim.cli", "median_recovery_capped", "engine.median_recovery_capped"),
    ("cobotsim.cli", "parse_config", "configio.parse_config"),
    ("cobotsim.cli", "config_with_overrides", "configio.config_with_overrides"),
    ("cobotsim.configio", "parse_config", "configio.parse_config"),
    ("cobotsim.cli", "emit_trajectory_csv", "reports.emit_trajectory_csv"),
    ("cobotsim.cli", "emit_summary_json", "reports.emit_summary_json"),
    ("cobotsim.cli", "emit_svg_chart", "charts.emit_svg_chart"),
    ("cobotsim.cli", "main", "cli.main"),
    ("cobotsim.cli", "format_comparison", "cli.format_comparison"),
)

ROOT = "bench.op"

# name -> unit, in report order; every workload reports every one. Times
# are scaled by the run's calibration factor. ``<layer>.calls`` counts calls
# entering the layer from another one, and ``self_s`` is the time inside the
# layer's spans minus their child spans. ``*_iso_us`` times one function in
# isolation (``dynamics.iso_turn_us``: the three update calls of one turn).
# ``game.ties`` counts solves where a tie-break rule decided the leader's or
# the follower's choice in either branch, ``game.penalties`` solves where the
# threshold penalty applied in either branch; ``repeat_share`` is the share
# of solves whose (game params, trust, fatigue) input was seen before.
# ``disruption.det_calls`` counts draws made by ops that run only v1.0/v1.1;
# ``engine.us_per_turn`` is the self time of ``run_shift`` and ``run_step``
# per turn; ``engine.summary_s`` includes the recovery scan, and
# ``engine.aggregate_s`` is ``run_ensemble`` beyond its shifts.
PER_LAYER = {
    "game.calls": "count",
    "game.self_s": "s",
    "game.us_per_call": "us",
    "game.iso_us": "us",
    "game.repeat_share": "frac",
    "game.ties": "count",
    "game.penalties": "count",
    "disruption.calls": "count",
    "disruption.draws": "count",
    "disruption.det_calls": "count",
    "disruption.cobot_failures": "count",
    "disruption.difficult_picks": "count",
    "disruption.self_s": "s",
    "disruption.us_per_call": "us",
    "disruption.iso_us": "us",
    "dynamics.calls": "count",
    "dynamics.self_s": "s",
    "dynamics.us_per_call": "us",
    "dynamics.iso_turn_us": "us",
    "dynamics.successes": "count",
    "dynamics.minor_failures": "count",
    "dynamics.severe_failures": "count",
    "repair.calls": "count",
    "repair.overrides": "count",
    "repair.arms": "count",
    "repair.self_s": "s",
    "engine.turns": "count",
    "engine.self_s": "s",
    "engine.us_per_turn": "us",
    "engine.summary_s": "s",
    "engine.summary_iso_us": "us",
    "engine.recovery_scan_steps": "count",
    "engine.censored_share": "frac",
    "engine.aggregate_s": "s",
    "reports.self_s": "s",
    "reports.csv_us": "us",
    "reports.json_us": "us",
    "reports.csv_iso_us": "us",
    "reports.json_iso_us": "us",
    "reports.bytes": "bytes",
    "charts.self_s": "s",
    "charts.svg_us": "us",
    "charts.svg_iso_us": "us",
    "charts.bytes": "bytes",
    "configio.calls": "count",
    "configio.self_s": "s",
    "configio.us_per_call": "us",
    "cli.self_s": "s",
    "cli.files_written": "count",
    "trace.overhead_frac": "frac",
    "trace.ops": "count",
}


class Tracer:
    """Span recorder. Spans live in parallel lists until ``fold`` reduces
    the finished op's spans to per-name totals and clears them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack = [-1]
        self.saved: list[tuple] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])

    def span(self, name: str, fn):
        """``fn`` wrapped to record one span per call."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                self.saved.append((module, attr, fn))
                setattr(module, attr, self.span(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()

    def spans(self) -> list[tuple]:
        """(name, start, end, parent) of the spans not yet folded."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def fold(self) -> None:
        """Add the recorded spans to ``totals`` and forget them. Per name:
        [calls entering the layer, total duration, self time, calls]."""
        selfs = self_times(self.starts, self.ends, self.parents)
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            total = self.totals[name]
            if parent < 0 or layer(self.names[parent]) != layer(name):
                total[0] += 1
            total[1] += self.ends[i] - self.starts[i]
            total[2] += selfs[i]
            total[3] += 1
        for column in (self.names, self.starts, self.ends, self.parents):
            column.clear()


def layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(starts: list[float], ends: list[float], parents: list[int]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    result = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        edge = start
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            lo, hi = max(starts[c], edge), min(ends[c], end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        result.append(end - start - covered)
    return result


def span_metrics(totals: dict[str, list], turns: int, factor: float) -> dict[str, float]:
    """Per-layer timings from folded span totals, scaled by the calibration
    ``factor``."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for name, (entered, _, self_time, _) in totals.items():
        calls[layer(name)] += entered
        self_s[layer(name)] += self_time * factor

    def per_call(lay: str) -> float:
        return 1e6 * self_s[lay] / calls[lay] if calls[lay] else 0.0

    def mean_us(name: str) -> float:
        n = totals[name][3] if name in totals else 0
        return 1e6 * factor * totals[name][1] / n if n else 0.0

    def named(name: str, column: int) -> float:
        return totals[name][column] * factor if name in totals else 0.0

    turn_self = named("engine.run_step", 2) + named("engine.run_shift", 2)
    return {
        "game.calls": calls["game"],
        "game.self_s": self_s["game"],
        "game.us_per_call": per_call("game"),
        "disruption.calls": calls["disruption"],
        "disruption.self_s": self_s["disruption"],
        "disruption.us_per_call": per_call("disruption"),
        "dynamics.calls": calls["dynamics"],
        "dynamics.self_s": self_s["dynamics"],
        "dynamics.us_per_call": per_call("dynamics"),
        "repair.calls": calls["repair"],
        "repair.self_s": self_s["repair"],
        "engine.self_s": self_s["engine"],
        "engine.us_per_turn": 1e6 * turn_self / turns if turns else 0.0,
        "engine.summary_s": named("engine.summarize_shift", 1),
        "engine.aggregate_s": named("engine.run_ensemble", 2),
        "reports.self_s": self_s["reports"],
        "reports.csv_us": mean_us("reports.emit_trajectory_csv"),
        "reports.json_us": mean_us("reports.emit_summary_json"),
        "charts.self_s": self_s["charts"],
        "charts.svg_us": mean_us("charts.emit_svg_chart"),
        "configio.calls": calls["configio"],
        "configio.self_s": self_s["configio"],
        "configio.us_per_call": per_call("configio"),
        "cli.self_s": self_s["cli"],
    }


class Counts:
    """Counts derived from returned records and summaries, never from
    wrappers, so that they repeat exactly."""

    def __init__(self) -> None:
        self.c = defaultdict(int)
        self.seen: set = set()
        self.solves = 0
        self.repeats = 0
        self.recoveries = 0
        self.censored = 0

    def add_shift(self, records, summary, cfg: dict) -> None:
        c = self.c
        variant = cfg["variant"]
        stochastic = variant in ref.STOCHASTIC
        apology = variant == "v1.3"
        game = ref.StageGame(cfg)
        params = tuple(cfg[k] for k in ref.GAME_KEYS)
        remaining = 0
        for r in records:
            c["engine.turns"] += 1
            event = r.disruption_event.value
            if stochastic:
                c["disruption.draws"] += 1 if event == "none" else 2
            c["disruption.cobot_failures"] += event == "cobot_failure"
            c["disruption.difficult_picks"] += event == "difficult_pick"
            outcome = r.outcome.value
            c["dynamics.successes"] += outcome == "success"
            c["dynamics.minor_failures"] += outcome == "minor_failure"
            c["dynamics.severe_failures"] += outcome == "severe_failure"
            override = apology and remaining > 0
            if override:
                c["repair.overrides"] += 1
                c["game.ties"] += game.follower("high", r.trust_pre)[1]
            else:
                key = (params, r.trust_pre, r.fatigue_pre)
                self.solves += 1
                if key in self.seen:
                    self.repeats += 1
                else:
                    self.seen.add(key)
                _, _, tie, penalty = game.solve(r.trust_pre, r.fatigue_pre)
                c["game.ties"] += tie
                c["game.penalties"] += penalty
            ticked = max(0, remaining - 1) if override else remaining
            if apology and r.apology_remaining_post > ticked:
                c["repair.arms"] += 1
            remaining = r.apology_remaining_post
        horizon = cfg["horizon"]
        for turn, steps in summary.recovery_times:
            c["engine.recovery_scan_steps"] += steps if steps is not None else horizon - turn
            self.recoveries += 1
            self.censored += steps is None

    def metrics(self) -> dict[str, float]:
        out = dict(self.c)
        out["game.repeat_share"] = self.repeats / self.solves if self.solves else 0.0
        out["engine.censored_share"] = (
            self.censored / self.recoveries if self.recoveries else 0.0
        )
        return out


def time_per_call(fn, inputs: list, min_seconds: float = 0.05) -> float:
    """Mean µs per ``fn(*args)`` over ``inputs``, repeated to ``min_seconds``."""
    clock = time.perf_counter
    calls = 0
    elapsed = 0.0
    while elapsed < min_seconds:
        start = clock()
        for args in inputs:
            fn(*args)
        elapsed += clock() - start
        calls += len(inputs)
    return 1e6 * elapsed / calls


def isolated_timings(cs, shifts: list[tuple], factor: float) -> tuple[dict, list[str]]:
    """µs per call of the stage-game, draw, update, summary and emit
    functions in isolation, over turn inputs recorded from the workload's
    shifts ``(records, summary, cfg, model_cfg)``. A function the package no
    longer offers reports 0 and is named in the returned list."""
    engine, game, disruption, dynamics = cs.engine, cs.game, cs.disruption, cs.dynamics
    reports, charts = cs.reports, cs.charts
    turns = [(r, m) for records, _, _, m in shifts for r in records][:20000]
    probes = {
        "game.iso_us": lambda: time_per_call(
            game.solve_stage_game,
            [(game.HumanState(fatigue=r.fatigue_pre, trust=r.trust_pre), m.game)
             for r, m in turns],
        ),
        "disruption.iso_us": lambda: time_per_call(
            disruption.sample_disruption,
            [(disruption.RandomStream(1), disruption.DisruptionParams())] * 20000,
        ),
        "dynamics.iso_turn_us": lambda: time_per_call(
            _update_turn,
            [(dynamics, game.ActionPair(r.cobot_action, r.human_action), r, m)
             for r, m in turns],
        ),
        "engine.summary_iso_us": lambda: time_per_call(
            engine.summarize_shift, [(records, m.horizon) for records, _, _, m in shifts]
        ),
        "reports.csv_iso_us": lambda: time_per_call(
            reports.emit_trajectory_csv, [(records,) for records, *_ in shifts[:200]]
        ),
        "reports.json_iso_us": lambda: time_per_call(
            reports.emit_summary_json, [(summary,) for _, summary, *_ in shifts[:200]]
        ),
        "charts.svg_iso_us": lambda: time_per_call(
            charts.emit_svg_chart, [(records,) for records, *_ in shifts[:200]]
        ),
    }
    out, missing = {}, []
    for name, probe in probes.items():
        try:
            out[name] = probe() * factor
        except (AttributeError, TypeError):
            out[name] = 0.0
            missing.append(name)
    return out, missing


def _update_turn(dynamics, pair, r, m) -> None:
    """The three dynamics calls of one turn."""
    severe = r.outcome is dynamics.InteractionOutcome.SEVERE_FAILURE
    dynamics.update_fatigue(r.fatigue_pre, pair, r.extra_fatigue, m.game)
    outcome = dynamics.classify_interaction(m.variant.trust_rule, pair, severe, m.game)
    dynamics.update_trust(r.trust_pre, outcome, m.trust)
