"""Independent reference evaluator for checking the program's outputs.

Written from the model rules in PAPER.md and the turn order documented at
the top of ``cobotsim/engine.py``; it imports nothing from ``cobotsim``, so a
defect in the package cannot hide by being shared with its checker. Configs
are flat dicts keyed like the package's ``key = value`` config files.

The arithmetic repeats the package's expression order on purpose: the
trajectory files are compared byte for byte, and tie-breaks at ``TIE_EPS``
and the 12-decimal state rounding depend on the exact float operations.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import xml.etree.ElementTree as ET

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
TWO64 = float(2**64)
TIE_EPS = 1e-9
STATE_DECIMALS = 12
STOCHASTIC = ("v1.2", "v1.3")
VARIANTS = ("v1.0", "v1.1", "v1.2", "v1.3")

DEFAULTS = {
    "variant": "v1.1",
    "horizon": 50,
    "seed": 0,
    "apology.duration": 3,
    "game.reward_normal": 1.0,
    "game.reward_high": 2.0,
    "game.cost_kappa_base": 2.6,
    "game.cost_kappa_trust_slope": 1.0,
    "game.fatigue_threshold": 80.0,
    "game.penalty_weight": 100.0,
    "game.cobot_tiebreak_trust": 0.5,
    "game.fatigue_normal_low": 1.0,
    "game.fatigue_normal_high": 0.5,
    "game.fatigue_high_low": 2.5,
    "game.fatigue_high_high": 1.0,
    "trust.gain": 0.05,
    "trust.loss": 0.10,
    "trust.severe_loss": 0.50,
    "trust.initial": 0.5,
    "fatigue.initial": 0.0,
    "disruption.chance": 0.10,
    "disruption.severe_share": 0.5,
    "disruption.difficult_pick_fatigue": 5.0,
}

GAME_KEYS = tuple(k for k in DEFAULTS if k.startswith("game."))

CSV_HEADER = (
    "step,trust_pre,fatigue_pre,cobot_action,human_action,"
    "disruption,outcome,items,trust_post,fatigue_post,apology_remaining"
)


def resolve(overrides: dict) -> dict:
    """Defaults with ``overrides`` applied."""
    cfg = dict(DEFAULTS)
    cfg.update(overrides)
    return cfg


class StageGame:
    """Leader/follower equilibrium of one turn, from one config's game keys."""

    def __init__(self, cfg: dict) -> None:
        self.rewards = {"normal": cfg["game.reward_normal"], "high": cfg["game.reward_high"]}
        self.table = {
            ("normal", "low"): cfg["game.fatigue_normal_low"],
            ("normal", "high"): cfg["game.fatigue_normal_high"],
            ("high", "low"): cfg["game.fatigue_high_low"],
            ("high", "high"): cfg["game.fatigue_high_high"],
        }
        self.kappa_base = cfg["game.cost_kappa_base"]
        self.kappa_slope = cfg["game.cost_kappa_trust_slope"]
        self.threshold = cfg["game.fatigue_threshold"]
        self.penalty = cfg["game.penalty_weight"]
        self.tiebreak = cfg["game.cobot_tiebreak_trust"]

    def follower(self, collab: str, trust: float) -> tuple[str, bool]:
        """Best effort against ``collab`` and whether a tie decided it."""
        mult = self.kappa_base - self.kappa_slope * trust
        u_normal = self.rewards["normal"] - self.table[("normal", collab)] * mult
        u_high = self.rewards["high"] - self.table[("high", collab)] * mult
        if abs(u_high - u_normal) <= TIE_EPS:
            return ("high" if collab == "high" else "normal"), True
        return ("high" if u_high > u_normal else "normal"), False

    def leader_value(self, collab: str, effort: str, fatigue: float) -> tuple[float, bool]:
        """Leader payoff of a joint action and whether the penalty applied."""
        value = self.rewards[effort]
        if fatigue + self.table[(effort, collab)] > self.threshold:
            return value - self.penalty, True
        return value, False

    def solve(self, trust: float, fatigue: float) -> tuple[str, str, bool, bool]:
        """(collab, effort, tie-break used, penalty applied in either branch)."""
        e_low, tie_low = self.follower("low", trust)
        e_high, tie_high = self.follower("high", trust)
        v_low, pen_low = self.leader_value("low", e_low, fatigue)
        v_high, pen_high = self.leader_value("high", e_high, fatigue)
        penalty = pen_low or pen_high
        if abs(v_high - v_low) <= TIE_EPS:
            if trust >= self.tiebreak:
                return "high", e_high, True, penalty
            return "low", e_low, True, penalty
        if v_high > v_low:
            return "high", e_high, tie_low or tie_high, penalty
        return "low", e_low, tie_low or tie_high, penalty


def uniforms(seed: int):
    """splitmix64 uniforms in [0, 1)."""
    state = seed
    while True:
        state = (state + GAMMA) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        z ^= z >> 31
        yield z / TWO64


def simulate(cfg: dict) -> list[tuple]:
    """One shift as rows in trajectory-CSV column order."""
    variant = cfg["variant"]
    game = StageGame(cfg)
    table = game.table
    stochastic = variant in STOCHASTIC
    apology = variant == "v1.3"
    naive = variant == "v1.0"
    draws = uniforms(cfg["seed"]) if stochastic else None
    chance = cfg["disruption.chance"]
    severe_share = cfg["disruption.severe_share"]
    pick_fatigue = cfg["disruption.difficult_pick_fatigue"]
    deltas = {
        "success": cfg["trust.gain"],
        "minor_failure": -cfg["trust.loss"],
        "severe_failure": -cfg["trust.severe_loss"],
    }
    duration = cfg["apology.duration"]
    trust, fatigue, remaining = cfg["trust.initial"], cfg["fatigue.initial"], 0
    rows = []
    for step in range(1, cfg["horizon"] + 1):
        override = apology and remaining > 0
        if override:
            collab = "high"
            effort = game.follower("high", trust)[0]
        else:
            collab, effort = game.solve(trust, fatigue)[:2]
        event = "none"
        if stochastic and next(draws) < chance:
            event = "cobot_failure" if next(draws) < severe_share else "difficult_pick"
        severe = event == "cobot_failure"
        extra = pick_fatigue if event == "difficult_pick" else 0.0
        charged = "low" if severe else collab
        fatigue_post = round(
            max(0.0, fatigue + table[(effort, charged)] + extra), STATE_DECIMALS
        )
        if severe:
            outcome = "severe_failure"
        elif naive:
            outcome = "success" if effort == "high" and collab == "high" else "minor_failure"
        elif table[(effort, collab)] < table[(effort, "low")]:
            outcome = "success"
        else:
            outcome = "minor_failure"
        trust_post = round(min(1.0, max(0.0, trust + deltas[outcome])), STATE_DECIMALS)
        if apology:
            if override:
                remaining = max(0, remaining - 1)
            if severe:
                remaining = duration
        rows.append((
            step, trust, fatigue, collab, effort, event, outcome,
            game.rewards[effort], trust_post, fatigue_post, remaining,
        ))
        trust, fatigue = trust_post, fatigue_post
    return rows


def summarize(rows: list[tuple], horizon: int) -> dict:
    """Shift KPIs keyed as in the package's summary JSON."""
    severe = [r[0] for r in rows if r[6] == "severe_failure"]
    recoveries = []
    for turn in severe:
        target = rows[turn - 1][1]
        steps = None
        for k in range(1, min(horizon, len(rows)) - turn + 1):
            if rows[turn + k - 1][8] >= target:
                steps = k
                break
        recoveries.append({"turn": turn, "steps": steps, "censored": steps is None})
    return {
        "productivity": sum(r[7] for r in rows),
        "final_fatigue": rows[-1][9],
        "final_trust": rows[-1][8],
        "peak_fatigue": max(r[9] for r in rows),
        "severe_failures": severe,
        "recovery_times": recoveries,
    }


def format_real(value: float) -> str:
    """Integral values without '.0', others as the shortest round-trip repr."""
    return str(int(value)) if value == int(value) else repr(value)


def trajectory_csv(rows: list[tuple]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join((
            str(r[0]), format_real(r[1]), format_real(r[2]), r[3], r[4], r[5], r[6],
            format_real(r[7]), format_real(r[8]), format_real(r[9]), str(r[10]),
        )))
    return "\n".join(lines) + "\n"


def record_row(record) -> tuple:
    """A package ``StepRecord`` as a reference row (enums by value)."""
    return (
        record.step, record.trust_pre, record.fatigue_pre, record.cobot_action.value,
        record.human_action.value, record.disruption_event.value, record.outcome.value,
        record.items_picked, record.trust_post, record.fatigue_post,
        record.apology_remaining_post,
    )


def check_records(records, summary, cfg: dict) -> str | None:
    """Compare a ``run_shift`` result with the reference; None when it matches,
    else a one-line description of the first mismatch."""
    rows = simulate(cfg)
    if len(records) != len(rows):
        return f"{len(records)} records, expected {len(rows)}"
    for record, row in zip(records, rows):
        got = record_row(record)
        if got != row:
            return f"step {row[0]}: got {got}, expected {row}"
    expected = summarize(rows, cfg["horizon"])
    got = {
        "productivity": summary.productivity,
        "final_fatigue": summary.final_fatigue,
        "final_trust": summary.final_trust,
        "peak_fatigue": summary.peak_fatigue,
        "severe_failures": list(summary.severe_failure_turns),
        "recovery_times": [
            {"turn": t, "steps": k, "censored": k is None} for t, k in summary.recovery_times
        ],
    }
    for key, value in expected.items():
        if got[key] != value:
            return f"summary {key}: got {got[key]!r}, expected {value!r}"
    return None


def check_summary_json(text: str, expected: dict) -> str | None:
    """Every key the reference knows must be present and equal; extra keys
    are allowed."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return f"summary JSON does not parse: {exc}"
    for key, value in expected.items():
        if key not in payload:
            return f"summary JSON lacks '{key}'"
        if payload[key] != value:
            return f"summary JSON {key}: got {payload[key]!r}, expected {value!r}"
    return None


def check_svg(text: str, rows: list[tuple]) -> str | None:
    """The chart parses as SVG and marks every severe failure."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    if not root.tag.endswith("svg"):
        return f"SVG root is <{root.tag}>"
    markers = sum(1 for e in root.iter() if e.get("class") == "severe-marker")
    severe = sum(1 for r in rows if r[6] == "severe_failure")
    if markers != severe:
        return f"SVG marks {markers} severe failures, expected {severe}"
    return None


def _first_recovery_cell(summary: dict) -> str:
    if not summary["recovery_times"]:
        return "no severe failure"
    first = summary["recovery_times"][0]
    steps = "censored" if first["steps"] is None else first["steps"]
    return f"t={first['turn']} k={steps}"


def comparison_numbers(n_seeds: int, base_seed: int) -> dict:
    """Everything ``compare`` reports for a paired v1.2/v1.3 block of seeds."""
    cells = {}
    per_variant = {}
    for variant in STOCHASTIC:
        summaries = []
        for i in range(n_seeds):
            seed = (base_seed + i) & MASK64
            cfg = resolve({"variant": variant, "seed": seed})
            summaries.append(summarize(simulate(cfg), cfg["horizon"]))
        first = [s["recovery_times"][0]["steps"] for s in summaries if s["recovery_times"]]
        per_variant[variant] = {
            "severe": len(first),
            "censored": sum(1 for k in first if k is None),
            "median": statistics.median(50.0 if k is None else k for k in first)
            if first else None,
            "trust": statistics.fmean(s["final_trust"] for s in summaries),
            "fatigue": statistics.fmean(s["final_fatigue"] for s in summaries),
        }
        for i, s in enumerate(summaries):
            cells.setdefault(base_seed + i, []).append(_first_recovery_cell(s))
    m12, m13 = per_variant["v1.2"]["median"], per_variant["v1.3"]["median"]
    ratio = m13 / m12 if m12 else float("nan")
    return {"cells": cells, "variants": per_variant, "ratio": ratio}


_CELL = r"(t=\d+ k=(?:\d+|censored)|no severe failure)"
_ROW = re.compile(rf"^\s*(\d+) \| {_CELL}\s*\| {_CELL}\s*$")
_PAIR_LINES = {
    "severe": re.compile(r"runs with a severe failure: v1\.2 (\S+), v1\.3 (\S+)$"),
    "censored": re.compile(r"censored recoveries:\s+v1\.2 (\S+), v1\.3 (\S+)$"),
    "median": re.compile(r"median first recovery \(censored as 50\): v1\.2 (\S+), v1\.3 (\S+)$"),
    "trust": re.compile(r"mean final trust:\s+v1\.2 (\S+), v1\.3 (\S+)$"),
    "fatigue": re.compile(r"mean final fatigue:\s+v1\.2 (\S+), v1\.3 (\S+)$"),
}
_RATIO = re.compile(r"reduction ratio v1\.3/v1\.2: (\S+)$")
_FORMATS = {"trust": "{:.3f}", "fatigue": "{:.2f}"}


def check_comparison(text: str, n_seeds: int, base_seed: int) -> str | None:
    """Check every per-seed row and aggregate line of a ``compare`` report.
    Lines the checker does not know are ignored."""
    expected = comparison_numbers(n_seeds, base_seed)
    rows = {}
    found = {}
    for line in text.splitlines():
        m = _ROW.match(line)
        if m:
            rows[int(m.group(1))] = [m.group(2), m.group(3)]
            continue
        for key, pattern in _PAIR_LINES.items():
            m = pattern.search(line)
            if m:
                found[key] = (m.group(1), m.group(2))
        m = _RATIO.search(line)
        if m:
            found["ratio"] = m.group(1)
    if rows != expected["cells"]:
        missing = sorted(set(expected["cells"]) ^ set(rows))[:3]
        wrong = [s for s in expected["cells"] if rows.get(s) != expected["cells"][s]][:3]
        return f"per-seed rows differ (seeds {missing or wrong})"
    for key in _PAIR_LINES:
        if key not in found:
            return f"comparison lacks the '{key}' line"
        for variant, got in zip(STOCHASTIC, found[key]):
            want = expected["variants"][variant][key]
            if key in _FORMATS:
                ok = got == _FORMATS[key].format(want)
            elif want is None:
                ok = got == "n/a"
            else:
                ok = _number(got) == want
            if not ok:
                return f"comparison {key} {variant}: got {got}, expected {want}"
    want_ratio = "{:.3f}".format(expected["ratio"])
    if found.get("ratio") != want_ratio:
        return f"comparison ratio: got {found.get('ratio')}, expected {want_ratio}"
    return None


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan
