"""Plain-text run artifacts: trajectory CSV and summary JSON."""

from __future__ import annotations

import json
import math

from .disruption import DisruptionEvent
from .dynamics import InteractionOutcome
from .engine import EnsembleSummary, ShiftSummary, StepRecord
from .game import CollabLevel, EffortLevel

CSV_HEADER = (
    "step,trust_pre,fatigue_pre,cobot_action,human_action,"
    "disruption,outcome,items,trust_post,fatigue_post,apology_remaining"
)


# ``Enum.value`` is a descriptor call; the CSV reads four per row.
_ENUM_TEXT = {
    member: member.value
    for enum in (CollabLevel, EffortLevel, DisruptionEvent, InteractionOutcome)
    for member in enum
}


def format_real(value: float) -> str:
    """Shortest decimal that parses back to the same float; integral values
    drop the trailing '.0'. Infinities and NaN raise ``ValueError``."""
    try:
        integral = value.is_integer()
    except AttributeError:  # an int, which has no is_integer() before 3.12
        return str(int(value))
    if integral:
        return str(int(value))
    if not math.isfinite(value):
        raise ValueError(f"cannot format a non-finite value ({value})")
    return repr(value)


class FormattedValues(dict):
    """``table[value]`` is ``format(value)``, computed on the first lookup of
    each distinct value. For series that repeat few values, such as trust."""

    def __init__(self, format) -> None:
        self.format = format

    def __missing__(self, value):
        text = self[value] = self.format(value)
        return text


def emit_trajectory_csv(records: list[StepRecord]) -> str:
    """Serialize a shift trajectory, one row per turn, LF line endings.

    Each value is formatted once where it can be: a shift starts each turn
    from the last one's fatigue, so a row's ``fatigue_pre`` reuses the
    previous row's ``fatigue_post`` text when the two values are equal, and
    trust and items, which take a few values per shift, are formatted once
    per distinct value. Fatigue takes a new value nearly every turn, where
    such a table would only add a miss per row.
    """
    if not records:
        raise ValueError("cannot emit a trajectory for zero records")
    text, real, repeated = _ENUM_TEXT, format_real, FormattedValues(format_real)
    posts = [r.fatigue_post for r in records]
    post_texts = list(map(real, posts))
    pre_texts = [real(records[0].fatigue_pre)]
    pre_texts += [
        post if r.fatigue_pre == value else real(r.fatigue_pre)
        for r, value, post in zip(records[1:], posts, post_texts)
    ]
    lines = [CSV_HEADER]
    lines += [
        f"{r.step},{repeated[r.trust_pre]},{pre},{text[r.cobot_action]},"
        f"{text[r.human_action]},{text[r.disruption_event]},{text[r.outcome]},"
        f"{repeated[r.items_picked]},{repeated[r.trust_post]},{post},"
        f"{r.apology_remaining_post}"
        for r, pre, post in zip(records, pre_texts, post_texts)
    ]
    return "\n".join(lines) + "\n"


def _recovery_entry(turn: int, steps: int | None) -> dict:
    return {"turn": turn, "steps": steps, "censored": steps is None}


def emit_summary_json(summary: ShiftSummary | EnsembleSummary) -> str:
    """Serialize shift or ensemble KPIs with a stable key order."""
    if isinstance(summary, EnsembleSummary):
        median_recovery = summary.median_first_recovery
        if median_recovery is not None and math.isinf(median_recovery):
            median_recovery = None  # censored median; see censoring_count
        payload = {
            "n_seeds": summary.n_seeds,
            "means": {
                "productivity": summary.mean_productivity,
                "final_fatigue": summary.mean_final_fatigue,
                "final_trust": summary.mean_final_trust,
            },
            "medians": {
                "productivity": summary.median_productivity,
                "final_fatigue": summary.median_final_fatigue,
                "final_trust": summary.median_final_trust,
                "first_recovery": median_recovery,
            },
            "censoring_count": summary.censored_count,
            "runs_with_severe": summary.runs_with_severe,
        }
    else:
        payload = {
            "productivity": summary.productivity,
            "final_fatigue": summary.final_fatigue,
            "final_trust": summary.final_trust,
            "peak_fatigue": summary.peak_fatigue,
            "severe_failures": summary.severe_failure_turns,
            "recovery_times": [
                _recovery_entry(turn, steps) for turn, steps in summary.recovery_times
            ],
        }
    return json.dumps(payload, indent=2) + "\n"
