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


def emit_trajectory_csv(records: list[StepRecord]) -> str:
    """Serialize a shift trajectory, one row per turn, LF line endings."""
    if not records:
        raise ValueError("cannot emit a trajectory for zero records")
    text, real = _ENUM_TEXT, format_real
    lines = [CSV_HEADER]
    lines += [
        f"{r.step},{real(r.trust_pre)},{real(r.fatigue_pre)},{text[r.cobot_action]},"
        f"{text[r.human_action]},{text[r.disruption_event]},{text[r.outcome]},"
        f"{real(r.items_picked)},{real(r.trust_post)},{real(r.fatigue_post)},"
        f"{r.apology_remaining_post}"
        for r in records
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
