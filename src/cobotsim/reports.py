"""Plain-text run artifacts: trajectory CSV and summary JSON.

A shift's summary JSON is filled into a fixed template of its six keys, with
each value written as ``json`` writes it; any other summary, or one holding
a value of another type, goes through ``json.dumps`` (see
``emit_summary_json``). Both give the same text.
"""

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


# The text ``json`` writes for a value of exactly one of these types, by
# type. ``float.__repr__`` writes a non-finite float as ``nan``, ``inf`` or
# ``-inf``, which ``_JSON_NON_FINITE`` turns into ``json``'s words; no other
# text of these types can equal those three.
_JSON_TEXT = {
    float: float.__repr__,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_ENTRY = '{{\n      "turn": {},\n      "steps": {},\n      "censored": {}\n    }}'


def _json_text(value) -> str:
    """``value`` as ``json`` writes it; ``KeyError`` when its type is not
    exactly ``float``, ``int``, ``bool`` or ``NoneType``."""
    text = _JSON_TEXT[type(value)](value)
    return _JSON_NON_FINITE.get(text, text)


def _shift_summary_json(summary: ShiftSummary) -> str:
    """The shift payload of ``emit_summary_json`` as ``json.dumps(payload,
    indent=2)`` writes it, filled into its fixed layout; ``KeyError`` when
    a value has a type that ``_json_text`` does not write."""
    turns = []
    entries = []
    for turn, steps in summary.recovery_times:
        turns.append(turn := _json_text(turn))
        entries.append(_JSON_ENTRY.format(
            turn, _json_text(steps), "true" if steps is None else "false"
        ))
    severe = "[\n    " + ",\n    ".join(turns) + "\n  ]" if turns else "[]"
    times = "[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]"
    return (
        f'{{\n  "productivity": {_json_text(summary.productivity)},'
        f'\n  "final_fatigue": {_json_text(summary.final_fatigue)},'
        f'\n  "final_trust": {_json_text(summary.final_trust)},'
        f'\n  "peak_fatigue": {_json_text(summary.peak_fatigue)},'
        f'\n  "severe_failures": {severe},\n  "recovery_times": {times}\n}}\n'
    )


def emit_summary_json(summary: ShiftSummary | EnsembleSummary) -> str:
    """Serialize shift or ensemble KPIs with a stable key order, as
    ``json.dumps(payload, indent=2)`` plus a final line break.

    A ``ShiftSummary`` whose ``recovery_times`` is a list, and whose values
    are all of exactly type ``float``, ``int``, ``bool`` or ``NoneType``, is
    written by ``_shift_summary_json`` without the ``json`` module: CPython
    encodes with ``indent`` only in pure Python, a generator per container.
    Anything else, an ``EnsembleSummary`` included, builds the payload and
    calls ``json.dumps``, so the text is that of ``json.dumps`` either way.
    """
    if type(summary) is ShiftSummary and type(summary.recovery_times) is list:
        try:
            return _shift_summary_json(summary)
        except KeyError:
            pass
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
