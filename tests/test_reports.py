"""CSV and JSON emission: exact rows, round-trips, and key order; the CSV and
SVG writers against the per-value reference writers."""

import json
import math
from dataclasses import replace
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobotsim import (
    DisruptionParams,
    GameParams,
    ModelConfig,
    ModelVariant,
    TrustParams,
    emit_summary_json,
    emit_svg_chart,
    emit_trajectory_csv,
    run_ensemble,
    run_shift,
)
from cobotsim.engine import ShiftSummary
from cobotsim.reports import CSV_HEADER, format_real
import stepwise_reference


def run(variant, **kwargs):
    return run_shift(ModelConfig(variant=ModelVariant(variant), **kwargs))


def test_header_exact():
    assert CSV_HEADER == (
        "step,trust_pre,fatigue_pre,cobot_action,human_action,"
        "disruption,outcome,items,trust_post,fatigue_post,apology_remaining"
    )


def test_refined_opening_row():
    records, _ = run("v1.1")
    lines = emit_trajectory_csv(records).split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "1,0.5,0,high,normal,none,success,1,0.55,0.5,0"


def test_naive_opening_row():
    records, _ = run("v1.0")
    row = emit_trajectory_csv(records).split("\n")[1]
    assert row == "1,0.5,0,high,normal,none,minor_failure,1,0.4,0.5,0"


def test_lf_line_endings_and_row_count():
    records, _ = run("v1.1")
    text = emit_trajectory_csv(records)
    assert "\r" not in text
    assert text.endswith("\n")
    assert len(text.rstrip("\n").split("\n")) == 51  # header + 50 rows


def test_emit_rejects_empty():
    with pytest.raises(ValueError):
        emit_trajectory_csv([])


@pytest.mark.parametrize(
    "value, expected",
    [(0.0, "0"), (1.0, "1"), (2.0, "2"), (0.5, "0.5"), (0.55, "0.55"), (49.5, "49.5"),
     (-0.0, "0"), (3, "3")],
)
def test_format_real(value, expected):
    assert format_real(value) == expected


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_real_round_trips(value):
    assert float(format_real(value)) == value


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_format_real_rejects_non_finite(value):
    with pytest.raises(ValueError):
        format_real(value)


def reference_csv(records):
    """The trajectory CSV field by field, as plainly as it can be written."""
    rows = [CSV_HEADER]
    for r in records:
        fields = (
            str(r.step),
            format_real(r.trust_pre),
            format_real(r.fatigue_pre),
            r.cobot_action.value,
            r.human_action.value,
            r.disruption_event.value,
            r.outcome.value,
            format_real(r.items_picked),
            format_real(r.trust_post),
            format_real(r.fatigue_post),
            str(r.apology_remaining_post),
        )
        rows.append(",".join(fields))
    return "\n".join(rows) + "\n"


# Non-dyadic values, signed zeros and magnitudes near 1e300; a 60-turn shift
# keeps sums of the latter finite.
_LARGE = st.floats(min_value=1e299, max_value=1e301)
_AMOUNTS = st.one_of(
    st.floats(min_value=0.0, max_value=10.0), st.sampled_from([0.0, -0.0, 0.1, 0.3]), _LARGE
)
_SHARES = st.floats(min_value=0.0, max_value=1.0)
_STEPS = st.floats(min_value=0.001, max_value=1.0)


@st.composite
def shift_configs(draw, max_horizon=60):
    reward_normal = draw(_AMOUNTS)
    reward_high = reward_normal * 2 + draw(st.floats(min_value=0.01, max_value=10.0))
    kappa_base = draw(st.floats(min_value=1.0, max_value=4.0))
    game = GameParams(
        reward_normal=reward_normal,
        reward_high=reward_high,
        fatigue_normal_low=draw(_AMOUNTS),
        fatigue_normal_high=draw(_AMOUNTS),
        fatigue_high_low=draw(_AMOUNTS),
        fatigue_high_high=draw(_AMOUNTS),
        cost_kappa_base=kappa_base,
        cost_kappa_trust_slope=draw(st.floats(min_value=0.0, max_value=kappa_base - 0.5)),
        fatigue_threshold=draw(st.one_of(st.floats(min_value=0.1, max_value=200.0), _LARGE)),
        penalty_weight=reward_high * 2 + draw(st.floats(min_value=0.01, max_value=200.0)),
        cobot_tiebreak_trust=draw(_SHARES),
    )
    trust = TrustParams(
        gain=draw(_STEPS),
        loss=draw(_STEPS),
        severe_loss=draw(_STEPS),
        initial_trust=draw(_SHARES),
        initial_fatigue=draw(_AMOUNTS),
    )
    disruption = DisruptionParams(
        chance=draw(st.floats(min_value=0.0, max_value=0.5)),
        severe_share=draw(_SHARES),
        difficult_pick_fatigue=draw(_AMOUNTS),
    )
    return ModelConfig(
        variant=draw(st.sampled_from(ModelVariant)),
        horizon=draw(st.integers(min_value=1, max_value=max_horizon)),
        seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        game=game,
        trust=trust,
        disruption=disruption,
        apology_duration=draw(st.integers(min_value=1, max_value=6)),
    )


@settings(max_examples=150, deadline=None)
@given(shift_configs())
def test_trajectory_csv_matches_field_by_field_reference(cfg):
    records, _ = run_shift(cfg)
    assert emit_trajectory_csv(records) == reference_csv(records)


# Parts of a shift in which a row's fatigue_pre need not be the previous
# row's fatigue_post, the steps need not be consecutive or rising, and
# which can be empty.
_PARTS = [slice(None), slice(None, None, 3), slice(5, None), slice(None, None, -1)]


@settings(max_examples=150, deadline=None)
@given(shift_configs(max_horizon=300), st.sampled_from(_PARTS))
def test_writers_match_the_per_value_reference_writers(cfg, part):
    records = run_shift(cfg)[0][part]
    for emit, reference in (
        (emit_trajectory_csv, stepwise_reference.emit_trajectory_csv),
        (emit_svg_chart, stepwise_reference.emit_svg_chart),
    ):
        try:
            expected = reference(records)
        except ValueError:
            with pytest.raises(ValueError):
                emit(records)
        else:
            assert emit(records) == expected


def test_trajectory_csv_formats_equal_keys_alike():
    # Trust and items are formatted once per distinct value, and equal values
    # such as 0.0 and -0.0, or 1 and 1.0, share one dict entry.
    records, _ = run("v1.3", seed=3)
    values = [0.0, -0.0, 1, 1.0, 0.1 + 0.2, 0.3, 1e300]
    records = [
        replace(r, trust_pre=values[i % 7], trust_post=values[-i % 7], items_picked=values[i % 3])
        for i, r in enumerate(records)
    ]
    assert emit_trajectory_csv(records) == reference_csv(records)


def test_shift_summary_json():
    _, summary = run("v1.1")
    payload = json.loads(emit_summary_json(summary))
    assert list(payload) == [
        "productivity",
        "final_fatigue",
        "final_trust",
        "peak_fatigue",
        "severe_failures",
        "recovery_times",
    ]
    assert payload["productivity"] == 98.0
    assert payload["final_trust"] == 1.0
    assert payload["severe_failures"] == []


def test_naive_summary_json_values():
    _, summary = run("v1.0")
    payload = json.loads(emit_summary_json(summary))
    assert payload["final_trust"] == 0.0
    assert payload["productivity"] == 50.0


def test_recovery_entries_flag_censoring():
    # find a stochastic run with at least one censored and one severe entry
    for seed in range(40):
        _, summary = run("v1.2", seed=seed)
        if summary.recovery_times:
            payload = json.loads(emit_summary_json(summary))
            for entry in payload["recovery_times"]:
                assert set(entry) == {"turn", "steps", "censored"}
                assert entry["censored"] == (entry["steps"] is None)
            return
    pytest.fail("no stochastic run with a severe failure found")


def test_ensemble_json_keys_and_singleton_equivalence():
    cfg = ModelConfig(variant=ModelVariant.V1_2)
    ens = run_ensemble(cfg, n_seeds=1, base_seed=42)
    payload = json.loads(emit_summary_json(ens))
    assert list(payload) == [
        "n_seeds",
        "means",
        "medians",
        "censoring_count",
        "runs_with_severe",
    ]
    _, single = run("v1.2", seed=42)
    assert payload["means"]["productivity"] == single.productivity
    assert payload["medians"]["final_fatigue"] == single.final_fatigue
    assert payload["n_seeds"] == 1


def reference_summary_json(summary):
    """The shift payload, built here and written by ``json.dumps``."""
    payload = {
        "productivity": summary.productivity,
        "final_fatigue": summary.final_fatigue,
        "final_trust": summary.final_trust,
        "peak_fatigue": summary.peak_fatigue,
        "severe_failures": [turn for turn, _ in summary.recovery_times],
        "recovery_times": [
            {"turn": turn, "steps": steps, "censored": steps is None}
            for turn, steps in summary.recovery_times
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


class _Level(IntEnum):
    ONE = 1


_JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e300]),
)
_JSON_INTS = st.one_of(
    st.integers(min_value=0, max_value=2000), st.integers(min_value=2**63, max_value=2**200),
    st.integers(max_value=-(2**63)),
)
_JSON_SCALARS = st.one_of(_JSON_FLOATS, _JSON_INTS, st.booleans(), st.none())
# Values of other types, which ``emit_summary_json`` hands to ``json.dumps``.
_FALLBACK_VALUES = st.sampled_from(["text", _Level.ONE, [1.0], [], 2.5j])
_SUMMARY_FIELDS = ["productivity", "final_fatigue", "final_trust", "peak_fatigue"]


@st.composite
def shift_summaries(draw):
    fields = {name: draw(_JSON_FLOATS) for name in _SUMMARY_FIELDS}
    recovery = draw(st.lists(
        st.tuples(_JSON_INTS, st.one_of(st.none(), _JSON_INTS)), max_size=4
    ))
    slots = len(_SUMMARY_FIELDS) + 2 * len(recovery)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        slot = draw(st.integers(min_value=0, max_value=slots - 1))
        value = draw(st.one_of(_JSON_SCALARS, _FALLBACK_VALUES))
        if slot < len(_SUMMARY_FIELDS):
            fields[_SUMMARY_FIELDS[slot]] = value
        else:
            entry, side = divmod(slot - len(_SUMMARY_FIELDS), 2)
            pair = list(recovery[entry])
            pair[side] = value
            recovery[entry] = tuple(pair)
    return ShiftSummary(**fields, recovery_times=recovery)


@settings(max_examples=500, deadline=None)
@given(shift_summaries())
def test_shift_summary_json_is_json_dumps(summary):
    try:
        expected = reference_summary_json(summary)
    except TypeError:  # a complex number, which json cannot write
        with pytest.raises(TypeError):
            emit_summary_json(summary)
    else:
        assert emit_summary_json(summary) == expected


@pytest.mark.parametrize(
    "cfg, recoveries",
    [(ModelConfig(), 0), (ModelConfig(variant=ModelVariant.V1_3, seed=3), 1)],
    ids=["defaults", "v1.3-seed-3"],
)
def test_shift_summary_json_does_not_call_json_dumps(monkeypatch, cfg, recoveries):
    _, summary = run_shift(cfg)
    assert len(summary.recovery_times) == recoveries
    expected = reference_summary_json(summary)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps was called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert emit_summary_json(summary) == expected
