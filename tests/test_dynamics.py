"""Classification rules and the trust/fatigue update equations."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cobotsim import (
    ActionPair,
    CollabLevel,
    EffortLevel,
    GameParams,
    InteractionOutcome,
    TrustParams,
    TrustRule,
    classify_interaction,
    update_trust,
)
from cobotsim.dynamics import STATE_DECIMALS
from stepwise_reference import update_fatigue

NORMAL, HIGH_E = EffortLevel.NORMAL, EffortLevel.HIGH
LOW_C, HIGH_C = CollabLevel.LOW, CollabLevel.HIGH
SUCCESS = InteractionOutcome.SUCCESS
MINOR = InteractionOutcome.MINOR_FAILURE
SEVERE = InteractionOutcome.SEVERE_FAILURE

ALL_PAIRS = [ActionPair(c, e) for c in CollabLevel for e in EffortLevel]


@pytest.fixture
def params():
    return GameParams()


@pytest.fixture
def tp():
    return TrustParams()


@pytest.mark.parametrize(
    "rule, pair, severe, expected",
    [
        (TrustRule.NAIVE, ActionPair(HIGH_C, NORMAL), False, MINOR),
        (TrustRule.REFINED, ActionPair(HIGH_C, NORMAL), False, SUCCESS),
        (TrustRule.REFINED, ActionPair(HIGH_C, HIGH_E), True, SEVERE),
        (TrustRule.NAIVE, ActionPair(LOW_C, NORMAL), False, MINOR),
        (TrustRule.NAIVE, ActionPair(HIGH_C, HIGH_E), False, SUCCESS),
        (TrustRule.REFINED, ActionPair(LOW_C, HIGH_E), False, MINOR),
        (TrustRule.REFINED, ActionPair(LOW_C, NORMAL), False, MINOR),
    ],
)
def test_classification_table(params, rule, pair, severe, expected):
    assert classify_interaction(rule, pair, severe, params) is expected


def test_naive_rule_has_exactly_one_success(params):
    outcomes = [
        classify_interaction(TrustRule.NAIVE, pair, False, params)
        for pair in ALL_PAIRS
    ]
    assert outcomes.count(SUCCESS) == 1


@pytest.mark.parametrize("rule", list(TrustRule))
@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_severe_event_overrides_everything(params, rule, pair):
    assert classify_interaction(rule, pair, True, params) is SEVERE


@given(
    low_normal=st.floats(min_value=0.5, max_value=10.0),
    low_high=st.floats(min_value=0.5, max_value=10.0),
    gap=st.floats(min_value=0.01, max_value=2.0),
)
def test_refined_rule_follows_column_dominance(low_normal, low_high, gap):
    # whenever the high-collaboration column strictly dominates, the refined
    # rule credits any high-collaboration turn and no low-collaboration turn
    params = GameParams(
        fatigue_normal_low=low_normal,
        fatigue_normal_high=low_normal - min(gap, low_normal / 2),
        fatigue_high_low=low_high,
        fatigue_high_high=low_high - min(gap, low_high / 2),
    )
    for effort in EffortLevel:
        assert (
            classify_interaction(TrustRule.REFINED, ActionPair(HIGH_C, effort), False, params)
            is SUCCESS
        )
        assert (
            classify_interaction(TrustRule.REFINED, ActionPair(LOW_C, effort), False, params)
            is MINOR
        )


@pytest.mark.parametrize(
    "trust, outcome, expected",
    [
        (0.5, SUCCESS, 0.55),
        (0.97, SUCCESS, 1.0),  # upper clamp
        (0.30, SEVERE, 0.0),  # lower clamp
        (0.5, MINOR, 0.4),
    ],
)
def test_update_trust_values(tp, trust, outcome, expected):
    assert update_trust(trust, outcome, tp) == expected


def test_update_trust_exact_zero_after_five_losses(tp):
    trust = 0.5
    for _ in range(5):
        trust = update_trust(trust, MINOR, tp)
    assert trust == 0.0


@given(
    trust=st.floats(min_value=0.0, max_value=1.0),
    outcome=st.sampled_from(list(InteractionOutcome)),
    gain=st.floats(min_value=0.001, max_value=1.0),
    loss=st.floats(min_value=0.001, max_value=1.0),
    severe_loss=st.floats(min_value=0.001, max_value=1.0),
)
def test_update_trust_stays_clamped(trust, outcome, gain, loss, severe_loss):
    tp = TrustParams(gain=gain, loss=loss, severe_loss=severe_loss)
    assert 0.0 <= update_trust(trust, outcome, tp) <= 1.0


_magnitude = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@given(trust=st.floats(), outcome=st.sampled_from(list(InteractionOutcome)),
       gain=_magnitude, loss=_magnitude, severe_loss=_magnitude)
@example(trust=0.97, outcome=SUCCESS, gain=0.05, loss=0.1, severe_loss=0.5)  # to 1
@example(trust=0.3, outcome=SEVERE, gain=0.05, loss=0.1, severe_loss=0.5)  # to 0
@example(trust=1.0, outcome=SUCCESS, gain=1.0, loss=1.0, severe_loss=1.0)
@example(trust=0.0, outcome=SEVERE, gain=1.0, loss=1.0, severe_loss=1.0)
@example(trust=0.1, outcome=MINOR, gain=0.05, loss=0.1, severe_loss=0.5)  # to +0.0
@example(trust=-0.0, outcome=SUCCESS, gain=0.05, loss=0.1, severe_loss=0.5)
@example(trust=-0.0, outcome=MINOR, gain=0.05, loss=0.1, severe_loss=0.5)
def test_update_trust_equals_the_builtin_clamp(trust, outcome, gain, loss, severe_loss):
    # The clamp is written without min() and max(); it must return what they
    # would, bit for bit, for any float trust, NaN and infinities too.
    tp = TrustParams(gain=gain, loss=loss, severe_loss=severe_loss)
    delta = {SUCCESS: gain, MINOR: -loss, SEVERE: -severe_loss}[outcome]
    expected = round(min(1.0, max(0.0, trust + delta)), STATE_DECIMALS)
    got = update_trust(trust, outcome, tp)
    assert (repr(got), type(got)) == (repr(expected), type(expected))


@pytest.mark.parametrize(
    "fatigue, pair, extra, expected",
    [
        (0.0, ActionPair(LOW_C, NORMAL), 0.0, 1.0),
        (49.0, ActionPair(HIGH_C, HIGH_E), 0.0, 50.0),
        (10.0, ActionPair(HIGH_C, NORMAL), 5.0, 15.5),
    ],
)
def test_update_fatigue_values(params, fatigue, pair, extra, expected):
    assert update_fatigue(fatigue, pair, extra, params) == expected


def test_update_fatigue_floors_at_zero():
    params = GameParams(fatigue_normal_high=-3.0)
    assert update_fatigue(1.0, ActionPair(HIGH_C, NORMAL), 0.0, params) == 0.0


@given(
    fatigue=st.floats(min_value=0.0, max_value=500.0),
    extra=st.floats(min_value=0.0, max_value=50.0),
    increment=st.floats(min_value=-10.0, max_value=10.0),
)
def test_update_fatigue_never_negative(fatigue, extra, increment):
    params = GameParams(fatigue_normal_low=increment)
    assert update_fatigue(fatigue, ActionPair(LOW_C, NORMAL), extra, params) >= 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gain": 0.0},
        {"loss": 1.5},
        {"severe_loss": -0.1},
        {"initial_trust": 1.5},
        {"initial_fatigue": -1.0},
        {"initial_fatigue": float("inf")},
    ],
)
def test_trust_params_validation(kwargs):
    with pytest.raises(ValueError):
        TrustParams(**kwargs)
