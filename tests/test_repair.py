"""The apology countdown: its re-arm rule, and that rule as ``run_step``
applies it."""

from dataclasses import replace

import pytest

from cobotsim import (
    CollabLevel,
    DisruptionParams,
    InteractionOutcome,
    ModelConfig,
    ModelVariant,
    run_shift,
)
from cobotsim.repair import apology_after
from stepwise_reference import HumanState, RandomStream, run_step

SUCCESS = InteractionOutcome.SUCCESS
MINOR = InteractionOutcome.MINOR_FAILURE
SEVERE = InteractionOutcome.SEVERE_FAILURE


def apology_turn(remaining, *, severe, duration=3, trust=0.9, fatigue=0.0):
    """One v1.3 ``run_step`` from ``remaining``: a cobot failure when
    ``severe``, otherwise a turn without disruption. Returns the record and
    the count after the turn, which the record must repeat."""
    cfg = ModelConfig(
        variant=ModelVariant.V1_3,
        apology_duration=duration,
        disruption=DisruptionParams(chance=1.0 if severe else 0.0, severe_share=1.0),
    )
    record, _, after = run_step(
        HumanState(fatigue, trust), remaining, RandomStream(0), cfg
    )
    assert record.apology_remaining_post == after
    return record, after


@pytest.mark.parametrize("remaining", [0, 1, 3])
def test_severe_failure_arms_full_window(remaining):
    assert apology_after(remaining, SEVERE, 3) == 3
    record, after = apology_turn(remaining, severe=True)
    assert record.outcome is SEVERE
    assert after == 3


@pytest.mark.parametrize("outcome", [SUCCESS, MINOR])
def test_non_severe_outcomes_leave_counter_alone(outcome):
    # Only the consumed forced turn comes off; the outcome adds nothing.
    for remaining in range(4):
        assert apology_after(remaining, outcome, 3) == max(0, remaining - 1)
    # A forced turn succeeds; at trust 0.45 the stage game disengages and
    # the refined rule calls that a minor failure.
    remaining, trust = (2, 0.9) if outcome is SUCCESS else (0, 0.45)
    record, after = apology_turn(remaining, severe=False, trust=trust, fatigue=10.0)
    assert record.outcome is outcome
    assert after == max(0, remaining - 1)


@pytest.mark.parametrize(
    "remaining, expected",
    [(3, CollabLevel.HIGH), (1, CollabLevel.HIGH), (0, None)],
)
def test_leader_override(remaining, expected):
    # At trust 0.45 the stage game alone disengages, so only the apology
    # makes the cobot collaborate.
    record, _ = apology_turn(remaining, severe=False, trust=0.45, fatigue=10.0)
    assert record.cobot_action is (expected or CollabLevel.LOW)


@pytest.mark.parametrize("remaining, expected", [(3, 2), (1, 0), (0, 0)])
def test_tick_saturates(remaining, expected):
    assert apology_after(remaining, SUCCESS, 3) == expected
    _, after = apology_turn(remaining, severe=False)
    assert after == expected


def test_custom_duration():
    assert apology_after(0, SEVERE, 5) == 5
    _, after = apology_turn(0, severe=True, duration=5)
    assert after == 5
    # A full window of 5 is a valid count under that duration.
    _, after = apology_turn(5, severe=False, duration=5)
    assert after == 4


def test_validation():
    with pytest.raises(ValueError):
        apology_turn(4, severe=False, duration=3)
    with pytest.raises(ValueError):
        apology_turn(-1, severe=False, duration=3)
    with pytest.raises(ValueError):
        ModelConfig(variant=ModelVariant.V1_3, apology_duration=0)


@pytest.mark.parametrize("duration", [1, 5])
def test_chained_run_step_matches_run_shift(duration):
    # run_step reads the window length from cfg alone, so a chain started
    # at 0 replays the shift loop whatever the configured duration.
    cfg = ModelConfig(variant=ModelVariant.V1_3, seed=42, apology_duration=duration)
    records, _ = run_shift(cfg)
    state = HumanState(cfg.trust.initial_fatigue, cfg.trust.initial_trust)
    remaining, stream = 0, RandomStream(cfg.seed)
    for got in records:
        expected, state, remaining = run_step(state, remaining, stream, cfg, step=got.step)
        assert got == expected, got.step
    assert max(r.apology_remaining_post for r in records) == duration
    assert records != run_shift(replace(cfg, apology_duration=3))[0]
