"""Interaction-outcome classification and the trust update rule.

The shift loop updates fatigue itself (see ``engine._simulate``): it adds
the turn's increment and any difficult-pick surcharge, floors the sum at
zero and rounds it to ``STATE_DECIMALS`` decimals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .game import (
    ACTION_PAIRS,
    ActionPair,
    CollabLevel,
    EffortLevel,
    GameParams,
    fatigue_increment,
)

# State variables are quantized after every update so that decimal-valued
# deltas (0.05, 0.10, ...) accumulate without binary-float dust; trajectories
# then hit clean values like 0.00 and 0.60 exactly and serialize identically
# on every platform. 12 decimals is far below any model-relevant scale.
STATE_DECIMALS = 12


class InteractionOutcome(str, Enum):
    SUCCESS = "success"
    MINOR_FAILURE = "minor_failure"
    SEVERE_FAILURE = "severe_failure"


class TrustRule(str, Enum):
    """How a turn is judged: by matched team-up, or by whether the cobot
    actually lowered the human's fatigue cost."""

    NAIVE = "naive"
    REFINED = "refined"


# Enum members bound once, as in engine: a read through the class is slow.
_SUCCESS, _MINOR, _SEVERE = (InteractionOutcome.SUCCESS, InteractionOutcome.MINOR_FAILURE,
                             InteractionOutcome.SEVERE_FAILURE)
_NAIVE, _HIGH_EFFORT, _LOW, _HIGH = (TrustRule.NAIVE, EffortLevel.HIGH, CollabLevel.LOW,
                                     CollabLevel.HIGH)


@dataclass
class TrustParams:
    """Trust-update magnitudes and the shift's starting state."""

    gain: float = 0.05
    loss: float = 0.10
    severe_loss: float = 0.50
    initial_trust: float = 0.5
    initial_fatigue: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in ("gain", "loss", "severe_loss"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1] (got {value})")
        if not 0.0 <= self.initial_trust <= 1.0:
            raise ValueError(
                f"initial_trust must lie in [0, 1] (got {self.initial_trust})"
            )
        if not 0.0 <= self.initial_fatigue < math.inf:
            raise ValueError(
                f"initial_fatigue must be finite and >= 0 (got {self.initial_fatigue})"
            )


def classify_interaction(
    rule: TrustRule, pair: ActionPair, severe_event: bool, params: GameParams
) -> InteractionOutcome:
    """Judge one turn.

    A severe event forces a severe failure regardless of the actions. The
    naive rule only credits the full team-up (high effort, high collaboration).
    The refined rule credits any turn where the cobot's action strictly lowered
    the fatigue increment relative to low collaboration at the same effort.
    """
    if severe_event:
        return _SEVERE
    if rule is _NAIVE:
        matched = pair.human is _HIGH_EFFORT and pair.cobot is _HIGH
        return _SUCCESS if matched else _MINOR
    baseline = fatigue_increment(ACTION_PAIRS[_LOW, pair.human], params)
    return _SUCCESS if fatigue_increment(pair, params) < baseline else _MINOR


def update_trust(trust: float, outcome: InteractionOutcome, tp: TrustParams) -> float:
    """Apply the outcome's trust delta and clamp to [0, 1].

    The clamp is ``min(1.0, max(0.0, trust + delta))`` written as
    conditional expressions, which give the same result for every input,
    -0.0, NaN and infinities too, without two builtin calls."""
    if outcome is _SUCCESS:
        delta = tp.gain
    elif outcome is _MINOR:
        delta = -tp.loss
    else:
        delta = -tp.severe_loss
    value = trust + delta
    return round((value if value < 1.0 else 1.0) if value > 0.0 else 0.0, STATE_DECIMALS)

