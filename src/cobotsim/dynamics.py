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
        return InteractionOutcome.SEVERE_FAILURE
    if rule is TrustRule.NAIVE:
        matched = pair.human is EffortLevel.HIGH and pair.cobot is CollabLevel.HIGH
        return InteractionOutcome.SUCCESS if matched else InteractionOutcome.MINOR_FAILURE
    baseline = fatigue_increment(ACTION_PAIRS[CollabLevel.LOW, pair.human], params)
    if fatigue_increment(pair, params) < baseline:
        return InteractionOutcome.SUCCESS
    return InteractionOutcome.MINOR_FAILURE


def update_trust(trust: float, outcome: InteractionOutcome, tp: TrustParams) -> float:
    """Apply the outcome's trust delta and clamp to [0, 1].

    The clamp is ``min(1.0, max(0.0, trust + delta))`` written as
    conditional expressions, which give the same result for every input,
    -0.0, NaN and infinities too, without two builtin calls."""
    if outcome is InteractionOutcome.SUCCESS:
        delta = tp.gain
    elif outcome is InteractionOutcome.MINOR_FAILURE:
        delta = -tp.loss
    else:
        delta = -tp.severe_loss
    value = trust + delta
    return round((value if value < 1.0 else 1.0) if value > 0.0 else 0.0, STATE_DECIMALS)

