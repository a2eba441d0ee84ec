"""Stage game between a collaborative robot (leader) and a human picker (follower).

Each turn the cobot commits to a collaboration level first; the human then
chooses an effort level knowing that commitment. Both action sets are binary,
so the equilibrium of the stage is found by direct enumeration: compute the
follower's best response to each leader action, then let the leader pick the
collaboration level whose anticipated outcome it prefers.

The two utilities of a joint action, at the observed trust and fatigue:

- human: ``human_reward(effort)`` minus the perceived cost,
  ``fatigue_increment(pair)`` times the cost multiplier
  ``cost_kappa_base - cost_kappa_trust_slope * trust``;
- cobot: the human's reward, less ``penalty_weight`` when the
  disruption-free next fatigue, ``fatigue + fatigue_increment(pair)``,
  exceeds ``fatigue_threshold``. The leader sees only the observed state
  and the joint action, never the turn's random event.

Utilities within ``TIE_EPS`` of each other tie. A follower tie goes to high
effort under high collaboration and to normal effort under low (reciprocate,
else conserve energy); a leader tie goes to high collaboration iff trust has
reached ``cobot_tiebreak_trust``.

``StageGame`` is the one solver: it reads a parameter set's constants once
and holds both tie rules, and the shift loop keeps one per parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

# Utility differences within this tolerance count as exact ties, so the trust
# level where high and normal effort break even resolves through the explicit
# tie-break rules instead of accumulated binary-float dust.
TIE_EPS = 1e-9


class EffortLevel(str, Enum):
    """Human effort: standard pace, or an accelerated pace that tires faster."""

    NORMAL = "normal"
    HIGH = "high"


class CollabLevel(str, Enum):
    """Cobot assistance: baseline following, or active help such as carrying."""

    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True, slots=True)
class ActionPair:
    """One turn's joint choice."""

    cobot: CollabLevel
    human: EffortLevel


# Enum members bound once, as in engine: a read through the class is slow.
_HIGH_EFFORT, _HIGH = EffortLevel.HIGH, CollabLevel.HIGH

# The four joint actions, built once: ``ACTION_PAIRS[cobot, human]``.
ACTION_PAIRS = {
    (cobot, human): ActionPair(cobot, human)
    for cobot in CollabLevel
    for human in EffortLevel
}


@dataclass
class GameParams:
    """Stage-game constants.

    ``fatigue_<effort>_<collab>`` is the fatigue increment of one turn at
    that (effort, collaboration) pair: ``fatigue_normal_low``,
    ``fatigue_normal_high``, ``fatigue_high_low`` and ``fatigue_high_high``.
    High effort costs more than normal, and low collaboration adds walking
    on top of either effort. The perceived-cost multiplier shrinks linearly
    with trust, so a trusted cobot makes the same physical work feel
    cheaper. The leader is fined ``penalty_weight`` whenever its anticipated
    next fatigue level would exceed ``fatigue_threshold``.
    """

    reward_normal: float = 1.0
    reward_high: float = 2.0
    cost_kappa_base: float = 2.6
    cost_kappa_trust_slope: float = 1.0
    fatigue_threshold: float = 80.0
    penalty_weight: float = 100.0
    cobot_tiebreak_trust: float = 0.5
    fatigue_normal_low: float = 1.0
    fatigue_normal_high: float = 0.5
    fatigue_high_low: float = 2.5
    fatigue_high_high: float = 1.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in _SCALAR_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        # A turn's reward is the items it picks.
        if not self.reward_normal >= 0.0:
            raise ValueError(f"reward_normal must be >= 0 (got {self.reward_normal})")
        if not self.reward_high > self.reward_normal:
            raise ValueError(
                f"reward_high must exceed reward_normal "
                f"(got {self.reward_high} <= {self.reward_normal})"
            )
        if not self.fatigue_threshold > 0.0:
            raise ValueError(
                f"fatigue_threshold must be positive (got {self.fatigue_threshold})"
            )
        if not self.penalty_weight > self.reward_high:
            raise ValueError(
                f"penalty_weight must exceed reward_high "
                f"(got {self.penalty_weight} <= {self.reward_high})"
            )
        # kappa is linear in trust, so its range on [0, 1] is set by the endpoints.
        kappas = self.cost_multiplier(0.0), self.cost_multiplier(1.0)
        if min(kappas) <= 0.0:
            raise ValueError(
                "cost multiplier cost_kappa_base - cost_kappa_trust_slope * trust "
                "must stay positive for trust in [0, 1]"
            )
        # reward_high plus the largest increment times the largest multiplier
        # bounds every human utility's magnitude, so no follower comparison
        # meets inf - inf.
        largest = max(abs(self.fatigue_normal_low), abs(self.fatigue_normal_high),
                      abs(self.fatigue_high_low), abs(self.fatigue_high_high))
        if not math.isfinite(self.reward_high + largest * max(kappas)):
            raise ValueError(
                "utility bound reward_high + max(|fatigue_normal_low|, "
                "|fatigue_normal_high|, |fatigue_high_low|, |fatigue_high_high|) * "
                "(cost_kappa_base - cost_kappa_trust_slope * trust) must stay finite "
                "for trust in [0, 1]"
            )

    def cost_multiplier(self, trust: float) -> float:
        return self.cost_kappa_base - self.cost_kappa_trust_slope * trust


# Fixed once: ``dataclasses.fields`` rebuilds its tuple on every call.
_SCALAR_FIELDS = tuple(f.name for f in fields(GameParams))
# (effort, collaboration) -> the GameParams field holding its fatigue increment.
_FATIGUE_FIELDS = {
    (effort, collab): f"fatigue_{effort.value}_{collab.value}"
    for effort in EffortLevel
    for collab in CollabLevel
}


def human_reward(effort: EffortLevel, params: GameParams) -> float:
    """Items picked in one turn at the given effort."""
    return params.reward_high if effort is _HIGH_EFFORT else params.reward_normal


def fatigue_increment(pair: ActionPair, params: GameParams) -> float:
    """Fatigue added by one turn of the given joint action."""
    return getattr(params, _FATIGUE_FIELDS[pair.human, pair.cobot])


class StageGame:
    """The stage game of one parameter set, its constants read once.

    ``best_response`` compares the human utilities of the two efforts under
    one collaboration level, and ``solve`` the cobot utilities of the two
    levels' best responses, each under the module's tie rules. Trust and
    fatigue are not validated here: the shift loop passes only trusts in
    [0, 1] and fatigues >= 0, which ``TrustParams`` and the update rules
    keep.
    """

    __slots__ = ("low", "high", "base", "slope", "threshold", "penalty", "tiebreak")

    def __init__(self, params: GameParams) -> None:
        # (pair, reward, increment) per joint action, in ACTION_PAIRS order.
        low_normal, low_high, high_normal, high_high = (
            (pair, human_reward(pair.human, params), fatigue_increment(pair, params))
            for pair in ACTION_PAIRS.values()
        )
        # Per collaboration level: normal effort, high effort, and the effort
        # a follower tie goes to. Ties reciprocate high collaboration with
        # high effort and otherwise conserve energy.
        self.low = (low_normal, low_high, low_normal)
        self.high = (high_normal, high_high, high_high)
        self.base, self.slope = params.cost_kappa_base, params.cost_kappa_trust_slope
        self.threshold, self.penalty = params.fatigue_threshold, params.penalty_weight
        self.tiebreak = params.cobot_tiebreak_trust

    def _follow(self, options: tuple, kappa: float) -> tuple[ActionPair, float, float]:
        """The follower's ``(pair, reward, increment)`` among one level's
        ``options``: the higher utility, reward minus increment times the
        cost multiplier ``kappa``, or the tie's choice within ``TIE_EPS``."""
        normal, high, tie = options
        u_normal = normal[1] - normal[2] * kappa
        u_high = high[1] - high[2] * kappa
        if abs(u_high - u_normal) <= TIE_EPS:
            return tie
        return high if u_high > u_normal else normal

    def best_response(self, collab: CollabLevel, trust: float) -> ActionPair:
        """The follower's pair given the leader's ``collab``."""
        options = self.high if collab is _HIGH else self.low
        return self._follow(options, self.base - self.slope * trust)[0]

    def solve(self, trust: float, fatigue: float) -> ActionPair:
        """The equilibrium pair at (trust, fatigue): the leader's payoff is
        the follower's reward, less the penalty when fatigue plus the pair's
        increment passes the threshold; an indifferent leader collaborates
        iff trust has reached the tie-break level."""
        kappa = self.base - self.slope * trust
        pair_low, u_low, inc_low = self._follow(self.low, kappa)
        pair_high, u_high, inc_high = self._follow(self.high, kappa)
        if fatigue + inc_low > self.threshold:
            u_low -= self.penalty
        if fatigue + inc_high > self.threshold:
            u_high -= self.penalty
        if abs(u_high - u_low) <= TIE_EPS:
            return pair_high if trust >= self.tiebreak else pair_low
        return pair_high if u_high > u_low else pair_low
