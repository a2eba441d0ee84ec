"""Random turn events and the deterministic generator that drives them.

The generator is splitmix64: a 64-bit counter advanced by a fixed odd
constant, with two xor-multiply finalization mixes per output. Unlike
language-default generators it is trivially portable, so a seed pins the
exact event schedule in any implementation and trajectory files can serve
as golden artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO64 = float(2**64)


class DisruptionEvent(str, Enum):
    NONE = "none"
    DIFFICULT_PICK = "difficult_pick"
    COBOT_FAILURE = "cobot_failure"


@dataclass
class DisruptionParams:
    """Per-turn event probability, its severe/minor split, and the extra
    fatigue charged by a difficult pick."""

    chance: float = 0.10
    severe_share: float = 0.5
    difficult_pick_fatigue: float = 5.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not 0.0 <= self.chance <= 1.0:
            raise ValueError(f"chance must lie in [0, 1] (got {self.chance})")
        if not 0.0 <= self.severe_share <= 1.0:
            raise ValueError(
                f"severe_share must lie in [0, 1] (got {self.severe_share})"
            )
        if not 0.0 <= self.difficult_pick_fatigue < math.inf:
            raise ValueError(
                f"difficult_pick_fatigue must be finite and >= 0 "
                f"(got {self.difficult_pick_fatigue})"
            )


class RandomStream:
    """splitmix64 stream; uniforms in [0, 1) are the 64-bit output / 2**64."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer (got {seed})")
        self.state = seed

    def next_uniform(self) -> float:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z ^= z >> 31
        return z / _TWO64


def sample_disruption(stream: RandomStream, dp: DisruptionParams) -> DisruptionEvent:
    """Draw this turn's event.

    One uniform decides occurrence; only when a disruption occurs does a
    second uniform pick its type. The draw count per branch (1 or 2) is part
    of the reproducibility contract: variants sharing a seed see identical
    event schedules because nothing else consumes the stream.
    """
    if stream.next_uniform() >= dp.chance:
        return DisruptionEvent.NONE
    if stream.next_uniform() < dp.severe_share:
        return DisruptionEvent.COBOT_FAILURE
    return DisruptionEvent.DIFFICULT_PICK


def schedule(seed: int, horizon: int, dp: DisruptionParams) -> list[tuple[int, bool]]:
    """The events ``sample_disruption`` draws for turns 1..horizon from
    ``RandomStream(seed)``, as ``(turn, is_cobot_failure)`` pairs in turn
    order; turns without an event are left out. The same draws, with the
    splitmix64 step inlined over local ints."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an unsigned 64-bit integer (got {seed})")
    chance, severe_share = dp.chance, dp.severe_share
    mask, gamma, mix1, mix2, two64 = _MASK64, _GAMMA, _MIX1, _MIX2, _TWO64
    state = seed
    events = []
    for turn in range(1, horizon + 1):
        state = (state + gamma) & mask
        z = ((state ^ (state >> 30)) * mix1) & mask
        z = ((z ^ (z >> 27)) * mix2) & mask
        if (z ^ (z >> 31)) / two64 < chance:
            state = (state + gamma) & mask
            z = ((state ^ (state >> 30)) * mix1) & mask
            z = ((z ^ (z >> 27)) * mix2) & mask
            events.append((turn, (z ^ (z >> 31)) / two64 < severe_share))
    return events
