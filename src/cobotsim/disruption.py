"""Random turn events and the deterministic generator that drives them.

The generator is splitmix64. A seed is the 64-bit state; the n-th draw
(n = 1, 2, ...) advances it to ``z = (seed + n * _GAMMA) mod 2**64``, then
mixes it as ``z = (z ^ (z >> 30)) * _MIX1``, ``z = (z ^ (z >> 27)) * _MIX2``
(each mod 2**64) and ``z ^= z >> 31``, and the uniform in [0, 1) is
``z / 2**64``. Unlike language-default generators it is trivially portable,
so a seed pins the exact event schedule in any implementation and
trajectory files can serve as golden artifacts.

Each turn of a stochastic variant takes one draw, and a second only when
the first is below ``chance``: an event occurs iff ``u1 < chance``, and it
is a cobot failure iff ``u2 < severe_share``, else a difficult pick. The
draw count per turn (one or two) is part of the reproducibility contract:
nothing else consumes the stream, so variants sharing a seed see the same
events.

The shift loop reads a seed's whole schedule, drawn by ``ScheduleDrawer``:
it computes splitmix64 for a block of stream positions at once, packed as
128-bit lanes of one Python int, and compares every lane against an exact
integer cutoff (``uniform_cutoff``), so its events equal those of the
turn-by-turn rule above, draw for draw. The compare reads one byte per
lane, the output's top eight bits, and settles the rare lanes whose byte
ties the cutoff's on the full output (``_below``). ``ScheduleDrawer.draws``
draws a range of consecutive seeds in one call: seed s + 1's first block
of lane states is seed s's plus one in every lane.
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
# Most lanes per block. It bounds memory and the constants each drawer
# builds; in timings, 128 to 384 lanes drew a 2000-turn schedule fastest. A
# lane index also fits in one byte.
_LANES = 256


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


def uniform_cutoff(c: float) -> int:
    """The smallest ``z`` with ``z / 2**64 >= c``, for ``c`` in [0, 1].

    Int-to-float conversion is monotone, so a draw ``u = z / 2**64`` has
    ``u < c`` exactly when ``z < uniform_cutoff(c)``. This is not
    ``ceil(c * 2**64)``: ``z`` is rounded to a double before the division,
    so for c = 0.1 the cutoff is 128 lower, and for c = 1.0 it is
    2**64 - 1024, as every larger ``z`` rounds to 2**64.
    """
    hi = math.ceil(c * _TWO64)  # c * 2**64 is exact, and float(hi) >= it
    # float(z) is within 2**10 of z below 2**64, so float(hi - 4097) < c * 2**64.
    lo = hi - 4097
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid / _TWO64 >= c:
            hi = mid
        else:
            lo = mid
    return hi


def _cutoff_table(cutoff: int) -> bytes:
    """The ``bytes.translate`` table of ``cutoff``'s one-byte test: it maps
    a lane's top output byte to 1 below the cutoff's top byte, to 0 above
    it, and to 2 (a tie) on it, unless the cutoff's low 56 bits are zero, so
    that no output with that top byte lies below it."""
    top, low = cutoff >> 56, cutoff & ((1 << 56) - 1)
    table = bytearray(256)
    table[:top] = b"\x01" * top
    if low:
        table[top] = 2
    return bytes(table)


def _below(lanes: bytes, top: bytes, cutoff: int, table: bytes) -> bytes | bytearray:
    """Per lane, 1 where its splitmix64 output lies below ``cutoff``, else 0.

    ``lanes`` holds each lane's value before the final ``z ^= z >> 31``,
    16 little-endian bytes per lane: bytes 0-7 hold the value, the low half
    of the last product, and bytes 8-15 its high half, which is never read.
    ``top`` holds each lane's byte 7, bits 56-63.
    That xor-shift leaves them as they are, since ``z >> 31 < 2**33``, so
    they are the output's top byte, and ``table`` (see ``_cutoff_table``)
    decides every lane whose top byte differs from the cutoff's. Each tie,
    one lane in 256 where the cutoff's low bits are non-zero, is settled on
    the full output ``w ^ (w >> 31)``.
    """
    hits = top.translate(table)
    tie = hits.find(2)
    if tie < 0:
        return hits
    hits = bytearray(hits)
    while tie >= 0:
        w = int.from_bytes(lanes[16 * tie:16 * tie + 8], "little")
        hits[tie] = (w ^ (w >> 31)) < cutoff
        tie = hits.find(2, tie + 1)
    return hits


class ScheduleDrawer:
    """Draws ``schedule`` for many seeds of one horizon and one
    ``DisruptionParams``, with splitmix64 computed for a block of stream
    positions at once.

    Position ``j`` of a block is the ``j``-th 128-bit lane of one Python int.
    The lane states ``state + j * gamma`` come from a ramp constant made once
    per drawer; each xor-shift-multiply step is then a few big-int operations
    under a per-lane 64-bit mask (the last product needs none, see
    ``draws``), and no lane carries into the next, because a product of two
    64-bit values fits in 128 bits. The lanes are compared
    with the two cutoffs (see ``uniform_cutoff``) one byte per lane, and
    ``_below`` settles the ties; the walk from those hits to turns shifts
    every turn after an event by one position, its severity draw. A block
    has at most ``_LANES`` lanes, so memory stays bounded for any horizon: a
    walk that runs past its block draws the next one from where it stopped.

    ``draws`` takes a range of seeds and binds these constants once. Every
    first block of a seed starts at stream position 1, so consecutive
    seeds' first-block lane states differ by one in every lane: each seed
    after the first gets its first block from the previous one's by adding
    ``ones`` under the mask, where drawing it afresh costs a multiply too.
    Each seed still has its own blocks and its own walk.
    """

    __slots__ = ("horizon", "lanes", "ones", "mask", "ramp", "occurs", "severe")

    def __init__(self, horizon: int, dp: DisruptionParams) -> None:
        # One lane per turn, one per event, and one for a severity draw past
        # the last turn. Events are binomial with mean e = horizon * chance;
        # the lanes cover e plus three standard deviations, so a second block
        # is rare, and each lane fewer shortens every big-int step.
        e = horizon * dp.chance
        lanes = min(_LANES, horizon + math.ceil(e + 3 * math.sqrt(e * (1 - dp.chance))) + 1)
        self.horizon, self.lanes = horizon, lanes
        layout = bytearray(16 * lanes)  # little-endian, 16 bytes per lane
        layout[::16] = b"\x01" * lanes
        self.ones = ones = int.from_bytes(layout, "little")
        self.mask = _MASK64 * ones
        layout[::16] = bytes(range(lanes))  # lane j holds j; _LANES <= 256
        self.ramp = _GAMMA * int.from_bytes(layout, "little")
        cutoff = uniform_cutoff(dp.chance)
        self.occurs = cutoff, _cutoff_table(cutoff)
        cutoff = uniform_cutoff(dp.severe_share)
        self.severe = cutoff, _cutoff_table(cutoff)

    def draws(self, start: int, stop: int) -> list[list[tuple[int, bool]]]:
        """``[schedule(s, horizon, dp) for s in range(start, stop)]`` for
        this drawer's horizon and dp, with the drawer's constants bound once.

        ``z`` holds a block's lane states, ``s + (drawn + j + 1) * gamma``
        for seed s at lane j, ``drawn`` positions on. The last product needs
        no mask: each lane is below 2**64, so its product is below 2**128
        and carries into no other lane, and only its low 8 bytes are read.
        The final xor-shift is left to ``_below``, which needs it only for
        ties, so it runs only where a one-byte test meets one (a 2).
        """
        if start < 0 or stop - 1 > _MASK64:
            bad = start if start < 0 else stop - 1
            raise ValueError(f"seed must be an unsigned 64-bit integer (got {bad})")
        horizon, lanes, ones, mask = self.horizon, self.lanes, self.ones, self.mask
        ramp = self.ramp
        (occurs_cut, occurs_table), (severe_cut, severe_table) = self.occurs, self.severe
        size = 16 * lanes
        first = (((start + _GAMMA) & _MASK64) * ones + ramp) & mask
        schedules = []
        for seed in range(start, stop):
            events = []
            turn = 1  # the turn whose occurrence draw is at lane `at`
            drawn = 0  # stream positions before lane 0 of the block
            z = first
            while True:
                z ^= (z >> 30) & mask
                z = (z * _MIX1) & mask
                z ^= (z >> 27) & mask
                words = (z * _MIX2).to_bytes(size, "little")
                top = words[7::16]
                occurs = top.translate(occurs_table)
                if 2 in occurs:
                    occurs = _below(words, top, occurs_cut, occurs_table)
                severe = top.translate(severe_table)
                if 2 in severe:
                    severe = _below(words, top, severe_cut, severe_table)
                at = 0
                while True:
                    hit = occurs.find(1, at)
                    if hit < 0:  # no event in the rest of the block
                        turn += lanes - at
                        drawn += lanes
                        break
                    turn += hit - at
                    # Past the horizon, or its severity draw is in the next block.
                    if turn > horizon or hit + 1 == lanes:
                        drawn += hit
                        break
                    events.append((turn, severe[hit + 1] == 1))
                    turn += 1
                    at = hit + 2
                if turn > horizon:
                    break
                z = (((seed + (drawn + 1) * _GAMMA) & _MASK64) * ones + ramp) & mask
            schedules.append(events)
            first = (first + ones) & mask
        return schedules


def schedule(seed: int, horizon: int, dp: DisruptionParams) -> list[tuple[int, bool]]:
    """The events of turns 1..horizon that the module's draw rule gives
    from ``seed``, as ``(turn, is_cobot_failure)`` pairs in turn order;
    turns without an event are left out. To draw many seeds with one
    horizon and ``dp``, make one ``ScheduleDrawer`` and reuse it."""
    return ScheduleDrawer(horizon, dp).draws(seed, seed + 1)[0]
