"""Disruption sampling: draw discipline, certainty cases, frequencies, and
the sparse schedule the shift loop reads."""

import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cobotsim import DisruptionEvent, DisruptionParams, disruption
from cobotsim.disruption import (
    ScheduleDrawer,
    _below,
    _cutoff_table,
    schedule,
    uniform_cutoff,
)
from stepwise_reference import RandomStream, sample_disruption


def test_zero_chance_always_none_one_draw():
    dp = DisruptionParams(chance=0.0)
    stream = RandomStream(5)
    shadow = RandomStream(5)
    for _ in range(200):
        assert sample_disruption(stream, dp) is DisruptionEvent.NONE
        shadow.next_uniform()
        assert stream.state == shadow.state


def test_certain_severe_two_draws():
    dp = DisruptionParams(chance=1.0, severe_share=1.0)
    stream = RandomStream(5)
    shadow = RandomStream(5)
    for _ in range(200):
        assert sample_disruption(stream, dp) is DisruptionEvent.COBOT_FAILURE
        shadow.next_uniform()
        shadow.next_uniform()
        assert stream.state == shadow.state


def test_certain_minor():
    dp = DisruptionParams(chance=1.0, severe_share=0.0)
    stream = RandomStream(11)
    for _ in range(200):
        assert sample_disruption(stream, dp) is DisruptionEvent.DIFFICULT_PICK


def test_draw_count_depends_only_on_occurrence():
    dp = DisruptionParams()
    stream = RandomStream(3)
    shadow = RandomStream(3)
    for _ in range(5000):
        event = sample_disruption(stream, dp)
        shadow.next_uniform()
        if event is not DisruptionEvent.NONE:
            shadow.next_uniform()
        assert stream.state == shadow.state


def test_event_frequencies():
    dp = DisruptionParams()  # chance 0.1, severe share 0.5
    stream = RandomStream(0)
    n = 100_000
    counts = {event: 0 for event in DisruptionEvent}
    for _ in range(n):
        counts[sample_disruption(stream, dp)] += 1
    severe_rate = counts[DisruptionEvent.COBOT_FAILURE] / n
    any_rate = 1.0 - counts[DisruptionEvent.NONE] / n
    assert abs(severe_rate - 0.05) <= 0.005
    # 3-sigma binomial bound around the configured chance
    assert abs(any_rate - dp.chance) <= 3.0 * (dp.chance * (1 - dp.chance) / n) ** 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"chance": -0.1},
        {"chance": 1.1},
        {"severe_share": 2.0},
        {"difficult_pick_fatigue": -1.0},
        {"difficult_pick_fatigue": float("inf")},
    ],
)
def test_disruption_params_validation(kwargs):
    with pytest.raises(ValueError):
        DisruptionParams(**kwargs)


def _drawn_events(seed, horizon, dp):
    """Turn-by-turn ``sample_disruption`` events in schedule form."""
    stream = RandomStream(seed)
    events = []
    for turn in range(1, horizon + 1):
        event = sample_disruption(stream, dp)
        if event is not DisruptionEvent.NONE:
            events.append((turn, event is DisruptionEvent.COBOT_FAILURE))
    return events


_probability = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))


@given(
    seed=st.one_of(st.just(0), st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
    horizon=st.integers(1, 200),
    chance=_probability,
    severe_share=_probability,
)
@example(seed=0, horizon=1, chance=0.0, severe_share=0.0)
@example(seed=2**64 - 1, horizon=200, chance=1.0, severe_share=1.0)
@example(seed=0, horizon=200, chance=1.0, severe_share=0.0)
@example(seed=2**64 - 1, horizon=200, chance=0.0, severe_share=1.0)
@example(seed=42, horizon=200, chance=0.1, severe_share=0.5)
# Two draws a turn for 2000 turns span many blocks of lanes.
@example(seed=7, horizon=2000, chance=1.0, severe_share=0.5)
# The lane states seed + j * gamma wrap past 2**64 from the first lane on.
# Both schedules also end a block on an occurrence draw whose severity draw
# opens the next block.
@example(seed=2**64 - 1, horizon=300, chance=0.5, severe_share=0.5)
@example(seed=2**64 - 3, horizon=300, chance=0.5, severe_share=0.5)
# About 2,200 lanes, so both cutoffs meet lanes whose top byte ties theirs.
@example(seed=3, horizon=2000, chance=0.1, severe_share=0.5)
# A 50-turn schedule at chance 0.1 gets 63 lanes, the expected 55 draws and
# three standard deviations of events. Seed 17409 has 17 events, so its walk
# runs on in a second block; seed 8804 has 14, the last at turn 50, whose
# severity draw is the second block's first lane.
@example(seed=17409, horizon=50, chance=0.1, severe_share=0.5)
@example(seed=8804, horizon=50, chance=0.1, severe_share=0.5)
def test_schedule_equals_turn_by_turn_draws(seed, horizon, chance, severe_share):
    dp = DisruptionParams(chance=chance, severe_share=severe_share)
    assert schedule(seed, horizon, dp) == _drawn_events(seed, horizon, dp)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_schedule_rejects_out_of_range_seeds(seed):
    with pytest.raises(ValueError):
        schedule(seed, 10, DisruptionParams())


# The seed whose first lane state, seed + gamma, is 2**64 - 1.
_WRAP = 2**64 - 1 - 0x9E3779B97F4A7C15


@pytest.mark.parametrize("horizon", [1, 50, 2000])
@pytest.mark.parametrize("chance", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("severe_share", [0.0, 0.5, 1.0])
def test_draws_equals_one_schedule_per_seed(horizon, chance, severe_share, monkeypatch):
    # Each next seed's first block is the last one's plus one per lane, under
    # the mask. Seed WRAP's lane 0 holds 2**64 - 1, so seed WRAP + 1's wraps to
    # 0; another range ends at seed 2**64 - 1. At horizon 50 and chance 0.1,
    # seed 8804's last severity draw falls past its first block.
    dp = DisruptionParams(chance=chance, severe_share=severe_share)
    ranges = [(_WRAP - 1, _WRAP + 2), (2**64 - 2, 2**64)]
    ranges.append((8801, 8806) if horizon < 2000 else (5, 7))
    calls = []
    below = disruption._below
    monkeypatch.setattr(disruption, "_below", lambda *args: calls.append(args) or below(*args))
    drawer = ScheduleDrawer(horizon, dp)
    for start, stop in ranges:
        expected = [_drawn_events(s, horizon, dp) for s in range(start, stop)]
        assert drawer.draws(start, stop) == expected
        assert [schedule(s, horizon, dp) for s in range(start, stop)] == expected
    # _below runs only on a tie, a lane whose top byte equals a cutoff's
    # that has low bits set: 0.1's and 1.0's do, 0.0's and 0.5's do not.
    # The 2000-turn ranges draw thousands of lanes, so ties occur there.
    if horizon == 2000:
        tables = _cutoff_table(uniform_cutoff(chance)) + _cutoff_table(uniform_cutoff(severe_share))
        assert bool(calls) == (2 in tables)


def test_draws_rejects_seeds_outside_64_bits():
    drawer = ScheduleDrawer(10, DisruptionParams())
    assert drawer.draws(2**64 - 1, 2**64) == [schedule(2**64 - 1, 10, DisruptionParams())]
    assert drawer.draws(3, 3) == []
    for start, stop, bad in [(-1, 2, -1), (-3, -1, -3), (2**64 - 2, 2**64 + 1, 2**64)]:
        message = f"seed must be an unsigned 64-bit integer (got {bad})"
        with pytest.raises(ValueError, match=re.escape(message)):
            drawer.draws(start, stop)
    for seed in (-1, 2**64):
        message = f"seed must be an unsigned 64-bit integer (got {seed})"
        with pytest.raises(ValueError, match=re.escape(message)):
            schedule(seed, 10, DisruptionParams())


@pytest.mark.parametrize(
    "c", [0.0, 0.1, 0.5, 1.0, 5e-324, math.nextafter(1.0, 0.0)]
)
def test_uniform_cutoff_is_the_exact_integer_threshold(c):
    cut = uniform_cutoff(c)
    assert cut / 2**64 >= c
    assert (cut - 1) / 2**64 < c


def test_uniform_cutoff_is_not_the_rounded_up_product():
    # z is rounded to a double before the division, so every z from
    # 2**64 - 1024 on draws exactly 1.0.
    assert uniform_cutoff(1.0) == 2**64 - 1024
    assert uniform_cutoff(0.1) != math.ceil(0.1 * 2**64)


def _lane_bytes(values):
    """64-bit lane values packed as ScheduleDrawer.draws packs them."""
    return b"".join(w.to_bytes(8, "little") + bytes(8) for w in values)


def _output(w):
    return w ^ (w >> 31)  # splitmix64's last step, which draws leaves to _below


def test_one_byte_cutoff_test_settles_ties_on_the_full_output():
    cut = uniform_cutoff(0.1)
    top = cut >> 56
    low = (1 << 56) - 1
    # Before the last xor-shift below the cutoff, after it not; and the
    # other way round. Both top bytes tie the cutoff's.
    # The xor-shift moves the low 33 bits, so look 2**34 either side.
    rises = next(w for w in range(cut - 2**34, cut, 2**20) if _output(w) >= cut)
    falls = next(w for w in range(cut, cut + 2**34, 2**20) if _output(w) < cut)
    lanes = [
        (top - 1) << 56 | low,  # top byte below: 1
        (top + 1) << 56,  # top byte above: 0
        top << 56,  # a tie below the cutoff: 1
        top << 56 | low,  # a tie above it: 0
        rises,
        falls,
    ]
    assert [_output(w) >> 56 for w in lanes[2:]] == [top] * 4
    data = _lane_bytes(lanes)
    table = _cutoff_table(cut)
    assert table.count(2) == 1
    hits = _below(data, data[7::16], cut, table)
    assert list(hits) == [_output(w) < cut for w in lanes] == [1, 0, 1, 0, 0, 1]


@pytest.mark.parametrize("cut", [0, 0x40 << 56, 0xFF << 56])
def test_cutoff_with_zero_low_bits_has_no_ties(cut):
    table = _cutoff_table(cut)
    assert 2 not in table
    top = cut >> 56
    lanes = [top << 56, top << 56 | 2**40, max(top - 1, 0) << 56]
    data = _lane_bytes(lanes)
    hits = _below(data, data[7::16], cut, table)
    assert list(hits) == [_output(w) < cut for w in lanes]
