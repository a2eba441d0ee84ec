"""Disruption sampling: draw discipline, certainty cases, frequencies, and
the sparse schedule the shift loop reads."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cobotsim import DisruptionEvent, DisruptionParams
from cobotsim.disruption import _below, _cutoff_table, schedule, uniform_cutoff
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
    """64-bit lane values packed as ScheduleDrawer._block packs them."""
    return b"".join(w.to_bytes(8, "little") + bytes(8) for w in values)


def _output(w):
    return w ^ (w >> 31)  # splitmix64's last step, which _block leaves out


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
