"""Shift-loop tests: the fixed step sequence, whole-shift KPIs, determinism,
paired schedules, the apology invariant, and ensemble aggregation."""

import gc
import inspect
import math
import weakref
from dataclasses import fields, replace
from functools import reduce
from itertools import accumulate
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobotsim import (
    ActionPair,
    CollabLevel,
    DisruptionEvent,
    DisruptionParams,
    EffortLevel,
    GameParams,
    InteractionOutcome,
    ModelConfig,
    ModelVariant,
    ShiftSummary,
    StepRecord,
    TrustParams,
    classify_interaction,
    emit_summary_json,
    fatigue_increment,
    human_reward,
    run_ensemble,
    run_paired,
    run_shift,
)
from cobotsim import cli, engine
from cobotsim.dynamics import STATE_DECIMALS
from cobotsim.disruption import ScheduleDrawer, schedule
from cobotsim.engine import _StagePolicy
from cobotsim.game import ACTION_PAIRS, StageGame
from stepwise_reference import (
    HumanState,
    RandomStream,
    recovery_time,
    run_step,
    solve_stage_game,
    summarize_shift,
)

NORMAL, HIGH_E = EffortLevel.NORMAL, EffortLevel.HIGH
LOW_C, HIGH_C = CollabLevel.LOW, CollabLevel.HIGH
SEVERE = InteractionOutcome.SEVERE_FAILURE


def cfg_for(variant, **kwargs):
    return ModelConfig(variant=ModelVariant(variant), **kwargs)


def paired_cfgs(variants, **kwargs):
    """Configs of ``variants`` built from one base by ``replace``, so they hold
    one ``game`` and ``trust`` and ``run_paired`` shares their policy."""
    base = ModelConfig(**kwargs)
    return [replace(base, variant=ModelVariant(v)) for v in variants]


# ---------------------------------------------------------------- run_step


def test_opening_turn_refined():
    cfg = cfg_for("v1.1")
    record, state, _ = run_step(
        HumanState(0.0, 0.5), 0, RandomStream(0), cfg
    )
    assert record.cobot_action is HIGH_C
    assert record.human_action is NORMAL
    assert record.outcome is InteractionOutcome.SUCCESS
    assert record.trust_post == 0.55
    assert record.fatigue_post == 0.5
    assert record.items_picked == 1.0
    assert state == HumanState(0.5, 0.55)


def test_opening_turn_naive():
    cfg = cfg_for("v1.0")
    record, _, _ = run_step(
        HumanState(0.0, 0.5), 0, RandomStream(0), cfg
    )
    assert (record.cobot_action, record.human_action) == (HIGH_C, NORMAL)
    assert record.outcome is InteractionOutcome.MINOR_FAILURE
    assert record.trust_post == 0.4


def test_apology_override_forces_high_collaboration():
    cfg = cfg_for("v1.3", disruption=DisruptionParams(chance=0.0))
    for trust in (0.0, 0.1, 0.45, 0.9):
        record, _, remaining = run_step(
            HumanState(0.0, trust),
            2,
            RandomStream(0),
            cfg,
        )
        assert record.cobot_action is HIGH_C
        assert remaining == 1  # consumed one apology turn


def test_cobot_failure_charges_low_collaboration_fatigue():
    # chance 1 + severe share 1 forces a cobot failure on a turn whose chosen
    # pair would have been (high, high): fatigue must be charged at (high, low)
    cfg = cfg_for("v1.2", disruption=DisruptionParams(chance=1.0, severe_share=1.0))
    record, _, _ = run_step(
        HumanState(0.0, 0.9), 0, RandomStream(0), cfg
    )
    assert record.cobot_action is HIGH_C
    assert record.human_action is HIGH_E
    assert record.disruption_event is DisruptionEvent.COBOT_FAILURE
    assert record.outcome is SEVERE
    assert record.fatigue_post == 2.5
    assert record.trust_post == 0.4
    assert record.items_picked == 2.0  # the pick itself still lands


def test_difficult_pick_adds_surcharge_without_touching_trust():
    cfg = cfg_for("v1.2", disruption=DisruptionParams(chance=1.0, severe_share=0.0))
    record, _, _ = run_step(
        HumanState(0.0, 0.9), 0, RandomStream(0), cfg
    )
    assert record.disruption_event is DisruptionEvent.DIFFICULT_PICK
    assert record.extra_fatigue == 5.0
    assert record.fatigue_post == 6.0  # (high, high) increment 1.0 + 5.0
    assert record.outcome is InteractionOutcome.SUCCESS
    assert record.trust_post == 0.95


# ---------------------------------------------------------------- run_shift


def test_naive_shift_kpis():
    records, summary = run_shift(cfg_for("v1.0"))
    assert summary.productivity == 50.0
    assert summary.final_trust == 0.0
    assert summary.final_fatigue == 49.5
    trajectory = [r.trust_post for r in records]
    assert trajectory[4] == 0.0  # zero by the end of turn 5
    assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))


def test_refined_shift_kpis():
    records, summary = run_shift(cfg_for("v1.1"))
    assert summary.productivity == 98.0
    assert summary.final_trust == 1.0
    assert summary.final_fatigue == 49.0
    trajectory = [r.trust_post for r in records]
    assert all(b >= a for a, b in zip(trajectory, trajectory[1:]))
    assert trajectory[9] == 1.0  # saturated at the end of turn 10
    assert all(t == 1.0 for t in trajectory[9:])


def test_single_turn_shift():
    _, summary = run_shift(cfg_for("v1.1", horizon=1))
    assert summary.productivity == 1.0
    assert summary.final_trust == 0.55


def test_deterministic_variants_consume_no_draws():
    for variant in ("v1.0", "v1.1"):
        cfg = cfg_for(variant, seed=7)
        stream = RandomStream(cfg.seed)
        state = HumanState(cfg.trust.initial_fatigue, cfg.trust.initial_trust)
        remaining = 0
        for step in range(1, cfg.horizon + 1):
            _, state, remaining = run_step(state, remaining, stream, cfg, step=step)
        assert stream.state == cfg.seed


def test_shift_is_deterministic():
    cfg = cfg_for("v1.3", seed=123)
    first_records, first_summary = run_shift(cfg)
    second_records, second_summary = run_shift(cfg)
    assert first_records == second_records
    assert first_summary == second_summary


def test_paired_variants_see_identical_disruption_schedules():
    for seed in range(30):
        records12, _ = run_shift(cfg_for("v1.2", seed=seed))
        records13, _ = run_shift(cfg_for("v1.3", seed=seed))
        events12 = [r.disruption_event for r in records12]
        events13 = [r.disruption_event for r in records13]
        assert events12 == events13


def test_every_severe_failure_triggers_three_forced_turns():
    found = 0
    for seed in range(60):
        records, _ = run_shift(cfg_for("v1.3", seed=seed))
        for r in records:
            if r.outcome is SEVERE:
                found += 1
                window = records[r.step : r.step + 3]
                assert all(w.cobot_action is HIGH_C for w in window)
    assert found > 20


def test_controller_inert_outside_apology_variant():
    for variant in ("v1.0", "v1.1", "v1.2"):
        records, _ = run_shift(cfg_for(variant, seed=9))
        assert all(r.apology_remaining_post == 0 for r in records)


def test_apology_escapes_low_trust_trap():
    # fresh apology at trust 0.45: three forced successes reach 0.60, after
    # which the stage game keeps collaborating on its own
    cfg = cfg_for("v1.3", disruption=DisruptionParams(chance=0.0))
    state = HumanState(10.0, 0.45)
    remaining = 3
    stream = RandomStream(0)
    trust_path = []
    for step in range(1, 6):
        record, state, remaining = run_step(state, remaining, stream, cfg, step=step)
        trust_path.append(record.trust_post)
    assert trust_path[:3] == [0.5, 0.55, 0.6]
    assert trust_path[3] > 0.6


def test_disengagement_trap_without_apology():
    # same start without the apology: the leader disengages below 0.5 and
    # trust decays monotonically to zero
    cfg = cfg_for("v1.2", disruption=DisruptionParams(chance=0.0))
    state = HumanState(10.0, 0.45)
    remaining = 0
    stream = RandomStream(0)
    trust_path = []
    for step in range(1, 11):
        record, state, remaining = run_step(state, remaining, stream, cfg, step=step)
        trust_path.append(record.trust_post)
        assert record.cobot_action is LOW_C
    assert all(b < a or b == 0.0 for a, b in zip(trust_path, trust_path[1:]))
    assert trust_path[-1] == 0.0


# ---------------------------------------------------------- stage policy

_NON_DYADIC = {"fatigue_normal_low": 0.3, "fatigue_normal_high": 0.1,
               "fatigue_high_low": 0.7, "fatigue_high_high": 0.2}
_NEGATIVE = {"fatigue_normal_low": 1.0, "fatigue_normal_high": -1.0,
             "fatigue_high_low": 2.5, "fatigue_high_high": 1.0}


def _increments(game):
    """``game``'s four fatigue increments, effort-major, each read through
    ``fatigue_increment``."""
    return [fatigue_increment(ACTION_PAIRS[c, e], game) for e in EffortLevel for c in CollabLevel]


# items - 1e17 rounds to the same double for both rewards, so past the
# threshold the leader is indifferent and, below trust 1.0, stays low: at
# trust 0.6 the calm equilibrium is (high, high), the saturated one
# (low, normal). A memo that shared one trust key between the two sides
# would serve the wrong one.
_SATURATED_TIE = GameParams(penalty_weight=1e17, cobot_tiebreak_trust=1.0)


def _crossing(threshold, increment):
    """The smallest float fatigue with fatigue + increment > threshold."""
    crossing = threshold - increment
    while crossing + increment > threshold:
        crossing = math.nextafter(crossing, -math.inf)
    while not crossing + increment > threshold:
        crossing = math.nextafter(crossing, math.inf)
    return crossing


def _rounding_game():
    # Low collaboration draws high effort at every trust, so the largest
    # increment, 3.24, prices a pair the leader can choose. 30.2 - 3.24
    # rounds up to 26.96, and 26.96 + 3.24 > 30.2: a test of fatigue against
    # threshold - increment would wrongly call that state penalty-free.
    return GameParams(
        fatigue_threshold=30.2,
        fatigue_normal_low=2.9,
        fatigue_normal_high=0.3,
        fatigue_high_low=3.24,
        fatigue_high_high=0.9,
    )


@pytest.mark.parametrize(
    "game",
    [
        GameParams(),
        GameParams(fatigue_threshold=80.3),
        _rounding_game(),
        GameParams(fatigue_threshold=30.2, **_NEGATIVE),
        _SATURATED_TIE,
    ],
    ids=["defaults", "threshold-80.3", "rounding-threshold", "negative-entry",
         "saturated-tie"],
)
def test_memoised_stage_game_is_exact_at_the_threshold(game):
    # Fatigues one and two ulps either side of each threshold - increment;
    # one memo sees them in both orders, so a key that rounds differently
    # from cobot_utility serves a stale decision.
    fatigues = []
    for inc in _increments(game):
        edge = game.fatigue_threshold - inc
        below = math.nextafter(edge, -math.inf)
        above = math.nextafter(edge, math.inf)
        fatigues += [math.nextafter(below, -math.inf), below, edge, above,
                     math.nextafter(above, math.inf)]
    # Level 0 holds up to the last fatigue whose sum with the largest
    # increment stays at or below the threshold in float terms; the top level
    # from the first whose sum with the smallest exceeds it.
    threshold, table = game.fatigue_threshold, _increments(game)
    calm_end = _crossing(threshold, max(table))
    saturated_start = _crossing(threshold, min(table))
    fatigues += [0.0, math.nextafter(calm_end, -math.inf), calm_end,
                 math.nextafter(saturated_start, -math.inf), saturated_start]
    policy = _StagePolicy(cfg_for("v1.1", game=game))
    for trust in (0.0, 0.3, 0.5, 0.6, 0.75, 1.0):
        for fatigue in fatigues + fatigues[::-1]:
            cobot, human = policy.leader(trust, fatigue, policy.level(fatigue))[:2]
            expected = solve_stage_game(HumanState(fatigue, trust), game)
            assert ActionPair(cobot, human) == expected, (trust, fatigue)
    # Level 0 below the calm crossing, a band level between the crossings
    # and the top level from the saturated crossing on were all memoised.
    assert policy.tables[0] and any(policy.tables[1:_TOP]) and policy.tables[_TOP]
    if game is _SATURATED_TIE:
        assert policy.leader(0.6, 0.0, 0)[:2] == (HIGH_C, HIGH_E)
        assert policy.leader(0.6, saturated_start, _TOP)[:2] == (LOW_C, NORMAL)


# ------------------------------------------------------------- fast paths


def _fatigue_branch(record, game):
    """Which quantization branch the shift loop takes for this turn."""
    severe = record.disruption_event is DisruptionEvent.COBOT_FAILURE
    charged = LOW_C if severe else record.cobot_action
    x = record.fatigue_pre + fatigue_increment(ACTION_PAIRS[charged, record.human_action], game)
    x += record.extra_fatigue
    if not x > 0.0:
        return "clamp"
    return "exact" if (x * 2.0**STATE_DECIMALS).is_integer() else "round"


def _leader_turns(records):
    """The records of turns the stage game decided (no apology override)."""
    return [records[0]] + [
        rec for prev, rec in zip(records, records[1:]) if not prev.apology_remaining_post
    ]


def _saturated_at_a_calm_trust(records, game):
    """A stage-game turn past the threshold at a trust also met on a calm
    stage-game turn: the case where sharing one trust key would go wrong."""
    threshold, table = game.fatigue_threshold, _increments(game)
    turns = _leader_turns(records)
    calm = {r.trust_pre for r in turns if not r.fatigue_pre + max(table) > threshold}
    return any(
        r.fatigue_pre + min(table) > threshold and r.trust_pre in calm for r in turns
    )


def _forced_at_zero_trust(records):
    return any(
        prev.apology_remaining_post and rec.trust_pre == 0.0
        for prev, rec in zip(records, records[1:])
    )


def _steady_forced_turn(records):
    """An undisrupted forced turn that keeps trust and is followed by an
    undisrupted forced turn: the loop must not jump from an apology turn,
    whose countdown changes the turns after it."""
    return any(
        prev.apology_remaining_post and rec.apology_remaining_post
        and rec.trust_post == rec.trust_pre
        and rec.disruption_event is nxt.disruption_event is DisruptionEvent.NONE
        for prev, rec, nxt in zip(records, records[1:], records[2:])
    )


def _edges(game):
    """The table increments from the largest down, then -inf: at level L,
    the test of the L-th is the next to turn true as fatigue rises."""
    return sorted(_increments(game), reverse=True) + [-math.inf]


def _level(fatigue, game):
    """How many of the stage game's threshold tests hold at ``fatigue``."""
    return sum(fatigue + inc > game.fatigue_threshold for inc in _increments(game))


_TOP = 4  # the level where every test holds


def _undisrupted(record):
    return record.disruption_event is DisruptionEvent.NONE


def _steady_stretches(records, game, turn=_undisrupted):
    """``(level, increment, post-turn fatigue, k)`` for each steady turn that
    ``turn`` admits, by default one with no event: a stage-game turn with no
    trust change, followed by k >= 1 undisrupted turns before the next event
    or the horizon. The shift loop may jump over those k turns, unless a
    cobot failure struck the steady turn."""
    leader_steps = {r.step for r in _leader_turns(records)}
    stretches = []
    for i, r in enumerate(records):
        if r.step not in leader_steps or not turn(r) or r.trust_post != r.trust_pre:
            continue
        k = 0
        for later in records[i + 1:]:
            if later.disruption_event is not DisruptionEvent.NONE:
                break
            k += 1
        if k:
            inc = fatigue_increment(ACTION_PAIRS[r.cobot_action, r.human_action], game)
            stretches.append((_level(r.fatigue_pre, game), inc, r.fatigue_post, k))
    return stretches


def _dyadic(x):
    return (x * 2.0**STATE_DECIMALS).is_integer()


def _exact(stretch):
    """Whether the k skipped turns' fatigue sums are exact."""
    _, inc, fatigue, k = stretch
    return inc >= 0.0 and _dyadic(inc) and _dyadic(fatigue) and fatigue + k * inc < 2.0**40


def _keeps_level(stretch, game):
    """Whether the last skipped turn still fails the test of the level's edge."""
    level, inc, fatigue, k = stretch
    end = fatigue + k * inc
    return not (end - inc) + _edges(game)[level] > game.fatigue_threshold


def _jump_taken(stretch, game):
    """Whether the shift loop's exactness conditions admit the jump."""
    return _exact(stretch) and _keeps_level(stretch, game)


def _crosses_edge(stretch, game):
    """An exact stretch whose last turns would reach the next level."""
    return _exact(stretch) and not _keeps_level(stretch, game)


def _stretch(level, condition=_jump_taken, turn=_undisrupted):
    """An ``exercised`` predicate: some steady stretch at ``level`` from a
    turn that ``turn`` admits meets ``condition``, by default that the jump
    is taken."""
    def exercised(records, game):
        return any(
            s[0] == level and condition(s, game)
            for s in _steady_stretches(records, game, turn)
        )
    return exercised


def _to_the_edge(stretch, game):
    """A jump whose last skipped turn is the last one at its level: one more
    turn would pass the level's edge."""
    level, inc, fatigue, k = stretch
    return (_jump_taken(stretch, game)
            and fatigue + k * inc + _edges(game)[level] > game.fatigue_threshold)


_ZERO_HIGH_HIGH = {"fatigue_normal_low": 1.0, "fatigue_normal_high": 0.5,
                   "fatigue_high_low": 2.5, "fatigue_high_high": 0.0}
_POINT_3_HIGH_HIGH = {**_ZERO_HIGH_HIGH, "fatigue_high_high": 0.3}
_NON_DYADIC_REWARDS = {"reward_normal": 0.1, "reward_high": 0.3}
# The default increments plus 2**-12.
_FINE = {"fatigue_normal_low": 1.0 + 2**-12, "fatigue_normal_high": 0.5 + 2**-12,
         "fatigue_high_low": 2.5 + 2**-12, "fatigue_high_high": 1.0 + 2**-12}
# Four distinct increments, 10, 1, 0.5 and 0.25, under the default threshold 80.
# At trust 1.0 the leader plays (high, high), +1 a turn, until fatigue + 1
# exceeds 80 at level 2, where it turns to (low, normal). From fatigue 0.5
# level 1 runs from 70.5 to 78.5: a shift of 79 turns ends there, and one
# turn more starts at 79.5, past the edge.
_BAND_STEPS = {"fatigue_normal_low": 0.25, "fatigue_normal_high": 0.5,
               "fatigue_high_low": 10.0, "fatigue_high_high": 1.0}
_IN_THE_BAND = {"game": GameParams(**_BAND_STEPS),
                "trust": TrustParams(initial_trust=1.0, initial_fatigue=0.5)}


@pytest.mark.parametrize(
    "variant, kwargs, exercised",
    [
        ("v1.2", {"trust": TrustParams(initial_fatigue=2**-12)},
         lambda recs, game: {_fatigue_branch(r, game) for r in recs} == {"exact"}),
        ("v1.2", {"trust": TrustParams(initial_fatigue=math.nextafter(2**-12, 0.0))},
         lambda recs, game: recs[0].fatigue_pre != 2**-12),
        ("v1.2", {"trust": TrustParams(initial_fatigue=math.nextafter(2**-12, 1.0))},
         lambda recs, game: recs[0].fatigue_pre != 2**-12),
        # 2**-13 has 13 decimals: a finer dyadic scale than 2**-12 would
        # wrongly skip its round().
        ("v1.2", {"trust": TrustParams(initial_fatigue=2**-13)},
         lambda recs, game: _fatigue_branch(recs[0], game) == "round"),
        ("v1.3", {"game": GameParams(**_NON_DYADIC),
                  "disruption": DisruptionParams(chance=0.3, difficult_pick_fatigue=0.3)},
         lambda recs, game: {"exact", "round"} <= {_fatigue_branch(r, game) for r in recs}),
        ("v1.2", {"game": GameParams(**_NEGATIVE)},
         lambda recs, game: "clamp" in {_fatigue_branch(r, game) for r in recs}),
        ("v1.3", {"trust": TrustParams(severe_loss=1.0),
                  "disruption": DisruptionParams(chance=0.3)},
         lambda recs, game: _forced_at_zero_trust(recs)),
        # Trust climbs back to 1.0 inside a five-turn apology window.
        ("v1.3", {"trust": TrustParams(gain=0.25, severe_loss=0.25, initial_trust=1.0),
                  "apology_duration": 5},
         lambda recs, game: _steady_forced_turn(recs)),
        ("v1.3", {"game": _SATURATED_TIE, "horizon": 300,
                  "trust": TrustParams(initial_trust=0.8)},
         _saturated_at_a_calm_trust),
        # Steady stretches: jumped, or declined for one reason each.
        ("v1.2", {}, _stretch(0)),
        ("v1.2", {"horizon": 400}, _stretch(_TOP)),
        # From trust 0 the leader stays low until the penalty forces high
        # collaboration at fatigue 79.25, inside the band: a stretch jumped
        # into the band would miss that turn.
        ("v1.1", {"horizon": 300,
                  "trust": TrustParams(initial_trust=0.0, initial_fatigue=0.25)},
         _stretch(0, _crosses_edge)),
        ("v1.1", {"game": GameParams(**_ZERO_HIGH_HIGH)},
         _stretch(0, lambda s, game: _jump_taken(s, game) and s[1] == 0.0)),
        ("v1.1", {"game": GameParams(**_NEGATIVE)},
         _stretch(0, lambda s, game: s[1] < 0.0)),
        ("v1.2", {"trust": TrustParams(initial_fatigue=2**-13)},
         _stretch(0, lambda s, game: not _dyadic(s[2]))),
        # 0.2 + 0.3 == 0.5, a dyadic fatigue; the increment 0.3 is not.
        ("v1.1", {"game": GameParams(**_POINT_3_HIGH_HIGH),
                  "trust": TrustParams(initial_trust=1.0, initial_fatigue=0.2)},
         _stretch(0, lambda s, game: _dyadic(s[2]) and not _dyadic(s[1]))),
        # The default increments would admit the jump; the rewards decline it.
        ("v1.2", {"game": GameParams(**_NON_DYADIC_REWARDS)}, _stretch(0)),
        ("v1.1", {**_IN_THE_BAND, "horizon": 79}, _stretch(1, _to_the_edge)),
        ("v1.1", {**_IN_THE_BAND, "horizon": 80}, _stretch(1, _crosses_edge)),
        ("v1.2", {"trust": TrustParams(initial_fatigue=2.0**40 - 8)},
         _stretch(_TOP, lambda s, game: s[2] + s[3] * s[1] >= 2.0**40)),
        # Past 2**41 a double is a multiple of 2**-11, so sums of these
        # increments round: a jump there would round once instead of k times.
        ("v1.2", {"game": GameParams(**_FINE),
                  "trust": TrustParams(initial_fatigue=2.0**41 - 8)},
         _stretch(_TOP, lambda s, game: s[2] + s[3] * s[1] >= 2.0**41)),
    ],
    ids=["initial-2^-12", "below-2^-12", "above-2^-12", "initial-2^-13",
         "non-dyadic-table", "negative-entry-clamp", "forced-from-trust-0",
         "forced-steady-trust",
         "saturated-tie", "jump-calm", "jump-saturated", "jump-declined-band",
         "jump-zero-increment", "jump-declined-negative", "jump-declined-2^-13",
         "jump-declined-non-dyadic-increment", "jump-declined-non-dyadic-reward",
         "jump-band-to-edge",
         "jump-declined-band-edge", "jump-declined-2^40",
         "jump-declined-2^41"],
)
@pytest.mark.parametrize("seed", [3, 11])
def test_fast_paths_match_chained_run_step(variant, kwargs, exercised, seed):
    cfg = cfg_for(variant, seed=seed, **kwargs)
    records = _matches_chained_run_step(cfg)
    assert exercised(records, cfg.game)


def _matches_chained_run_step(cfg):
    """Assert that ``run_shift(cfg)`` equals the chained reference turn for
    turn and in its summary; return its records."""
    state = HumanState(cfg.trust.initial_fatigue, cfg.trust.initial_trust)
    remaining = 0
    stream = RandomStream(cfg.seed)
    records, summary = run_shift(cfg)
    for got in records:
        expected, state, remaining = run_step(state, remaining, stream, cfg, step=got.step)
        assert got == expected, got.step
    assert summary == summarize_shift(records, cfg.horizon)
    return records


@pytest.mark.parametrize("variant", ["v1.2", "v1.3"])
def test_long_shift_matches_chained_run_step(variant):
    # The long-shift benchmark's shape: fatigue far past the threshold, about
    # 100 severe failures, and jumps over steady stretches at the top level.
    cfg = cfg_for(variant, horizon=2000, seed=11)
    records = _matches_chained_run_step(cfg)
    assert len(records) == 2000
    assert records[-1].fatigue_post > 10 * cfg.game.fatigue_threshold
    assert 50 <= sum(r.outcome is SEVERE for r in records) <= 200
    assert _stretch(_TOP)(records, cfg.game)


_PICK = DisruptionEvent.DIFFICULT_PICK


def _picked(record):
    return record.disruption_event is _PICK


def _picked_at(trust):
    """A ``turn`` predicate of ``_stretch``: a difficult pick at ``trust``."""
    return lambda record: _picked(record) and record.trust_pre == trust


def _pick_leaps_past_edge(records, game):
    """A steady difficult pick with a dyadic fatigue whose surcharge alone
    takes the next, undisrupted turn past its level's edge, where the
    leader plays another action pair: the jump gate must refuse it."""
    threshold, edges = game.fatigue_threshold, _edges(game)

    def leaps(rec, nxt):
        edge = edges[_level(rec.fatigue_pre, game)]
        return (_picked(rec) and rec.trust_post == rec.trust_pre and _undisrupted(nxt)
                and _dyadic(rec.fatigue_post) and rec.fatigue_post + edge > threshold
                and not rec.fatigue_post - rec.extra_fatigue + edge > threshold
                and (nxt.cobot_action, nxt.human_action)
                != (rec.cobot_action, rec.human_action))
    return any(map(leaps, records, records[1:]))


def _steady_forced_pick(records, game):
    """A forced turn struck by a difficult pick that keeps trust and is
    followed by an undisrupted turn: an apology decision carries no edge,
    so the loop must not jump from it."""
    return any(
        prev.apology_remaining_post and _picked(rec) and rec.trust_post == rec.trust_pre
        and _undisrupted(nxt)
        for prev, rec, nxt in zip(records, records[1:], records[2:])
    )


def _every_turn_picked(records, game):
    """Every turn a difficult pick, so no jump has a turn to skip, and some
    keep trust, so their decisions carry an edge."""
    return all(map(_picked, records)) and any(r.trust_post == r.trust_pre for r in records)


def _peak_before_the_end(records, game):
    """Fatigue falls after its peak, so the peak is not the final fatigue."""
    return max(r.fatigue_post for r in records) > records[-1].fatigue_post


@pytest.mark.parametrize(
    "variant, kwargs, exercised",
    [
        ("v1.2", {"horizon": 200}, _stretch(_TOP, turn=_picked_at(0.0))),
        ("v1.2", {"horizon": 100, "disruption": DisruptionParams(severe_share=0.1),
                  "trust": TrustParams(initial_trust=1.0)},
         _stretch(0, turn=_picked_at(1.0))),
        # From trust 0 the leader plays low until the penalty forces high
        # collaboration at fatigue 79.25: a pick from 75.25 lands on it.
        ("v1.2", {"horizon": 100,
                  "trust": TrustParams(initial_trust=0.0, initial_fatigue=0.25),
                  "disruption": DisruptionParams(chance=0.1, severe_share=0.0,
                                                 difficult_pick_fatigue=3.0)},
         _pick_leaps_past_edge),
        # round() drops the edge of a pick's non-dyadic fatigue. Sums of 1.0
        # onto fatigues with 12 or fewer decimals happen to equal their
        # rounded values here; onto a 13th decimal they do not.
        ("v1.2", {"horizon": 100, "disruption": DisruptionParams(
            severe_share=0.1, difficult_pick_fatigue=0.3)},
         _stretch(0, lambda s, game: not _dyadic(s[2]), turn=_picked)),
        ("v1.2", {"horizon": 400, "disruption": DisruptionParams(
            severe_share=0.1, difficult_pick_fatigue=2**-13)},
         _stretch(0, lambda s, game: not _dyadic(s[2]), turn=_picked)),
        ("v1.3", {"trust": TrustParams(gain=0.25, severe_loss=0.25, initial_trust=1.0),
                  "disruption": DisruptionParams(chance=0.3), "apology_duration": 5},
         _steady_forced_pick),
        ("v1.3", {"disruption": DisruptionParams(chance=1.0, severe_share=0.0)},
         _every_turn_picked),
        # (high, normal) lowers fatigue by 1, so the shift loop tests the peak
        # on every turn.
        ("v1.2", {"game": GameParams(**_NEGATIVE), "trust": TrustParams(initial_trust=1.0)},
         _peak_before_the_end),
    ],
    ids=["pick-trust-0", "pick-trust-1", "surcharge-past-edge", "surcharge-0.3",
         "surcharge-2^-13", "pick-on-apology-turn", "every-turn-a-pick", "negative-entry-peak"],
)
def test_jumps_from_difficult_picks_match_chained_run_step(variant, kwargs, exercised):
    # A difficult pick adds its surcharge to its own turn's fatigue alone,
    # so the shift loop may jump from it, unless the gate refuses. Each case
    # is exercised by one seed at least.
    cfgs = [cfg_for(variant, seed=seed, **kwargs) for seed in (3, 11)]
    assert any([exercised(_matches_chained_run_step(cfg), cfg.game) for cfg in cfgs])
    _assert_paired_equals_run_shift(paired_cfgs(("v1.2", "v1.3"), **kwargs), 12, 1)


def test_step_record_adds_nothing_to_its_dataclass_init():
    # _simulate fills each record's slots without calling the class, so code
    # run by a __post_init__, a custom __init__ or __new__ would be skipped.
    assert not hasattr(StepRecord, "__post_init__")
    assert StepRecord.__new__ is object.__new__
    init = StepRecord.__init__
    assert init.__code__.co_filename == "<string>"  # generated by dataclass
    assert init.__qualname__ == "StepRecord.__init__"
    names = [f.name for f in fields(StepRecord)]
    assert list(inspect.signature(init).parameters) == ["self", *names]


@pytest.mark.parametrize(
    "table, trust, level, trust_post, steady",
    [
        ({}, 1.0, 0, 1.0, True),  # (high, high) keeps trust at its maximum
        ({}, 0.0, 0, 0.0, True),  # (low, normal): the spiral's fixed point
        ({}, 0.5, 0, 0.55, False),
        # The countdown, not the decision, fixes the next turn's leader.
        ({}, 1.0, engine._APOLOGY, 1.0, False),
        (_NEGATIVE, 1.0, 0, 1.0, False),  # (high, normal) lowers fatigue by 1
        (_POINT_3_HIGH_HIGH, 1.0, 0, 1.0, False),
        # (high, normal) keeps trust, but k * 0.1 is not k additions of 0.1.
        (_NON_DYADIC_REWARDS, 1.0, 0, 1.0, False),
    ],
    ids=["trust-1", "trust-0", "trust-moves", "apology", "negative-increment",
         "non-dyadic-increment", "non-dyadic-reward"],
)
def test_decision_carries_its_fast_forward_edge(table, trust, level, trust_post, steady):
    game = GameParams(**table)
    policy = _StagePolicy(cfg_for("v1.1", game=game))
    decision = policy.leader(trust, 0.0, level)
    assert len(decision) == 9
    assert decision[6] == trust_post
    assert decision[-1] == (policy.edges[0] if steady else None)


_INCREMENTS = st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0, 2.5, 2**-12, 2**-13, 0.3, -0.5))


@settings(max_examples=300, deadline=None)
@given(
    increments=st.tuples(*[_INCREMENTS | st.floats(-10.0, 10.0)] * 4),
    rewards=st.sampled_from([(1.0, 2.0), (1, 2), (0.1, 0.3), (0.0, 2**-12), (1.0, 2.0**28)]),
    horizon=st.sampled_from([1, 50, 4095, 4096]),
    variant=st.sampled_from(list(ModelVariant)),
)
def test_policy_constants_are_read_from_the_stage_game(increments, rewards, horizon, variant):
    # _StagePolicy reads its per-pair constants from StageGame's options and
    # fixes each pair's steady flag once; both must be what the game
    # functions and the per-decision steady rule give.
    game = GameParams(**dict(zip(_FINE, increments)), reward_normal=rewards[0],
                      reward_high=rewards[1], penalty_weight=max(100.0, 2 * rewards[1]))
    cfg = ModelConfig(variant=variant, horizon=horizon, game=game)
    policy = _StagePolicy(cfg)
    exact = (all((r * 2.0**STATE_DECIMALS).is_integer() for r in rewards)
             and horizon * rewards[1] < 2.0**40)
    assert policy.exact is exact
    expected = {}
    for (cobot, human), pair in ACTION_PAIRS.items():
        inc = fatigue_increment(pair, game)
        constants = (cobot, human, human_reward(human, game), inc,
                     fatigue_increment(ACTION_PAIRS[LOW_C, human], game),
                     classify_interaction(variant.trust_rule, pair, False, game))
        steady = exact and inc >= 0.0 and (inc * 2.0**STATE_DECIMALS).is_integer()
        expected[id(pair)] = (constants, steady)
    # repr tells -0.0 from 0.0 and an int reward from a float one.
    assert repr(policy.pairs) == repr(expected)
    incs = sorted((fatigue_increment(pair, game) for pair in ACTION_PAIRS.values()),
                  reverse=True)
    assert repr(policy.edges) == repr((*incs, -math.inf))


# ---------------------------------------------------------------- recovery


def synthetic_records(trust_pre_list, trust_post_list, severe_steps):
    records = []
    for i, (pre, post) in enumerate(zip(trust_pre_list, trust_post_list), start=1):
        records.append(
            StepRecord(
                step=i,
                trust_pre=pre,
                fatigue_pre=0.0,
                cobot_action=HIGH_C,
                human_action=NORMAL,
                disruption_event=DisruptionEvent.COBOT_FAILURE
                if i in severe_steps
                else DisruptionEvent.NONE,
                outcome=SEVERE if i in severe_steps else InteractionOutcome.SUCCESS,
                items_picked=1.0,
                extra_fatigue=0.0,
                trust_post=post,
                fatigue_post=1.0,
                apology_remaining_post=0,
            )
        )
    return records


def test_recovery_time_arithmetic():
    # pre 0.65, drop to 0.15, then +0.05 per turn: back at 0.65 after 10 steps
    posts = [0.15 + 0.05 * k for k in range(12)]
    pres = [0.65] + posts[:-1]
    records = synthetic_records(pres, posts, severe_steps={1})
    assert recovery_time(records, 1, horizon=12) == 10


def test_recovery_censored_when_trust_never_returns():
    posts = [0.15 - 0.01 * k for k in range(10)]
    pres = [0.65] + posts[:-1]
    records = synthetic_records(pres, posts, severe_steps={1})
    assert recovery_time(records, 1, horizon=10) is None


def test_recovery_censored_at_final_turn():
    records = synthetic_records([0.55], [0.05], severe_steps={1})
    assert recovery_time(records, 1, horizon=1) is None


def test_recovery_time_rejects_bad_turns():
    records = synthetic_records([0.5, 0.55], [0.55, 0.6], severe_steps=set())
    with pytest.raises(ValueError):
        recovery_time(records, 1, horizon=2)  # not severe
    with pytest.raises(ValueError):
        recovery_time(records, 3, horizon=2)  # out of range


def test_summary_collects_recoveries():
    _, summary = run_shift(cfg_for("v1.3", seed=12))
    assert summary.severe_failure_turns == [t for t, _ in summary.recovery_times]
    for turn, steps in summary.recovery_times:
        assert steps is None or steps >= 1
    # The two later failures are regained while the two earlier ones stay
    # pending to the end, so recoveries are not met in the order of failure.
    cfg = cfg_for("v1.2", seed=7)
    records, summary = run_shift(cfg)
    assert summary.recovery_times == [(26, None), (30, None), (40, 1), (48, 1)]
    assert summary == summarize_shift(records, cfg.horizon)


# ---------------------------------------------------------------- ensembles


def _paired_shifts(cfgs, n_seeds, base_seed):
    """Each config's shift summaries, in seed order, as run_paired sees them."""
    summaries = [[] for _ in cfgs]
    for block in engine._iter_paired(cfgs, n_seeds, base_seed):
        for column, shifts in zip(summaries, block):
            for records, *kpis in shifts:
                assert records is None
                column.append(ShiftSummary(*kpis))
    return summaries


def _assert_first_failures(ens, shifts):
    assert ens.first_failures == [(s.recovery_times[:1] or [None])[0] for s in shifts]


def _as_paired(summary):
    """``summary`` as ``_paired_shifts`` sees it: a shift run without
    records keeps only its first severe failure in its ledger."""
    return replace(summary, recovery_times=summary.recovery_times[:1])


def test_paired_shifts_keep_only_their_first_severe_failure():
    # Seeds 7 and 40 have three or more severe failures in both variants: at
    # v1.2 seed 7 the first is never regained, and at v1.3 seed 40 it is
    # regained only after the second struck. A shift run without records
    # keeps the first alone.
    cfgs = paired_cfgs(("v1.2", "v1.3"))
    seeds = range(1, 41)
    paired = run_paired(cfgs, n_seeds=len(seeds), base_seed=1)
    blocks = list(engine._iter_paired(cfgs, len(seeds), 1))
    assert len(blocks) == 1
    for cfg, ens, shifts in zip(cfgs, paired, blocks[0]):
        full = [run_shift(replace(cfg, seed=s))[1].recovery_times for s in seeds]
        assert all(len(full[s - 1]) >= 3 for s in (7, 40))
        assert [ledger for *_, ledger in shifts] == [times[:1] for times in full]
        assert ens.first_failures == [times[0] if times else None for times in full]


def test_deterministic_ensemble_is_constant():
    cfg = cfg_for("v1.1")
    ens = run_ensemble(cfg, n_seeds=5, base_seed=17)
    [summaries] = _paired_shifts([cfg], 5, 17)
    assert all(s == summaries[0] for s in summaries)
    assert ens.mean_productivity == 98.0
    assert ens.runs_with_severe == 0
    assert ens.median_first_recovery is None


def test_singleton_ensemble_matches_single_run():
    cfg = cfg_for("v1.2")
    _, summary = run_shift(replace(cfg, seed=42))
    ens = run_ensemble(cfg, n_seeds=1, base_seed=42)
    assert _paired_shifts([cfg], 1, 42) == [[_as_paired(summary)]]
    _assert_first_failures(ens, [summary])
    assert ens.mean_productivity == summary.productivity
    assert ens.median_final_fatigue == summary.final_fatigue


def test_severe_failure_prevalence():
    # P(at least one severe in 50 turns) = 1 - (1 - 0.05)^50 ~ 0.923
    ens = run_ensemble(cfg_for("v1.2"), n_seeds=1000, base_seed=1)
    fraction = ens.runs_with_severe / ens.n_seeds
    assert abs(fraction - (1.0 - 0.95**50)) <= 0.03


def test_productivity_accounting_identity():
    for variant in ("v1.0", "v1.1", "v1.2", "v1.3"):
        for seed in (0, 5, 99):
            cfg = cfg_for(variant, seed=seed)
            records, summary = run_shift(cfg)
            high_turns = sum(1 for r in records if r.human_action is HIGH_E)
            expected = cfg.horizon * cfg.game.reward_normal + high_turns * (
                cfg.game.reward_high - cfg.game.reward_normal
            )
            assert summary.productivity == pytest.approx(expected)


def test_trust_and_fatigue_bounds_along_stochastic_runs():
    for seed in range(20):
        records, _ = run_shift(cfg_for("v1.3", seed=seed))
        for r in records:
            assert 0.0 <= r.trust_pre <= 1.0
            assert 0.0 <= r.trust_post <= 1.0
            assert r.fatigue_pre >= 0.0
            assert r.fatigue_post >= 0.0


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(horizon=0)
    with pytest.raises(ValueError):
        ModelConfig(seed=-1)
    with pytest.raises(ValueError):
        ModelConfig(seed=2**64)
    with pytest.raises(ValueError):
        ModelConfig(apology_duration=0)


@pytest.mark.parametrize("name", ["horizon", "seed", "apology_duration"])
@pytest.mark.parametrize("value", [2.5, 50.0, True, "5"])
def test_model_config_rejects_non_integer_counts(name, value):
    # apology_duration=2.5 once ran and recorded -7.5 apology turns left.
    with pytest.raises(ValueError, match=rf"^{name} must be an integer \(got {value!r}\)$"):
        ModelConfig(variant=ModelVariant.V1_3, **{name: value})


def test_model_config_rejects_a_variant_string():
    # run_shift of it once ended in an AttributeError on str.
    with pytest.raises(ValueError, match=r"^variant must be a ModelVariant \(got 'v1\.2'\)$"):
        ModelConfig(variant="v1.2")


def test_initial_state_comes_from_trust_params():
    cfg = cfg_for("v1.1", trust=TrustParams(initial_trust=0.8, initial_fatigue=3.0))
    records, _ = run_shift(cfg)
    assert records[0].trust_pre == 0.8
    assert records[0].fatigue_pre == 3.0


def test_run_ensemble_rejects_zero_seeds():
    with pytest.raises(ValueError):
        run_ensemble(cfg_for("v1.2"), n_seeds=0)


def test_run_ensemble_rejects_seeds_outside_64_bits():
    # the last seed must not wrap past 2**64 - 1
    with pytest.raises(ValueError):
        run_ensemble(cfg_for("v1.2"), n_seeds=2, base_seed=-1)
    with pytest.raises(ValueError):
        run_ensemble(cfg_for("v1.2"), n_seeds=2, base_seed=2**64 - 1)


def _chained_records(cfg):
    """The per-turn reference's records, chained from cfg's seed."""
    state = HumanState(cfg.trust.initial_fatigue, cfg.trust.initial_trust)
    remaining = 0
    stream = RandomStream(cfg.seed)
    records = []
    for step in range(1, cfg.horizon + 1):
        record, state, remaining = run_step(state, remaining, stream, cfg, step=step)
        records.append(record)
    return records


@pytest.mark.parametrize("variant", ["v1.0", "v1.1", "v1.2", "v1.3"])
def test_jumped_records_hold_the_post_turn_trust(variant):
    # From trust -0.0, turn 1's update gives 0.0, which == compares equal to
    # the -0.0 that jumped turns held; repr tells them apart.
    cfg = cfg_for(variant, seed=3, horizon=60, trust=TrustParams(initial_trust=-0.0))
    records, _ = run_shift(cfg)
    assert repr(records) == repr(_chained_records(cfg))


@pytest.mark.parametrize("variant", ["v1.2", "v1.3"])
@pytest.mark.parametrize(
    "kwargs, exact",
    [
        ({"game": GameParams(**_FINE)}, True),
        ({"game": GameParams(**{**_FINE, "fatigue_normal_high": 0.5 + 2**-13})}, False),
        ({"disruption": DisruptionParams(difficult_pick_fatigue=0.3)}, False),
        # Every term -0.0 and every turn a pick: turn 1's sum is -0.0, which
        # the clamp turns into 0.0.
        ({"game": GameParams(**dict.fromkeys(_FINE, -0.0)),
          "trust": TrustParams(initial_fatigue=-0.0),
          "disruption": DisruptionParams(chance=1.0, severe_share=0.0,
                                         difficult_pick_fatigue=-0.0)}, False),
        # Sums past engine._EXACT = 2**40, where a double's spacing is 2**-12,
        # past 2**41, where it is 2**-11 and sums round, and past 2**1012,
        # where fatigue * 2**12 overflows to inf.
        ({"game": GameParams(**_FINE), "trust": TrustParams(initial_fatigue=2.0**40 - 8)},
         True),
        ({"game": GameParams(**_FINE), "trust": TrustParams(initial_fatigue=2.0**41 - 64)},
         True),
        ({"game": GameParams(**dict.fromkeys(_FINE, 2.0**1011))}, True),
        ({"trust": TrustParams(initial_fatigue=2.0**1012)}, False),
    ],
    ids=["2^-12", "one-2^-13", "surcharge-0.3", "all--0.0", "past-2^40", "past-2^41",
         "past-2^1012", "from-2^1012"],
)
def test_exact_fatigue_skips_only_identity_clamps_and_rounds(variant, kwargs, exact):
    # While _exact_fatigue holds, the shift loop neither clamps nor rounds a
    # fatigue; the reference does both on every turn. Past 2**40 every
    # double is a multiple of 2**-12, so the flag needs no horizon bound.
    cfg = cfg_for(variant, seed=3, horizon=300, **kwargs)
    assert engine._exact_fatigue(cfg, _StagePolicy(cfg).edges) is exact
    records, summary = run_shift(cfg)
    expected = _chained_records(cfg)
    assert [*map(repr, records)] == [*map(repr, expected)]
    assert repr(summary) == repr(summarize_shift(expected, cfg.horizon))


def _chained_summary(cfg):
    """summarize_shift over the per-turn reference, chained from cfg's seed."""
    return summarize_shift(_chained_records(cfg), cfg.horizon)


@pytest.mark.parametrize("base_seed", [7, 2**64 - 30])
def test_run_paired_matches_chained_run_step_per_seed(base_seed):
    # v1.1 consumes no draws while v1.2 and v1.3 share each seed's schedule.
    cfgs = paired_cfgs(("v1.2", "v1.3", "v1.1"))
    paired = run_paired(cfgs, n_seeds=30, base_seed=base_seed)
    shifts = _paired_shifts(cfgs, 30, base_seed)
    assert len(paired) == len(cfgs)
    for cfg, ens, summaries in zip(cfgs, paired, shifts):
        seeds = range(base_seed, base_seed + 30)
        assert summaries == [_as_paired(_chained_summary(replace(cfg, seed=s))) for s in seeds]
        assert (ens.n_seeds, ens.base_seed) == (30, base_seed)
        assert ens == run_ensemble(cfg, n_seeds=30, base_seed=base_seed)
        _assert_first_failures(ens, summaries)
    assert any(s.recovery_times for s in shifts[0])


_LATTICE_INCREMENTS = (0.0, 0.25, 0.5, 1.0, 2.5, 3.0, 0.3, -0.5)


@st.composite
def dyadic_lattice_params(draw):
    """ModelConfig fields, all variants' own, from a mostly dyadic lattice:
    multiples of 2**-12 let the shift loop jump over steady stretches, and
    0.3, -0.5, 2**-13 and 2**40 - 8 make it decline them. Initial fatigues
    29.75 and 79.5 start inside the band of thresholds 30 and 80."""
    pick = lambda *values: draw(st.sampled_from(values))  # noqa: E731
    fatigue = {  # drawn first, effort-major, as the fields are declared
        "fatigue_normal_low": pick(*_LATTICE_INCREMENTS),
        "fatigue_normal_high": pick(*_LATTICE_INCREMENTS),
        "fatigue_high_low": pick(*_LATTICE_INCREMENTS),
        "fatigue_high_high": pick(*_LATTICE_INCREMENTS),
    }
    return {
        "horizon": draw(st.integers(1, 300)),
        "seed": draw(st.integers(0, 2**64 - 2)),
        "game": GameParams(
            **fatigue,
            fatigue_threshold=pick(2.0, 10.0, 30.0, 80.0, 80.3, 300.0),
            cobot_tiebreak_trust=pick(0.0, 0.5, 0.75, 1.0),
        ),
        "trust": TrustParams(
            gain=pick(0.05, 0.125, 0.25),
            severe_loss=pick(0.25, 0.5, 1.0),
            initial_trust=pick(0.0, 0.5, 0.8, 1.0),
            initial_fatigue=pick(0.0, 2**-13, 2**-12, 1.5, 29.75, 79.0, 79.5, 2.0**40 - 8),
        ),
        "disruption": DisruptionParams(
            chance=pick(0.0, 0.05, 0.1, 0.3),
            difficult_pick_fatigue=pick(0.0, 0.5, 0.3, 5.0),
        ),
        "apology_duration": draw(st.integers(1, 5)),
    }


@settings(max_examples=40, deadline=None)
@given(dyadic_lattice_params())
def test_shift_loop_is_exact_on_a_dyadic_lattice(params):
    # Random uniform configs are never multiples of 2**-12, so the fuzz
    # sweep of criterion 6 never jumps a steady stretch; this lattice does.
    cfgs = [ModelConfig(variant=v, **params) for v in ModelVariant]
    for cfg in cfgs:
        records = _chained_records(cfg)
        assert run_shift(cfg) == (records, summarize_shift(records, cfg.horizon))
    paired = run_paired(cfgs, n_seeds=2, base_seed=params["seed"])
    for cfg, ens, summaries in zip(cfgs, paired, _paired_shifts(cfgs, 2, params["seed"])):
        assert summaries == [
            _as_paired(run_shift(replace(cfg, seed=cfg.seed + i))[1]) for i in range(2)
        ]
        _assert_first_failures(ens, summaries)


def _count_policies(monkeypatch):
    """The config of each ``_StagePolicy`` made from now on."""
    made = []
    init = _StagePolicy.__init__

    def counting(policy, cfg):
        made.append(cfg)
        init(policy, cfg)

    monkeypatch.setattr(_StagePolicy, "__init__", counting)
    return made


def test_run_paired_shares_one_memo_per_parameter_set(monkeypatch):
    solves = []
    solve = StageGame.solve

    def counting(game, trust, fatigue):
        solves.append((trust, fatigue))
        return solve(game, trust, fatigue)

    monkeypatch.setattr(StageGame, "solve", counting)
    v12, v13 = paired_cfgs(("v1.2", "v1.3"))
    cfgs = [v12, v13, replace(v12, trust=TrustParams(gain=0.1))]
    alone = [run_ensemble(cfg, n_seeds=40, base_seed=5) for cfg in cfgs]
    lone_solves = len(solves)
    solves.clear()
    made = _count_policies(monkeypatch)
    assert run_paired(cfgs, n_seeds=40, base_seed=5) == alone
    # v1.2 and v1.3 share one memo; the third config needs its own.
    assert made == [v12, cfgs[2]]
    assert 0 < len(solves) < lone_solves


def test_run_paired_shares_policies_by_parameter_objects(monkeypatch):
    made = _count_policies(monkeypatch)
    # Equal in value, but built apart: a policy each.
    run_paired([cfg_for("v1.2"), cfg_for("v1.3")], n_seeds=2, base_seed=1)
    assert len(made) == 2
    made.clear()
    # v1.0's naive trust rule needs its own policy.
    run_paired(paired_cfgs(("v1.1", "v1.2", "v1.3", "v1.0")), n_seeds=2, base_seed=1)
    assert [cfg.variant.value for cfg in made] == ["v1.1", "v1.0"]


def test_compare_makes_one_stage_policy(monkeypatch):
    # v1.2 and v1.3 of every compare, table2 and paired-ensemble op share one.
    made = _count_policies(monkeypatch)
    cli.format_comparison(25, 1)
    assert len(made) == 1


def test_equal_parameters_of_other_types_share_no_memo():
    # Integer rewards sum to an integer productivity, so a memo shared with
    # the default float rewards would print 98 for 98.0.
    ints = cfg_for("v1.1", game=GameParams(reward_normal=1, reward_high=2))
    cfgs = [ints, cfg_for("v1.1")]
    assert ints.game == cfgs[1].game
    paired = run_paired(cfgs, n_seeds=3, base_seed=1)
    for cfg, ens in zip(cfgs, paired):
        assert emit_summary_json(ens) == emit_summary_json(run_ensemble(cfg, 3, 1))
    # The median of integers stays one, so the two reports differ.
    assert emit_summary_json(paired[0]) != emit_summary_json(paired[1])


class _Tracked(list):
    """A list that takes weak references, which a plain one does not."""


def test_no_shift_outlives_run_paired(monkeypatch):
    calls, results = 0, []
    simulate = engine._simulate

    def tracking(*args, **kwargs):
        # Each shift's recovery ledger, and the list of the call's shifts,
        # become copies that weak references can watch.
        nonlocal calls
        calls += 1
        shifts = _Tracked(
            (*kpis, _Tracked(ledger)) for *kpis, ledger in simulate(*args, **kwargs)
        )
        results.append(weakref.ref(shifts))
        results.extend(weakref.ref(ledger) for *_, ledger in shifts)
        return shifts

    monkeypatch.setattr(engine, "_simulate", tracking)
    # 2000 turns make blocks of 8 seeds: 30 seeds take 4 blocks.
    cfgs = paired_cfgs(("v1.2", "v1.3"), horizon=2000)
    paired = run_paired(cfgs, n_seeds=30, base_seed=1)
    gc.collect()
    assert [ens.n_seeds for ens in paired] == [30, 30]
    # The opening's one shift, then 4 blocks of two configs.
    assert engine._BLOCK_TURNS // 2000 == 8
    assert calls == 1 + 2 * 4
    assert len(results) == calls + 1 + 2 * 30
    assert [ref for ref in results if ref() is not None] == []


@pytest.mark.parametrize("base_seed", [1, 2**64 - 19])
def test_run_paired_block_edges(base_seed):
    # 2000 turns make blocks of 8 seeds: 19 seeds fill two and part of a
    # third, and the second range's last block ends at seed 2**64 - 1.
    cfgs = paired_cfgs(("v1.2", "v1.3"), horizon=2000)
    assert engine._BLOCK_TURNS // 2000 == 8
    _assert_paired_equals_run_shift(cfgs, 19, base_seed)


def test_run_paired_draws_one_schedule_per_block_at_max_horizon(monkeypatch):
    # A block holds at least one seed, so at MAX_HORIZON it holds exactly
    # one: one schedule is drawn before each _simulate call of a block.
    calls = []
    draws, simulate = ScheduleDrawer.draws, engine._simulate

    def drawing(drawer, start, stop):
        calls.append(("draws", stop - start))
        return draws(drawer, start, stop)

    def simulating(cfg, schedules, policy, keep_records):
        calls.append(len(schedules))
        return simulate(cfg, schedules, policy, keep_records)

    monkeypatch.setattr(ScheduleDrawer, "draws", drawing)
    monkeypatch.setattr(engine, "_simulate", simulating)
    dp = DisruptionParams(chance=0.0)
    cfg = cfg_for("v1.2", horizon=engine.MAX_HORIZON, disruption=dp)
    assert run_ensemble(cfg, n_seeds=3, base_seed=5).n_seeds == 3
    # The opening's one event-free schedule, then one per seed.
    assert calls == [1] + [("draws", 1), 1] * 3


@pytest.mark.parametrize("base_seed", [1, 2**64 - 19])
def test_deterministic_configs_match_run_shift_across_blocks(base_seed):
    # 2000 turns make blocks of 8 seeds. v1.0 and v1.1 run one shift per
    # block, which stands for each of its seeds; v1.2 runs each seed's own.
    cfgs = paired_cfgs(("v1.0", "v1.2", "v1.1"), horizon=2000)
    assert engine._BLOCK_TURNS // 2000 == 8
    _assert_paired_equals_run_shift(cfgs, 19, base_seed)


def test_deterministic_config_runs_once_per_block(monkeypatch):
    calls = []
    simulate = engine._simulate

    def simulating(cfg, schedules, policy, keep_records):
        calls.append((cfg.variant.value, len(schedules)))
        return simulate(cfg, schedules, policy, keep_records)

    monkeypatch.setattr(engine, "_simulate", simulating)
    cfgs = paired_cfgs(("v1.1", "v1.3"), horizon=2000)
    paired = run_paired(cfgs, n_seeds=19, base_seed=1)
    assert [ens.n_seeds for ens in paired] == [19, 19]
    # The shared opening's one shift, then blocks of 8, 8 and 3 seeds: one
    # v1.1 shift per block, and one v1.3 shift per seed.
    assert calls == [("v1.1", 1)] + [("v1.1", 1), ("v1.3", 8)] * 2 + [
        ("v1.1", 1), ("v1.3", 3)
    ]


def test_run_paired_opens_only_for_more_than_one_shift(monkeypatch):
    openings = []
    open_policy = _StagePolicy.open

    def counting(policy):
        openings.append(policy.cfg.variant.value)
        return open_policy(policy)

    monkeypatch.setattr(_StagePolicy, "open", counting)
    for variant in ("v1.1", "v1.3"):
        run_ensemble(cfg_for(variant), n_seeds=1, base_seed=3)
    # A deterministic config runs one shift per block, and 50-turn blocks
    # hold 327 seeds.
    size = engine._BLOCK_TURNS // 50
    assert size == 327
    run_ensemble(cfg_for("v1.1"), n_seeds=size, base_seed=3)
    assert openings == []
    run_ensemble(cfg_for("v1.1"), n_seeds=size + 1, base_seed=3)
    assert openings == ["v1.1"]
    # v1.2 and v1.3 share one opening.
    run_paired(paired_cfgs(("v1.2", "v1.3")), n_seeds=2, base_seed=3)
    assert openings == ["v1.1", "v1.2"]
    # v1.1 alone would open nothing over two seeds, but v1.2 opens the
    # policy they share.
    run_paired(paired_cfgs(("v1.1", "v1.2")), n_seeds=2, base_seed=3)
    assert openings == ["v1.1", "v1.2", "v1.1"]


def _first_event_turns(cfg, n_seeds, base_seed):
    """Each seed's first event turn, or None for a schedule without events."""
    return [
        (schedule(seed, cfg.horizon, cfg.disruption) or [(None, False)])[0][0]
        for seed in range(base_seed, base_seed + n_seeds)
    ]


def _assert_paired_equals_run_shift(cfgs, n_seeds, base_seed):
    paired = run_paired(cfgs, n_seeds=n_seeds, base_seed=base_seed)
    for cfg, ens, summaries in zip(cfgs, paired, _paired_shifts(cfgs, n_seeds, base_seed)):
        assert summaries == [
            _as_paired(run_shift(replace(cfg, seed=base_seed + i))[1]) for i in range(n_seeds)
        ]
        _assert_first_failures(ens, summaries)


@pytest.mark.parametrize("base_seed, n_seeds", [(120, 3), (18, 4)])
def test_opening_serves_a_first_event_at_turn_one(base_seed, n_seeds):
    # Seeds 120 and 122 open on a cobot failure, 18 and 21 on a difficult
    # pick; each of those shifts starts from the initial state.
    cfgs = paired_cfgs(("v1.2", "v1.3", "v1.1"))
    firsts = _first_event_turns(cfgs[0], n_seeds, base_seed)
    assert firsts.count(1) == 2
    _assert_paired_equals_run_shift(cfgs, n_seeds, base_seed)


def test_opening_serves_first_events_past_its_last_turn():
    # At this chance some first events fall past the opening's
    # engine._OPENING turns, and some shifts see no event at all, so they
    # start at its last turn and run on one turn at a time.
    dp = DisruptionParams(chance=0.002)
    cfgs = paired_cfgs(("v1.2", "v1.3", "v1.1"), horizon=1000, disruption=dp)
    firsts = _first_event_turns(cfgs[0], 20, 1)
    assert None in firsts
    assert any(t is not None and t > engine._OPENING for t in firsts)
    assert any(t is not None and t <= engine._OPENING for t in firsts)
    _assert_paired_equals_run_shift(cfgs, 20, 1)


@pytest.mark.parametrize(
    "cfgs, n_seeds",
    [
        # Past the opening's last turn, these run on one turn at a time.
        (paired_cfgs(("v1.2", "v1.3"), horizon=300, disruption=DisruptionParams(chance=0.0)),
         3),
        # Read off the opening whole. A deterministic config's policy opens
        # only over more than one block: 200-turn blocks hold 81 seeds.
        ([cfg_for("v1.0", horizon=200)], 82),
        ([cfg_for("v1.1", horizon=200)], 82),
    ],
    ids=["chance-0-horizon-300", "v1.0", "v1.1"],
)
def test_opening_serves_shifts_without_events(cfgs, n_seeds, monkeypatch):
    openings = []
    open_policy = _StagePolicy.open
    monkeypatch.setattr(_StagePolicy, "open", lambda policy: openings.append(open_policy(policy)))
    _assert_paired_equals_run_shift(cfgs, n_seeds, 1)
    assert openings


def test_open_builds_no_step_record(monkeypatch):
    # A record class without slots makes any field store raise, so a shift
    # that builds records fails, and open() must still succeed.
    class Unfillable:
        __slots__ = ()

    monkeypatch.setattr(engine, "StepRecord", Unfillable)
    cfg = cfg_for("v1.2")
    with pytest.raises(AttributeError):
        run_shift(cfg)
    policy = _StagePolicy(cfg)
    policy.open()
    assert len(policy.opening[0]) == cfg.horizon + 1


@pytest.mark.parametrize(
    "cfg",
    [
        # A trust ramp, then a fast-forward to the horizon.
        cfg_for("v1.2"),
        cfg_for("v1.0"),
        # Capped at engine._OPENING turns.
        cfg_for("v1.2", horizon=300),
        # Rewards that keep no exact total, so nothing is jumped.
        cfg_for("v1.2", game=GameParams(reward_normal=0.1, reward_high=0.3)),
        # Fatigues that are no multiple of 2**-STATE_DECIMALS take round().
        cfg_for("v1.2", trust=TrustParams(initial_fatigue=0.1)),
        # The fatigue threshold is crossed inside the opening.
        cfg_for("v1.2", trust=TrustParams(initial_fatigue=78.0)),
        cfg_for("v1.2", trust=TrustParams(initial_trust=0.0)),
        # Turn 1 turns -0.0 into 0.0, which the jumped turns hold.
        cfg_for("v1.1", trust=TrustParams(initial_trust=-0.0)),
    ],
    ids=["v1.2", "v1.0", "horizon-300", "non-dyadic-reward", "fatigue-0.1",
         "fatigue-78", "trust-0", "trust--0.0"],
)
def test_opening_equals_the_event_free_shift(cfg):
    records, _ = run_shift(replace(cfg, disruption=DisruptionParams(chance=0.0)))
    records = records[:engine._OPENING]
    assert len(records) == min(cfg.horizon, engine._OPENING)
    fatigues = [r.fatigue_post for r in records]
    start = cfg.trust.initial_trust, cfg.trust.initial_fatigue, -math.inf
    states = [start, *zip([r.trust_post for r in records], fatigues, accumulate(fatigues, max))]
    totals = [*accumulate((r.items_picked for r in records), initial=0)]
    policy = _StagePolicy(cfg)
    policy.open()
    assert repr(policy.opening) == repr((states, totals))


def test_severe_trust_is_computed_once_per_trust(monkeypatch):
    # Memo misses at one trust on different levels share its severe trust.
    severe = []
    update = engine.update_trust

    def counting(trust, outcome, tp):
        if outcome is InteractionOutcome.SEVERE_FAILURE:
            severe.append(trust)
        return update(trust, outcome, tp)

    monkeypatch.setattr(engine, "update_trust", counting)
    run_paired(paired_cfgs(("v1.2", "v1.3")), n_seeds=25, base_seed=1001)
    assert severe
    assert len(severe) == len(set(severe))


@pytest.mark.parametrize("variant", ["v1.1", "v1.3"])
@pytest.mark.parametrize("blocks", [1, 2], ids=["one-seed", "two-blocks"])
@pytest.mark.parametrize(
    "rewards, horizon, exact",
    [
        ((1.0, 2.0), 50, True),
        # Integer rewards: the fold of ints is an int, and so is the total.
        ((1, 2), 50, True),
        ((0.1, 0.3), 50, False),
        # horizon * reward_high just below 2**40, and at it.
        ((1.0, 2.0**28), 4095, True),
        ((1.0, 2.0**28), 4096, False),
    ],
    ids=["dyadic", "int", "non-dyadic", "below-bound", "at-bound"],
)
def test_productivity_equals_sum_of_items(variant, blocks, rewards, horizon, exact):
    # The shift loop keeps a running total of the items, so it must give
    # their left-to-right fold over the records on every Python version.
    # The policy's exact rule gates the jump, whose k * items must equal k
    # additions. More than one block opens the policy, so its shifts start
    # from the opening's totals.
    reward_normal, reward_high = rewards
    game = GameParams(reward_normal=reward_normal, reward_high=reward_high,
                      penalty_weight=max(100.0, 2 * reward_high))
    cfg = cfg_for(variant, horizon=horizon, game=game)
    assert _StagePolicy(cfg).exact is exact
    n_seeds = 1 if blocks == 1 else engine._BLOCK_TURNS // horizon + 1
    expected = []
    for seed in range(5, 5 + n_seeds):
        records, summary = run_shift(replace(cfg, seed=seed))
        expected.append(repr(reduce(add, (r.items_picked for r in records), 0)))
        assert repr(summary.productivity) == expected[-1]
    [shifts] = _paired_shifts([cfg], n_seeds, 5)
    assert [repr(s.productivity) for s in shifts] == expected


@pytest.mark.parametrize(
    "cfgs, n_seeds, base_seed",
    [
        ([cfg_for("v1.2"), cfg_for("v1.3", horizon=60)], 2, 1),
        ([cfg_for("v1.2"), cfg_for("v1.3", disruption=DisruptionParams(chance=0.2))], 2, 1),
        ([cfg_for("v1.1"), cfg_for("v1.2", horizon=49)], 2, 1),
        ([cfg_for("v1.2"), cfg_for("v1.3")], 2, -1),
        ([cfg_for("v1.2"), cfg_for("v1.3")], 2, 2**64 - 1),
        ([], 2, 1),
        ([cfg_for("v1.2")], True, 1),
        ([cfg_for("v1.2")], 2.0, 1),
        ([cfg_for("v1.2")], 2, True),
        ([cfg_for("v1.2")], 2, 1.0),
    ],
    ids=["horizon", "disruption", "deterministic-horizon", "negative-seed",
         "seed-past-64-bits", "no-configs", "bool-n-seeds", "float-n-seeds",
         "bool-base-seed", "float-base-seed"],
)
def test_run_paired_rejects_unpairable_input(cfgs, n_seeds, base_seed):
    with pytest.raises(ValueError):
        run_paired(cfgs, n_seeds, base_seed)


def test_median_recovery_uses_infinity_for_censored():
    ens = run_ensemble(cfg_for("v1.2"), n_seeds=50, base_seed=1)
    if ens.censored_count * 2 > ens.runs_with_severe:
        assert math.isinf(ens.median_first_recovery)
