"""Stage-game tests: utility arithmetic, best responses, and the equilibrium
against a brute-force enumeration oracle."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cobotsim import (
    ActionPair,
    CollabLevel,
    EffortLevel,
    GameParams,
    fatigue_increment,
    human_reward,
)
from cobotsim.game import ACTION_PAIRS, TIE_EPS, StageGame
from stepwise_reference import (
    HumanState,
    cobot_utility,
    human_best_response,
    human_utility,
    perceived_cost,
    solve_stage_game,
)

NORMAL, HIGH_E = EffortLevel.NORMAL, EffortLevel.HIGH
LOW_C, HIGH_C = CollabLevel.LOW, CollabLevel.HIGH

TRUST_GRID = [i / 100 for i in range(101)]
FATIGUE_GRID = [0.0, 40.0, 79.0, 79.6, 81.0]


@pytest.fixture
def params():
    return GameParams()


def test_enum_orderings():
    assert list(EffortLevel) == [NORMAL, HIGH_E]
    assert list(CollabLevel) == [LOW_C, HIGH_C]


def test_human_reward_defaults(params):
    assert human_reward(NORMAL, params) == 1.0
    assert human_reward(HIGH_E, params) == 2.0


def test_human_reward_override():
    params = GameParams(reward_high=3.0)
    assert human_reward(HIGH_E, params) == 3.0


@pytest.mark.parametrize(
    "effort, collab, expected",
    [
        (NORMAL, LOW_C, 1.0),
        (NORMAL, HIGH_C, 0.5),
        (HIGH_E, LOW_C, 2.5),
        (HIGH_E, HIGH_C, 1.0),
    ],
)
def test_fatigue_increment_table(params, effort, collab, expected):
    assert fatigue_increment(ActionPair(collab, effort), params) == expected


@pytest.mark.parametrize(
    "pair, trust, expected",
    [
        (ActionPair(LOW_C, NORMAL), 1.0, 1.6),  # 1.0 * (2.6 - 1.0)
        (ActionPair(HIGH_C, HIGH_E), 0.6, 2.0),  # 1.0 * (2.6 - 0.6), the tie point
        (ActionPair(HIGH_C, NORMAL), 0.0, 1.3),  # 0.5 * 2.6
    ],
)
def test_perceived_cost_values(params, pair, trust, expected):
    assert perceived_cost(pair, trust, params) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("trust", [-0.01, 1.01, 2.0, -5.0])
def test_perceived_cost_rejects_bad_trust(params, trust):
    with pytest.raises(ValueError):
        perceived_cost(ActionPair(LOW_C, NORMAL), trust, params)


@pytest.mark.parametrize(
    "pair, trust, expected",
    [
        (ActionPair(HIGH_C, HIGH_E), 1.0, 0.4),  # 2 - 1.0*1.6
        (ActionPair(HIGH_C, NORMAL), 0.6, 0.0),  # 1 - 0.5*2.0
    ],
)
def test_human_utility_values(params, pair, trust, expected):
    assert human_utility(pair, trust, params) == pytest.approx(expected, abs=1e-12)


def test_human_utility_zero_cost_degenerate():
    zeroed = GameParams(
        cost_kappa_base=0.5,
        cost_kappa_trust_slope=0.0,
        fatigue_normal_low=0.0,
        fatigue_normal_high=0.0,
        fatigue_high_low=0.0,
        fatigue_high_high=0.0,
    )
    assert human_utility(ActionPair(LOW_C, NORMAL), 0.3, zeroed) == 1.0


def test_tie_at_0_6_is_exact_within_tolerance(params):
    high = human_utility(ActionPair(HIGH_C, HIGH_E), 0.6, params)
    normal = human_utility(ActionPair(HIGH_C, NORMAL), 0.6, params)
    assert abs(high - normal) <= TIE_EPS


@pytest.mark.parametrize(
    "collab, trust, expected",
    [
        (HIGH_C, 0.7, HIGH_E),
        (LOW_C, 1.0, NORMAL),
        (HIGH_C, 0.6, HIGH_E),  # exact tie, reciprocity
        (HIGH_C, 0.5, NORMAL),
    ],
)
def test_best_response_examples(params, collab, trust, expected):
    assert human_best_response(collab, trust, params) is expected


def test_best_response_optimality_on_grid(params):
    for trust in TRUST_GRID:
        for collab in CollabLevel:
            chosen = human_best_response(collab, trust, params)
            other = NORMAL if chosen is HIGH_E else HIGH_E
            u_chosen = human_utility(ActionPair(collab, chosen), trust, params)
            u_other = human_utility(ActionPair(collab, other), trust, params)
            assert u_chosen >= u_other - TIE_EPS


def test_effort_threshold_property(params):
    for trust in TRUST_GRID:
        expected = HIGH_E if trust >= 0.6 else NORMAL
        assert human_best_response(HIGH_C, trust, params) is expected
        assert human_best_response(LOW_C, trust, params) is NORMAL


def test_effort_gain_strictly_increasing_in_trust(params):
    for collab in CollabLevel:
        gaps = []
        for trust in TRUST_GRID:
            high = human_utility(ActionPair(collab, HIGH_E), trust, params)
            normal = human_utility(ActionPair(collab, NORMAL), trust, params)
            gaps.append(high - normal)
        assert all(b > a for a, b in zip(gaps, gaps[1:]))


@given(trust=st.floats(min_value=0.0, max_value=1.0))
def test_best_response_never_dominated(trust):
    params = GameParams()
    for collab in CollabLevel:
        chosen = human_best_response(collab, trust, params)
        other = NORMAL if chosen is HIGH_E else HIGH_E
        assert human_utility(ActionPair(collab, chosen), trust, params) >= (
            human_utility(ActionPair(collab, other), trust, params) - TIE_EPS
        )


@pytest.mark.parametrize(
    "pair, fatigue, expected",
    [
        (ActionPair(HIGH_C, HIGH_E), 10.0, 2.0),  # 11.0 <= 80, no penalty
        (ActionPair(LOW_C, NORMAL), 79.5, -99.0),  # 80.5 > 80
        (ActionPair(HIGH_C, NORMAL), 79.4, 1.0),  # 79.9 <= 80
        (ActionPair(HIGH_C, NORMAL), 79.8, -99.0),  # 80.3 > 80
    ],
)
def test_cobot_utility_threshold(params, pair, fatigue, expected):
    state = HumanState(fatigue=fatigue, trust=0.5)
    assert cobot_utility(pair, state, params) == expected


def test_threshold_crossing_is_strict(params):
    # landing exactly on the threshold is allowed
    state = HumanState(fatigue=79.0, trust=0.5)
    assert cobot_utility(ActionPair(LOW_C, NORMAL), state, params) == 1.0


@pytest.mark.parametrize(
    "fatigue, trust, expected",
    [
        (0.0, 0.5, ActionPair(HIGH_C, NORMAL)),  # leader tie resolved upward
        (0.0, 0.45, ActionPair(LOW_C, NORMAL)),  # and downward below 0.5
        (0.0, 0.8, ActionPair(HIGH_C, HIGH_E)),  # strict preference
    ],
)
def test_solve_stage_game_examples(params, fatigue, trust, expected):
    assert solve_stage_game(HumanState(fatigue, trust), params) == expected


def brute_force_equilibrium(state, params):
    """Oracle: enumerate all four pairs, keep the follower-rational ones,
    then apply the leader's argmax with its tie-break."""
    rational = [
        ActionPair(collab, effort)
        for collab in CollabLevel
        for effort in EffortLevel
        if human_best_response(collab, state.trust, params) is effort
    ]
    assert len(rational) == 2  # one per collaboration level
    by_collab = {pair.cobot: pair for pair in rational}
    u_low = cobot_utility(by_collab[LOW_C], state, params)
    u_high = cobot_utility(by_collab[HIGH_C], state, params)
    if abs(u_high - u_low) <= TIE_EPS:
        chosen = HIGH_C if state.trust >= params.cobot_tiebreak_trust else LOW_C
    else:
        chosen = HIGH_C if u_high > u_low else LOW_C
    return by_collab[chosen]


def test_equilibrium_matches_enumeration_oracle(params):
    for fatigue in FATIGUE_GRID:
        for trust in TRUST_GRID:
            state = HumanState(fatigue, trust)
            assert solve_stage_game(state, params) == brute_force_equilibrium(
                state, params
            )


def real(lo, hi):
    """Quarters, whose sums such as ``(threshold - inc) + inc`` are exact and
    land on the threshold, or any float in [lo, hi]."""
    return st.one_of(st.integers(lo * 4, hi * 4).map(lambda k: k / 4), st.floats(lo, hi))


@st.composite
def game_params(draw):
    reward_normal = draw(real(0, 3))
    reward_high = reward_normal + draw(real(1, 12)) / 4
    base = draw(real(1, 4))
    return GameParams(
        reward_normal=reward_normal,
        reward_high=reward_high,
        fatigue_normal_low=draw(real(0, 3)),
        fatigue_normal_high=draw(real(0, 3)),
        fatigue_high_low=draw(real(0, 3)),
        fatigue_high_high=draw(real(0, 3)),
        cost_kappa_base=base,
        cost_kappa_trust_slope=draw(real(-2, 0) | st.floats(0, base - 0.5)),
        fatigue_threshold=draw(real(1, 100)),
        penalty_weight=reward_high + draw(real(1, 200)),
        cobot_tiebreak_trust=draw(real(0, 1)),
    )


def follower_tie_trusts(params):
    """Per collaboration level, the trust where high and normal effort give
    equal utility, when it lies in [0, 1]."""
    ties = []
    for collab in CollabLevel:
        normal, high = ACTION_PAIRS[collab, NORMAL], ACTION_PAIRS[collab, HIGH_E]
        inc_gap = fatigue_increment(high, params) - fatigue_increment(normal, params)
        if inc_gap and params.cost_kappa_trust_slope:
            kappa = (params.reward_high - params.reward_normal) / inc_gap
            trust = (params.cost_kappa_base - kappa) / params.cost_kappa_trust_slope
            if 0.0 <= trust <= 1.0:
                ties.append(trust)
    return ties


def follower_oracle(collab, trust, params):
    """The documented follower rule over ``human_utility``: the better
    effort, and within TIE_EPS high effort iff collaboration is high."""
    normal, high = ACTION_PAIRS[collab, NORMAL], ACTION_PAIRS[collab, HIGH_E]
    u_normal = human_utility(normal, trust, params)
    u_high = human_utility(high, trust, params)
    if abs(u_high - u_normal) <= TIE_EPS:
        return high if collab is HIGH_C else normal
    return high if u_high > u_normal else normal


def leader_oracle(state, params):
    """The documented leader rule over ``cobot_utility`` and the follower
    oracle's pairs: the better pair, and within TIE_EPS high collaboration
    iff trust has reached the tie-break level."""
    low = follower_oracle(LOW_C, state.trust, params)
    high = follower_oracle(HIGH_C, state.trust, params)
    u_low = cobot_utility(low, state, params)
    u_high = cobot_utility(high, state, params)
    if abs(u_high - u_low) <= TIE_EPS:
        return high if state.trust >= params.cobot_tiebreak_trust else low
    return high if u_high > u_low else low


@settings(max_examples=300, deadline=None)
@given(
    params=game_params(),
    trusts=st.lists(st.floats(0, 1), max_size=4),
    fatigues=st.lists(real(0, 150), max_size=4),
)
@example(params=GameParams(), trusts=[0.45], fatigues=[79.5])
def test_stage_game_matches_the_per_term_rules_exactly(params, trusts, fatigues):
    # The follower ties of the defaults sit at trust 0.6; fatigue at
    # threshold - inc tests the strict threshold crossing.
    trusts = [0.0, 1.0, params.cobot_tiebreak_trust, *follower_tie_trusts(params), *trusts]
    fatigues = [0.0, *fatigues] + [
        params.fatigue_threshold - inc
        for inc in (fatigue_increment(pair, params) for pair in ACTION_PAIRS.values())
        if params.fatigue_threshold >= inc
    ]
    game = StageGame(params)
    for trust in trusts:
        for collab in CollabLevel:
            assert game.best_response(collab, trust) == follower_oracle(collab, trust, params)
        for fatigue in fatigues:
            state = HumanState(fatigue, trust)
            assert game.solve(trust, fatigue) == leader_oracle(state, params)


def test_penalty_dominance(params):
    # wherever exactly one collaboration level avoids crossing the threshold
    # (under the follower's response), the leader must pick it
    checked = 0
    for fatigue in [77.0 + i * 0.1 for i in range(40)]:
        for trust in TRUST_GRID[::5]:
            state = HumanState(fatigue, trust)
            crossings = {}
            for collab in CollabLevel:
                effort = human_best_response(collab, trust, params)
                pair = ActionPair(collab, effort)
                crossings[collab] = (
                    fatigue + fatigue_increment(pair, params)
                    > params.fatigue_threshold
                )
            if crossings[LOW_C] != crossings[HIGH_C]:
                safe = LOW_C if crossings[HIGH_C] else HIGH_C
                assert solve_stage_game(state, params).cobot is safe
                checked += 1
    assert checked > 0


def test_human_state_validation():
    with pytest.raises(ValueError):
        HumanState(fatigue=-0.1, trust=0.5)
    with pytest.raises(ValueError):
        HumanState(fatigue=0.0, trust=1.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"reward_high": 1.0},  # must exceed reward_normal
        {"reward_high": 0.5},
        {"fatigue_threshold": 0.0},
        {"penalty_weight": 1.5},  # must exceed reward_high
        {"cost_kappa_base": 0.5},  # kappa(1) = -0.5
        {"reward_normal": float("nan")},
        {"reward_normal": -1.0, "reward_high": 1.0},  # rewards are items picked
    ],
)
def test_game_params_validation(kwargs):
    with pytest.raises(ValueError):
        GameParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        # kappa(1) = 1e308 + 1e308 overflows.
        {"cost_kappa_base": 1e308, "cost_kappa_trust_slope": -1e308},
        # 1e308 times the default kappa(0) = 2.6 overflows.
        {"fatigue_high_low": 1e308},
    ],
    ids=["multiplier", "increment"],
)
def test_game_params_rejects_an_overflowing_utility(kwargs):
    with pytest.raises(ValueError, match="must stay finite") as info:
        GameParams(**kwargs)
    # Each field set is named, so a config error points at its line.
    assert all(name in str(info.value) for name in kwargs)


def test_game_params_accepts_a_finite_utility_bound():
    # 1e307 * 2.6 is finite, so every utility is.
    params = GameParams(**dict.fromkeys(
        ["fatigue_normal_low", "fatigue_normal_high", "fatigue_high_low", "fatigue_high_high"],
        1e307,
    ))
    for pair in ACTION_PAIRS.values():
        assert all(math.isfinite(human_utility(pair, t, params)) for t in (0.0, 1.0))
