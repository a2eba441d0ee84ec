"""End-to-end acceptance gates.

One test per headline target: the two deterministic replays, the paired
recovery-time reduction, directional resilience, the equilibrium oracle,
an invariant fuzz sweep, and byte-exact golden trajectories. Each test
prints a [acceptance] PASS line; failures carry the measured numbers.
"""

import random
import time
from pathlib import Path

import pytest

from cobotsim import (
    ActionPair,
    CollabLevel,
    DisruptionParams,
    EffortLevel,
    GameParams,
    ModelConfig,
    ModelVariant,
    TrustParams,
    emit_trajectory_csv,
    run_ensemble,
    run_shift,
)
from cobotsim.engine import median_recovery_capped
from cobotsim.game import TIE_EPS
from stepwise_reference import (
    HumanState,
    RandomStream,
    cobot_utility,
    human_best_response,
    run_step,
    solve_stage_game,
    summarize_shift,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
ENSEMBLE_SEEDS = 1000
BASE_SEED = 1


def _best_of_three(fn):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, min(times)


@pytest.fixture(scope="module")
def paired_ensembles():
    """Both stochastic ensembles over the same seed schedule, plus the wall
    time of computing them."""
    start = time.perf_counter()
    ens12 = run_ensemble(
        ModelConfig(variant=ModelVariant.V1_2), ENSEMBLE_SEEDS, BASE_SEED
    )
    ens13 = run_ensemble(
        ModelConfig(variant=ModelVariant.V1_3), ENSEMBLE_SEEDS, BASE_SEED
    )
    elapsed = time.perf_counter() - start
    return ens12, ens13, elapsed


def test_criterion_1_naive_deterministic_replay():
    (records, summary), elapsed = _best_of_three(
        lambda: run_shift(ModelConfig(variant=ModelVariant.V1_0))
    )
    assert summary.productivity == 50.0
    assert summary.final_trust == 0.0
    assert summary.final_fatigue == pytest.approx(49.5, abs=1.5)
    assert records[4].trust_post == 0.0, "trust must hit 0.00 by the end of turn 5"
    assert elapsed < 0.010, f"replay took {elapsed * 1000:.2f} ms (limit 10 ms)"
    print(
        f"\n[acceptance] criterion 1: PASS — naive replay: productivity 50, "
        f"final trust 0.00, final fatigue {summary.final_fatigue}, "
        f"{elapsed * 1000:.2f} ms"
    )


def test_criterion_2_refined_deterministic_replay():
    (records, summary), elapsed = _best_of_three(
        lambda: run_shift(ModelConfig(variant=ModelVariant.V1_1))
    )
    assert summary.productivity == 98.0
    assert summary.final_trust == 1.0
    assert summary.final_fatigue == pytest.approx(49.0, abs=1.5)
    assert records[9].trust_post == 1.0, "trust must saturate at the end of turn 10"
    assert all(r.trust_post == 1.0 for r in records[9:])
    assert elapsed < 0.010, f"replay took {elapsed * 1000:.2f} ms (limit 10 ms)"
    print(
        f"\n[acceptance] criterion 2: PASS — refined replay: productivity 98 "
        f"(1.96x the naive 50), final trust 1.00, final fatigue "
        f"{summary.final_fatigue}, {elapsed * 1000:.2f} ms"
    )


def test_criterion_3_recovery_time_reduction(paired_ensembles):
    ens12, ens13, elapsed = paired_ensembles
    assert elapsed < 2.0, f"paired ensemble took {elapsed:.2f} s (limit 2 s)"
    med12 = median_recovery_capped(ens12, cap=50.0)
    med13 = median_recovery_capped(ens13, cap=50.0)
    detail = (
        f"median first recovery (censored=50): v1.2 {med12}, v1.3 {med13}; "
        f"censored: v1.2 {ens12.censored_count}/{ens12.runs_with_severe}, "
        f"v1.3 {ens13.censored_count}/{ens13.runs_with_severe}; "
        f"ratio {med13 / med12:.3f}"
    )
    assert med13 <= 0.25 * med12, (
        f"recovery-time reduction target not met: {detail}"
    )
    print(f"\n[acceptance] criterion 3: PASS — {detail}, {elapsed:.2f} s")


def test_criterion_4_directional_resilience(paired_ensembles):
    ens12, ens13, _ = paired_ensembles
    assert ens13.mean_final_trust > ens12.mean_final_trust, (
        f"mean final trust: v1.3 {ens13.mean_final_trust:.4f} must exceed "
        f"v1.2 {ens12.mean_final_trust:.4f}"
    )
    assert ens13.mean_final_fatigue < ens12.mean_final_fatigue, (
        f"mean final fatigue: v1.3 {ens13.mean_final_fatigue:.3f} must be below "
        f"v1.2 {ens12.mean_final_fatigue:.3f}"
    )
    print(
        f"\n[acceptance] criterion 4: PASS — mean final trust "
        f"{ens13.mean_final_trust:.3f} > {ens12.mean_final_trust:.3f}, "
        f"mean final fatigue {ens13.mean_final_fatigue:.2f} < "
        f"{ens12.mean_final_fatigue:.2f}"
    )


def test_criterion_5_equilibrium_matches_enumeration():
    params = GameParams()

    def oracle(state):
        # enumerate all four pairs, keep the follower-rational ones, then
        # apply the leader's argmax with its documented tie-break
        survivors = []
        for collab in CollabLevel:
            for effort in EffortLevel:
                if human_best_response(collab, state.trust, params) is effort:
                    survivors.append(ActionPair(collab, effort))
        best, best_u = None, None
        for pair in survivors:
            u = cobot_utility(pair, state, params)
            if best is None or u > best_u + TIE_EPS:
                best, best_u = pair, u
            elif abs(u - best_u) <= TIE_EPS:
                preferred = (
                    CollabLevel.HIGH
                    if state.trust >= params.cobot_tiebreak_trust
                    else CollabLevel.LOW
                )
                if pair.cobot is preferred:
                    best, best_u = pair, u
        return best

    checked = 0
    for fatigue in (0.0, 40.0, 79.0, 79.6, 81.0):
        for trust in (i / 100 for i in range(101)):
            state = HumanState(fatigue, trust)
            assert solve_stage_game(state, params) == oracle(state), (
                f"equilibrium mismatch at trust={trust}, fatigue={fatigue}"
            )
            checked += 1
    print(
        f"\n[acceptance] criterion 5: PASS — equilibrium equals brute-force "
        f"enumeration on all {checked} grid states"
    )


def _random_config(rng):
    reward_normal = rng.uniform(0.1, 3.0)
    base = rng.uniform(0.2, 4.0)
    slope = min(rng.uniform(-2.0, 2.0), base - 0.05)
    game = GameParams(
        reward_normal=reward_normal,
        reward_high=reward_normal + rng.uniform(0.1, 3.0),
        fatigue_normal_low=rng.uniform(0.05, 4.0),
        fatigue_normal_high=rng.uniform(0.05, 4.0),
        fatigue_high_low=rng.uniform(0.05, 4.0),
        fatigue_high_high=rng.uniform(0.05, 4.0),
        cost_kappa_base=base,
        cost_kappa_trust_slope=slope,
        fatigue_threshold=rng.uniform(1.0, 120.0),
        penalty_weight=reward_normal + 3.0 + rng.uniform(0.5, 200.0),
        cobot_tiebreak_trust=rng.uniform(0.0, 1.0),
    )
    trust = TrustParams(
        gain=rng.uniform(0.01, 1.0),
        loss=rng.uniform(0.01, 1.0),
        severe_loss=rng.uniform(0.01, 1.0),
        initial_trust=rng.uniform(0.0, 1.0),
        initial_fatigue=rng.uniform(0.0, 20.0),
    )
    disruption = DisruptionParams(
        chance=rng.uniform(0.0, 1.0),
        severe_share=rng.uniform(0.0, 1.0),
        difficult_pick_fatigue=rng.uniform(0.0, 10.0),
    )
    return ModelConfig(
        variant=rng.choice(list(ModelVariant)),
        horizon=rng.randint(1, 50),
        seed=rng.getrandbits(64),
        game=game,
        trust=trust,
        disruption=disruption,
        apology_duration=rng.randint(1, 5),
    )


def test_criterion_6_invariant_fuzz_sweep():
    rng = random.Random(20250810)
    n_configs = 10_000
    steps_checked = 0
    for _ in range(n_configs):
        cfg = _random_config(rng)
        stream = RandomStream(cfg.seed)
        state = HumanState(cfg.trust.initial_fatigue, cfg.trust.initial_trust)
        remaining = 0
        high_turns = 0
        produced = 0.0
        records = []
        for step in range(1, cfg.horizon + 1):
            record, state, remaining = run_step(state, remaining, stream, cfg, step=step)
            records.append(record)
            assert 0.0 <= record.trust_post <= 1.0
            assert record.fatigue_post >= 0.0
            produced += record.items_picked
            if record.human_action is EffortLevel.HIGH:
                high_turns += 1
            steps_checked += 1
        expected = cfg.horizon * cfg.game.reward_normal + high_turns * (
            cfg.game.reward_high - cfg.game.reward_normal
        )
        assert produced == pytest.approx(expected, rel=1e-9)
        if not cfg.variant.has_disruptions:
            assert stream.state == cfg.seed, (
                f"{cfg.variant.value} consumed random draws"
            )
        # run_shift's flat loop must reproduce the per-turn reference exactly.
        assert run_shift(cfg) == (records, summarize_shift(records, cfg.horizon))
    print(
        f"\n[acceptance] criterion 6: PASS — {n_configs} random configs, "
        f"{steps_checked} steps: trust bounded, fatigue non-negative, "
        f"accounting identity holds, deterministic variants draw-free, "
        f"run_shift equals chained run_step"
    )


def test_criterion_7_golden_trajectories():
    refined = run_shift(ModelConfig(variant=ModelVariant.V1_1))[0]
    stochastic = run_shift(ModelConfig(variant=ModelVariant.V1_3, seed=42))[0]

    emitted_refined = emit_trajectory_csv(refined)
    emitted_stochastic = emit_trajectory_csv(stochastic)

    # stability across repeated in-process runs
    assert emitted_refined == emit_trajectory_csv(
        run_shift(ModelConfig(variant=ModelVariant.V1_1))[0]
    )
    assert emitted_stochastic == emit_trajectory_csv(
        run_shift(ModelConfig(variant=ModelVariant.V1_3, seed=42))[0]
    )

    golden_refined = (GOLDEN_DIR / "v1_1_trajectory.csv").read_text(encoding="utf-8")
    golden_stochastic = (GOLDEN_DIR / "v1_3_seed42_trajectory.csv").read_text(
        encoding="utf-8"
    )
    assert emitted_refined == golden_refined
    assert emitted_stochastic == golden_stochastic

    # spot anchors: the frozen files encode the canonical opening rows
    assert golden_refined.split("\n")[1] == (
        "1,0.5,0,high,normal,none,success,1,0.55,0.5,0"
    )
    print(
        "\n[acceptance] criterion 7: PASS — v1.1 and v1.3(seed 42) trajectories "
        "byte-identical to the frozen golden files"
    )
