"""Leader-follower simulation of human-cobot order picking with coupled
trust and fatigue dynamics."""

from .charts import emit_svg_chart
from .configio import ConfigError, parse_config, render_config
from .disruption import DisruptionEvent, DisruptionParams, RandomStream, sample_disruption
from .dynamics import (
    InteractionOutcome,
    TrustParams,
    TrustRule,
    classify_interaction,
    update_fatigue,
    update_trust,
)
from .engine import (
    EnsembleSummary,
    ModelConfig,
    ModelVariant,
    ShiftSummary,
    StepRecord,
    recovery_time,
    run_ensemble,
    run_paired,
    run_shift,
    run_step,
)
from .game import (
    ActionPair,
    CollabLevel,
    EffortLevel,
    GameParams,
    HumanState,
    cobot_utility,
    fatigue_increment,
    human_best_response,
    human_reward,
    human_utility,
    perceived_cost,
    solve_stage_game,
)
from .reports import emit_summary_json, emit_trajectory_csv

__version__ = "0.1.0"

__all__ = [
    "ActionPair",
    "CollabLevel",
    "ConfigError",
    "DisruptionEvent",
    "DisruptionParams",
    "EffortLevel",
    "EnsembleSummary",
    "GameParams",
    "HumanState",
    "InteractionOutcome",
    "ModelConfig",
    "ModelVariant",
    "RandomStream",
    "ShiftSummary",
    "StepRecord",
    "TrustParams",
    "TrustRule",
    "classify_interaction",
    "cobot_utility",
    "emit_summary_json",
    "emit_svg_chart",
    "emit_trajectory_csv",
    "fatigue_increment",
    "human_best_response",
    "human_reward",
    "human_utility",
    "parse_config",
    "perceived_cost",
    "recovery_time",
    "render_config",
    "run_ensemble",
    "run_paired",
    "run_shift",
    "run_step",
    "sample_disruption",
    "solve_stage_game",
    "update_fatigue",
    "update_trust",
]
