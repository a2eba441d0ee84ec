"""Leader-follower simulation of human-cobot order picking with coupled
trust and fatigue dynamics."""

from .charts import emit_svg_chart
from .configio import ConfigError, parse_config, render_config
from .disruption import DisruptionEvent, DisruptionParams
from .dynamics import (
    InteractionOutcome,
    TrustParams,
    TrustRule,
    classify_interaction,
    update_trust,
)
from .engine import (
    EnsembleSummary,
    ModelConfig,
    ModelVariant,
    ShiftSummary,
    StepRecord,
    run_ensemble,
    run_paired,
    run_shift,
)
from .game import (
    ActionPair,
    CollabLevel,
    EffortLevel,
    GameParams,
    fatigue_increment,
    human_reward,
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
    "InteractionOutcome",
    "ModelConfig",
    "ModelVariant",
    "ShiftSummary",
    "StepRecord",
    "TrustParams",
    "TrustRule",
    "classify_interaction",
    "emit_summary_json",
    "emit_svg_chart",
    "emit_trajectory_csv",
    "fatigue_increment",
    "human_reward",
    "parse_config",
    "render_config",
    "run_ensemble",
    "run_paired",
    "run_shift",
    "update_trust",
]
