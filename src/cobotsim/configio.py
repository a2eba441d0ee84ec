"""Flat ``key = value`` configuration files and the matching renderer.

One pair per line, ``#`` starts a comment, keys are dotted paths. The format
is deliberately primitive: a dozen scalars do not justify a structured
format, and flat lines diff and grep well.
"""

from __future__ import annotations

import re

from .disruption import DisruptionParams
from .dynamics import TrustParams
from .engine import ModelConfig, ModelVariant
from .game import CollabLevel, EffortLevel, GameParams


class ConfigError(ValueError):
    """Malformed or invalid configuration text."""


_TABLE_KEYS = {
    "game.fatigue_normal_low": (EffortLevel.NORMAL, CollabLevel.LOW),
    "game.fatigue_normal_high": (EffortLevel.NORMAL, CollabLevel.HIGH),
    "game.fatigue_high_low": (EffortLevel.HIGH, CollabLevel.LOW),
    "game.fatigue_high_high": (EffortLevel.HIGH, CollabLevel.HIGH),
}

# key -> (group, attribute, converter); groups name the sub-config they land in.
_SCALAR_KEYS = {
    "horizon": ("root", "horizon", int),
    "seed": ("root", "seed", int),
    "variant": ("root", "variant", ModelVariant),
    "apology.duration": ("root", "apology_duration", int),
    "game.reward_normal": ("game", "reward_normal", float),
    "game.reward_high": ("game", "reward_high", float),
    "game.cost_kappa_base": ("game", "cost_kappa_base", float),
    "game.cost_kappa_trust_slope": ("game", "cost_kappa_trust_slope", float),
    "game.fatigue_threshold": ("game", "fatigue_threshold", float),
    "game.penalty_weight": ("game", "penalty_weight", float),
    "game.cobot_tiebreak_trust": ("game", "cobot_tiebreak_trust", float),
    "trust.gain": ("trust", "gain", float),
    "trust.loss": ("trust", "loss", float),
    "trust.severe_loss": ("trust", "severe_loss", float),
    "trust.initial": ("trust", "initial_trust", float),
    "fatigue.initial": ("trust", "initial_fatigue", float),
    "disruption.chance": ("disruption", "chance", float),
    "disruption.severe_share": ("disruption", "severe_share", float),
    "disruption.difficult_pick_fatigue": ("disruption", "difficult_pick_fatigue", float),
}

KNOWN_KEYS = tuple(_SCALAR_KEYS) + tuple(_TABLE_KEYS)


def _convert(key: str, raw: str, lineno: int, label: str):
    group, attr, conv = _SCALAR_KEYS[key]
    if conv is ModelVariant:
        try:
            return group, attr, ModelVariant(raw)
        except ValueError:
            valid = ", ".join(v.value for v in ModelVariant)
            raise ConfigError(
                f"{label} {lineno}: variant must be one of {valid} (got '{raw}')"
            ) from None
    try:
        return group, attr, conv(raw)
    except ValueError:
        kind = "an integer" if conv is int else "a number"
        raise ConfigError(
            f"{label} {lineno}: expected {kind} for '{key}', got '{raw}'"
        ) from None


def parse_config(
    text: str, base: ModelConfig | None = None, label: str = "line"
) -> ModelConfig:
    """Parse overrides on top of ``base`` (or the defaults) and revalidate.

    Raises ConfigError naming the offending line for unknown keys, malformed
    values, and invariant violations.
    """
    cfg = base if base is not None else ModelConfig()
    root: dict[str, object] = {
        "variant": cfg.variant,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "apology_duration": cfg.apology_duration,
    }
    game = {f: getattr(cfg.game, f) for f in (
        "reward_normal", "reward_high", "cost_kappa_base", "cost_kappa_trust_slope",
        "fatigue_threshold", "penalty_weight", "cobot_tiebreak_trust",
    )}
    table = dict(cfg.game.fatigue_table)
    trust = {f: getattr(cfg.trust, f) for f in (
        "gain", "loss", "severe_loss", "initial_trust", "initial_fatigue",
    )}
    disruption = {f: getattr(cfg.disruption, f) for f in (
        "chance", "severe_share", "difficult_pick_fatigue",
    )}
    groups = {"root": root, "game": game, "trust": trust, "disruption": disruption}
    line_of_attr: dict[str, int] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{label} {lineno}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in _TABLE_KEYS:
            try:
                table[_TABLE_KEYS[key]] = float(raw)
            except ValueError:
                raise ConfigError(
                    f"{label} {lineno}: expected a number for '{key}', got '{raw}'"
                ) from None
            line_of_attr[key.rsplit(".", 1)[1]] = lineno
            continue
        if key not in _SCALAR_KEYS:
            raise ConfigError(f"{label} {lineno}: unknown key '{key}'")
        group, attr, value = _convert(key, raw, lineno, label)
        groups[group][attr] = value
        line_of_attr[attr] = lineno

    try:
        return ModelConfig(
            variant=root["variant"],
            horizon=root["horizon"],
            seed=root["seed"],
            apology_duration=root["apology_duration"],
            game=GameParams(fatigue_table=table, **game),
            trust=TrustParams(**trust),
            disruption=DisruptionParams(**disruption),
        )
    except ValueError as exc:
        # Attribute the failed invariant to the last line touching a field
        # that the message names as a whole word ("loss" is not named by
        # "severe_loss"); fall back to the bare message.
        message = str(exc)
        hits = [
            n for attr, n in line_of_attr.items()
            if re.search(rf"\b{re.escape(attr)}\b", message)
        ]
        if hits:
            raise ConfigError(f"{label} {max(hits)}: {message}") from None
        raise ConfigError(message) from None


def _fmt(value: object) -> str:
    if isinstance(value, ModelVariant):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(cfg: ModelConfig) -> str:
    """Render a config as parseable text, one known key per line."""
    values = {
        "variant": cfg.variant,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "apology.duration": cfg.apology_duration,
        "game.reward_normal": cfg.game.reward_normal,
        "game.reward_high": cfg.game.reward_high,
        "game.cost_kappa_base": cfg.game.cost_kappa_base,
        "game.cost_kappa_trust_slope": cfg.game.cost_kappa_trust_slope,
        "game.fatigue_threshold": cfg.game.fatigue_threshold,
        "game.penalty_weight": cfg.game.penalty_weight,
        "game.cobot_tiebreak_trust": cfg.game.cobot_tiebreak_trust,
        "game.fatigue_normal_low": cfg.game.fatigue_table[(EffortLevel.NORMAL, CollabLevel.LOW)],
        "game.fatigue_normal_high": cfg.game.fatigue_table[(EffortLevel.NORMAL, CollabLevel.HIGH)],
        "game.fatigue_high_low": cfg.game.fatigue_table[(EffortLevel.HIGH, CollabLevel.LOW)],
        "game.fatigue_high_high": cfg.game.fatigue_table[(EffortLevel.HIGH, CollabLevel.HIGH)],
        "trust.gain": cfg.trust.gain,
        "trust.loss": cfg.trust.loss,
        "trust.severe_loss": cfg.trust.severe_loss,
        "trust.initial": cfg.trust.initial_trust,
        "fatigue.initial": cfg.trust.initial_fatigue,
        "disruption.chance": cfg.disruption.chance,
        "disruption.severe_share": cfg.disruption.severe_share,
        "disruption.difficult_pick_fatigue": cfg.disruption.difficult_pick_fatigue,
    }
    return "\n".join(f"{key} = {_fmt(value)}" for key, value in values.items()) + "\n"


def config_with_overrides(cfg: ModelConfig, pairs: list[str]) -> ModelConfig:
    """Apply ``key=value`` strings (e.g. from --set flags) on top of ``cfg``."""
    return parse_config("\n".join(pairs), base=cfg, label="override")
