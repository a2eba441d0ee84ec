"""Flat ``key = value`` configuration files and the matching renderer.

One pair per line, ``#`` starts a comment, keys are dotted paths. The format
is deliberately primitive: a dozen scalars do not justify a structured
format, and flat lines diff and grep well.

One key table, ``_KEYS``, is the whole schema: it drives ``KNOWN_KEYS``,
value conversion, parsing, rendering (one line per key, in table order) and
the attribution of a failed invariant to the line that set the field.
"""

from __future__ import annotations

import re
from dataclasses import replace

from .engine import ModelConfig, ModelVariant
from .game import CollabLevel, EffortLevel


class ConfigError(ValueError):
    """Malformed or invalid configuration text."""


# key -> (group, field, converter). The group is the ModelConfig attribute
# holding the field ("" for ModelConfig itself); an (effort, collaboration)
# field is that entry of the game's fatigue table.
_KEYS = {
    "variant": ("", "variant", ModelVariant),
    "horizon": ("", "horizon", int),
    "seed": ("", "seed", int),
    "apology.duration": ("", "apology_duration", int),
    "game.reward_normal": ("game", "reward_normal", float),
    "game.reward_high": ("game", "reward_high", float),
    "game.cost_kappa_base": ("game", "cost_kappa_base", float),
    "game.cost_kappa_trust_slope": ("game", "cost_kappa_trust_slope", float),
    "game.fatigue_threshold": ("game", "fatigue_threshold", float),
    "game.penalty_weight": ("game", "penalty_weight", float),
    "game.cobot_tiebreak_trust": ("game", "cobot_tiebreak_trust", float),
    "game.fatigue_normal_low": ("game", (EffortLevel.NORMAL, CollabLevel.LOW), float),
    "game.fatigue_normal_high": ("game", (EffortLevel.NORMAL, CollabLevel.HIGH), float),
    "game.fatigue_high_low": ("game", (EffortLevel.HIGH, CollabLevel.LOW), float),
    "game.fatigue_high_high": ("game", (EffortLevel.HIGH, CollabLevel.HIGH), float),
    "trust.gain": ("trust", "gain", float),
    "trust.loss": ("trust", "loss", float),
    "trust.severe_loss": ("trust", "severe_loss", float),
    "trust.initial": ("trust", "initial_trust", float),
    "fatigue.initial": ("trust", "initial_fatigue", float),
    "disruption.chance": ("disruption", "chance", float),
    "disruption.severe_share": ("disruption", "severe_share", float),
    "disruption.difficult_pick_fatigue": ("disruption", "difficult_pick_fatigue", float),
}

KNOWN_KEYS = tuple(_KEYS)
_GROUPS = tuple(dict.fromkeys(group for group, _, _ in _KEYS.values()))


def _field_name(field: str | tuple[EffortLevel, CollabLevel]) -> str:
    """The name validation messages give a field (see ``GameParams.validate``)."""
    if isinstance(field, tuple):
        effort, collab = field
        return f"fatigue_{effort.value}_{collab.value}"
    return field


def parse_config(
    text: str, base: ModelConfig | None = None, label: str = "line"
) -> ModelConfig:
    """Parse overrides on top of ``base`` (or the defaults) and revalidate.

    Raises ConfigError naming the offending line for unknown keys, malformed
    values, and invariant violations.
    """
    cfg = base if base is not None else ModelConfig()
    # group -> overridden fields, in table order: root, game, trust, disruption.
    changes: dict[str, dict[str, object]] = {group: {} for group in _GROUPS}
    line_of_key: dict[str, int] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{label} {lineno}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"{label} {lineno}: unknown key '{key}'")
        group, field, conv = _KEYS[key]
        try:
            value = conv(raw)
        except ValueError:
            if conv is ModelVariant:
                valid = ", ".join(v.value for v in ModelVariant)
                raise ConfigError(
                    f"{label} {lineno}: variant must be one of {valid} (got '{raw}')"
                ) from None
            kind = "an integer" if conv is int else "a number"
            raise ConfigError(
                f"{label} {lineno}: expected {kind} for '{key}', got '{raw}'"
            ) from None
        if isinstance(field, tuple):
            table = changes[group].setdefault("fatigue_table", dict(cfg.game.fatigue_table))
            table[field] = value
        else:
            changes[group][field] = value
        line_of_key[key] = lineno

    # Sub-configs validate before the root, as when each is constructed.
    root = changes.pop("")
    try:
        for group, fields in changes.items():
            if fields:
                root[group] = replace(getattr(cfg, group), **fields)
        return replace(cfg, **root)
    except ValueError as exc:
        # Attribute the failed invariant to the last line touching a field
        # that the message names as a whole word ("loss" is not named by
        # "severe_loss"); fall back to the bare message.
        message = str(exc)
        hits = [
            n for key, n in line_of_key.items()
            if re.search(rf"\b{re.escape(_field_name(_KEYS[key][1]))}\b", message)
        ]
        if hits:
            raise ConfigError(f"{label} {max(hits)}: {message}") from None
        raise ConfigError(message) from None


def render_config(cfg: ModelConfig) -> str:
    """Render a config as parseable text, one known key per line."""
    lines = []
    for key, (group, field, _) in _KEYS.items():
        holder = getattr(cfg, group) if group else cfg
        value = holder.fatigue_table[field] if isinstance(field, tuple) else getattr(holder, field)
        # str() of a float is its shortest round-trip repr.
        lines.append(f"{key} = {value.value if isinstance(value, ModelVariant) else value}\n")
    return "".join(lines)


def config_with_overrides(cfg: ModelConfig, pairs: list[str]) -> ModelConfig:
    """Apply ``key=value`` strings (e.g. from --set flags) on top of ``cfg``.

    Each pair is one line, so an error names the pair by its position: a
    pair holding a line break is rejected, not read as several overrides.
    """
    lines = []
    for n, pair in enumerate(pairs, start=1):
        split = pair.splitlines()
        if len(split) > 1:
            raise ConfigError(
                f"override {n}: expected one 'key=value', got {len(split)} lines "
                f"in {pair!r}"
            )
        lines += split or [""]
    return parse_config("\n".join(lines), base=cfg, label="override")
