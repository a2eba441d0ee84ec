"""Flat ``key = value`` configuration files and the matching renderer.

One pair per line, ``#`` starts a comment, keys are dotted paths. The format
is deliberately primitive: a dozen scalars do not justify a structured
format, and flat lines diff and grep well.

One key table, ``_KEYS``, is the whole schema: it drives ``KNOWN_KEYS``,
value conversion, parsing, rendering (one line per key, in table order) and
the attribution of errors. Every source of settings goes through
``apply_settings``: a config file's lines, ``--set`` overrides and the
``--variant``/``--seed`` shorthands. A failed setting is attributed to the
config line, the override or the shorthand flag that set it.
"""

from __future__ import annotations

import re
from dataclasses import replace

from .engine import ModelConfig, ModelVariant


class ConfigError(ValueError):
    """Malformed or invalid configuration text."""


# key -> (group, field, converter). The group is the ModelConfig attribute
# holding the field ("" for ModelConfig itself).
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
    "game.fatigue_normal_low": ("game", "fatigue_normal_low", float),
    "game.fatigue_normal_high": ("game", "fatigue_normal_high", float),
    "game.fatigue_high_low": ("game", "fatigue_high_low", float),
    "game.fatigue_high_high": ("game", "fatigue_high_high", float),
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


def parse_config(
    text: str, base: ModelConfig | None = None, label: str = "line"
) -> ModelConfig:
    """Parse overrides on top of ``base`` (or the defaults) and revalidate.

    Raises ConfigError naming the offending line for unknown keys, malformed
    values, and invariant violations.
    """

    def settings():
        # Lazily, so an error on one line is reported before a later line's.
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(
                    f"{label} {lineno}: expected 'key = value', got '{stripped}'"
                )
            key, _, raw = stripped.partition("=")
            yield f"{label} {lineno}", key.strip(), raw.strip()

    return apply_settings(base if base is not None else ModelConfig(), settings())


def apply_settings(cfg: ModelConfig, settings) -> ModelConfig:
    """Set each ``(where, key, raw)`` of ``settings`` on ``cfg``, in order,
    and revalidate once.

    ``key`` is a config key and ``raw`` its value text, converted as is:
    nothing is stripped or split off. ``where`` names the source of the
    setting, such as ``line 3``, ``override 2`` or ``--seed``, and prefixes
    the ConfigError it causes: an unknown key, a malformed value, or an
    invariant that names a field it set (the last such setting wins).
    """
    # group -> overridden fields, in table order: root, game, trust, disruption.
    changes: dict[str, dict[str, object]] = {group: {} for group in _GROUPS}
    # field name, as validation messages give it -> (position, where) of the
    # last setting of it
    where_of_name: dict[str, tuple[int, str]] = {}

    for n, (where, key, raw) in enumerate(settings):
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key '{key}'")
        group, field, conv = _KEYS[key]
        try:
            value = conv(raw)
        except ValueError:
            if conv is ModelVariant:
                valid = ", ".join(v.value for v in ModelVariant)
                raise ConfigError(
                    f"{where}: variant must be one of {valid} (got '{raw}')"
                ) from None
            kind = "an integer" if conv is int else "a number"
            raise ConfigError(
                f"{where}: expected {kind} for '{key}', got '{raw}'"
            ) from None
        changes[group][field] = value
        where_of_name[field] = n, where

    # Sub-configs validate before the root, as when each is constructed.
    root = changes.pop("")
    try:
        for group, fields in changes.items():
            if fields:
                root[group] = replace(getattr(cfg, group), **fields)
        return replace(cfg, **root)
    except ValueError as exc:
        # Attribute the failed invariant to the last setting of a field that
        # the message names as a whole word ("loss" is not named by
        # "severe_loss"); fall back to the bare message.
        message = str(exc)
        hits = [
            place for name, place in where_of_name.items()
            if re.search(rf"\b{re.escape(name)}\b", message)
        ]
        if hits:
            raise ConfigError(f"{max(hits)[1]}: {message}") from None
        raise ConfigError(message) from None


def render_config(cfg: ModelConfig) -> str:
    """Render a config as parseable text, one known key per line."""
    lines = []
    for key, (group, field, _) in _KEYS.items():
        holder = getattr(cfg, group) if group else cfg
        value = getattr(holder, field)
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
