"""Flat ``key = value`` configuration files and the matching renderer.

One pair per line, ``#`` starts a comment, keys are dotted paths. The format
is deliberately primitive: a dozen scalars do not justify a structured
format, and flat lines diff and grep well.

The dataclasses are the schema. ``ModelConfig``'s own fields and those of
its parameter groups (``game``, ``trust``, ``disruption``) make the key
table, ``_KEYS``, built once at import: a group's field is keyed
``<group>.<field>``, except ``apology.duration``, ``trust.initial`` and
``fatigue.initial``, which name ``apology_duration``, ``trust.initial_trust``
and ``trust.initial_fatigue``. The table drives ``KNOWN_KEYS``, value
conversion, rendering (one line per key, in table order) and the
attribution of errors.

Config lines and ``--set`` pairs are read by one reader. Every source of
settings goes through ``apply_settings``: a config file's lines, ``--set``
overrides and the ``--variant``/``--seed`` shorthands. A failed setting is
attributed to the config line, the override or the shorthand flag that set
it.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, fields, replace

from .engine import ModelConfig, ModelVariant


class ConfigError(ValueError):
    """Malformed or invalid configuration text."""


# Keys whose name is not their field's dotted path.
_RENAMED = {
    "apology_duration": "apology.duration",
    "trust.initial_trust": "trust.initial",
    "trust.initial_fatigue": "fatigue.initial",
}


def _key_table() -> dict[str, tuple[str, str, type]]:
    """key -> (group, field, converter), from the dataclasses: ModelConfig's
    own fields, then each parameter group's (a field built by a
    ``default_factory``) as ``<group>.<field>``, in declaration order. The
    group is the ModelConfig attribute holding the field ("" for ModelConfig
    itself); the converter is the type of the field's default."""
    groups = [(f.name, f.default_factory) for f in fields(ModelConfig)
              if f.default_factory is not MISSING]
    table = {}
    for group, cls in [("", ModelConfig), *groups]:
        for f in fields(cls):
            if f.default_factory is MISSING:
                path = f"{group}.{f.name}" if group else f.name
                table[_RENAMED.get(path, path)] = group, f.name, type(f.default)
    return table


_KEYS = _key_table()
KNOWN_KEYS = tuple(_KEYS)
_GROUPS = tuple(dict.fromkeys(group for group, _, _ in _KEYS.values()))


def _read_lines(lines):
    """Yield ``(where, key, raw)`` for each ``key = value`` of the ``(where,
    line)`` pairs of ``lines``, skipping blank lines and ``#`` comments.

    Lazily, so an error on one line is reported before a later line's.
    """
    for where, line in lines:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        yield where, key.strip(), raw.strip()


def parse_config(text: str) -> ModelConfig:
    """Parse config text over the defaults and revalidate.

    Raises ConfigError naming the offending line for unknown keys, malformed
    values, and invariant violations.
    """
    lines = ((f"line {n}", line) for n, line in enumerate(text.splitlines(), start=1))
    return apply_settings(ModelConfig(), _read_lines(lines))


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


def _override_lines(pairs: list[str]):
    """Yield ``(where, pair)`` for each pair, rejecting a pair that holds a
    line break when it is reached."""
    for n, pair in enumerate(pairs, start=1):
        split = pair.splitlines()
        if len(split) > 1:
            raise ConfigError(
                f"override {n}: expected one 'key=value', got {len(split)} lines "
                f"in {pair!r}"
            )
        # A one-line pair ends in at most a line break, which is whitespace.
        yield f"override {n}", pair


def read_overrides(pairs: list[str]):
    """Yield ``(where, key, raw)`` for each ``key=value`` string of ``pairs``
    (e.g. from --set flags), in order, as ``apply_settings`` takes them.

    Each pair is one line, so an error names the pair by its position: a
    pair holding a line break is rejected, not read as several overrides.
    """
    return _read_lines(_override_lines(pairs))


def config_with_overrides(cfg: ModelConfig, pairs: list[str]) -> ModelConfig:
    """Apply ``key=value`` strings (e.g. from --set flags) on top of ``cfg``,
    as ``read_overrides`` reads them; a pair holding a line break is
    rejected before any pair is set."""
    return apply_settings(cfg, _read_lines(list(_override_lines(pairs))))
