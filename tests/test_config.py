"""Config text parsing, validation errors, and render/parse round-trips."""

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobotsim import ConfigError, ModelConfig, ModelVariant, parse_config, render_config
from cobotsim import run_shift
from cobotsim.cli import main
from cobotsim.configio import KNOWN_KEYS, config_with_overrides


def test_empty_document_gives_full_defaults():
    cfg = parse_config("")
    assert cfg == ModelConfig()
    assert cfg.disruption.chance == 0.10
    assert cfg.trust.gain == 0.05
    assert cfg.game.fatigue_threshold == 80.0
    assert cfg.apology_duration == 3
    assert cfg.trust.initial_trust == 0.5
    assert cfg.horizon == 50


def test_comments_and_blank_lines_ignored():
    text = """
    # a comment
    disruption.chance = 0.2   # trailing comment

    trust.gain = 0.01
    """
    cfg = parse_config(text)
    assert cfg.disruption.chance == 0.2
    assert cfg.trust.gain == 0.01


def test_later_assignment_wins():
    cfg = parse_config("horizon = 10\nhorizon = 25\n")
    assert cfg.horizon == 25


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'trust\.gian'"):
        parse_config("horizon = 10\ntrust.gian = 0.05\n")


def test_non_numeric_value_reports_line():
    with pytest.raises(ConfigError, match="line 1: expected a number"):
        parse_config("disruption.chance = often\n")
    with pytest.raises(ConfigError, match="line 1: expected an integer"):
        parse_config("horizon = 12.5\n")


def test_invariant_violation_reports_line_and_bound():
    with pytest.raises(ConfigError, match=r"line 1: initial_trust must lie in \[0, 1\]"):
        parse_config("trust.initial = 2.0\n")
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        parse_config("trust.initial = 1.5\n")


def test_cross_field_invariant_attributed_to_offending_line():
    with pytest.raises(ConfigError, match="line 2: reward_high must exceed"):
        parse_config("horizon = 50\ngame.reward_normal = 5.0\n")


def test_negative_reward_normal_reports_line():
    text = "horizon = 50\ngame.reward_high = -1\ngame.reward_normal = -3\n"
    with pytest.raises(
        ConfigError, match=r"line 3: reward_normal must be >= 0 \(got -3\.0\)"
    ):
        parse_config(text)


def test_invariant_attributed_to_whole_word_field_name():
    # "loss" is a substring of "severe_loss" but not the field it names.
    with pytest.raises(ConfigError, match="line 1: severe_loss must lie in"):
        parse_config("trust.severe_loss = 0\ntrust.loss = 0.1\n")


def test_apology_duration_violation_reports_line():
    with pytest.raises(ConfigError, match="line 1: apology_duration must be >= 1"):
        parse_config("apology.duration = 0\n")


def test_non_finite_table_entry_named_by_its_key(tmp_path, capsys):
    # Each fatigue key is set on line n of a config file and in --set pair n,
    # so a message must name both the key's field and its own line.
    keys = ["game.fatigue_normal_low", "game.fatigue_normal_high",
            "game.fatigue_high_low", "game.fatigue_high_high"]
    config = tmp_path / "model.conf"
    for n, key in enumerate(keys, start=1):
        for value in ("nan", "inf"):
            message = f"{key.removeprefix('game.')} must be finite (got {value})"
            config.write_text("horizon = 50\n" * (n - 1) + f"{key} = {value}\n")
            sets = [arg for pair in ["horizon=50"] * (n - 1) + [f"{key}={value}"]
                    for arg in ("--set", pair)]
            for argv, where in [(["--config", str(config)], f"line {n}"),
                                (sets, f"override {n}")]:
                assert main(["run", *argv, "--out", str(tmp_path / "out")]) == 2
                assert capsys.readouterr() == ("", f"config error: {where}: {message}\n")
    assert not (tmp_path / "out").exists()


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_config("just some words\n")


def test_variant_parsing_and_error():
    assert parse_config("variant = v1.3\n").variant is ModelVariant.V1_3
    with pytest.raises(ConfigError, match="variant must be one of"):
        parse_config("variant = v2.0\n")


def test_seed_bounds():
    assert parse_config(f"seed = {2**64 - 1}\n").seed == 2**64 - 1
    with pytest.raises(ConfigError, match="64-bit"):
        parse_config(f"seed = {2**64}\n")


def test_fatigue_table_overrides():
    cfg = parse_config("game.fatigue_normal_high = 0.25\n")
    from cobotsim import ActionPair, CollabLevel, EffortLevel, fatigue_increment

    pair = ActionPair(CollabLevel.HIGH, EffortLevel.NORMAL)
    assert fatigue_increment(pair, cfg.game) == 0.25


def test_zero_disruption_chance_reduces_to_deterministic_variant():
    stochastic = parse_config("variant = v1.2\ndisruption.chance = 0\n")
    deterministic = parse_config("variant = v1.1\n")
    records_s, summary_s = run_shift(stochastic)
    records_d, summary_d = run_shift(deterministic)
    assert [r.trust_post for r in records_s] == [r.trust_post for r in records_d]
    assert summary_s.productivity == summary_d.productivity
    assert summary_s.final_fatigue == summary_d.final_fatigue


def test_render_parse_idempotence_on_defaults():
    cfg = ModelConfig()
    assert parse_config(render_config(cfg)) == cfg


def test_render_parse_round_trip_with_overrides():
    cfg = parse_config(
        "variant = v1.3\nseed = 987654321\ntrust.gain = 0.033\n"
        "game.fatigue_high_low = 2.75\ndisruption.severe_share = 0.125\n"
    )
    assert parse_config(render_config(cfg)) == cfg


def test_render_covers_every_known_key():
    rendered = render_config(ModelConfig())
    keys = {line.split("=")[0].strip() for line in rendered.splitlines()}
    assert keys == set(KNOWN_KEYS)


def test_readme_key_list_matches_rendered_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Keys and defaults:", 1)[1].split("```")[1]
    pairs = [f"{key} = {value}" for key, value in re.findall(r"(\S+) = (\S+)", block)]
    assert pairs == render_config(ModelConfig()).splitlines()


@given(
    gain=st.floats(min_value=0.001, max_value=1.0),
    chance=st.floats(min_value=0.0, max_value=1.0),
    threshold=st.floats(min_value=1.0, max_value=500.0),
)
def test_round_trip_preserves_float_values_exactly(gain, chance, threshold):
    cfg = config_with_overrides(
        ModelConfig(),
        [
            f"trust.gain = {gain!r}",
            f"disruption.chance = {chance!r}",
            f"game.fatigue_threshold = {threshold!r}",
        ],
    )
    again = parse_config(render_config(cfg))
    assert again.trust.gain == gain
    assert again.disruption.chance == chance
    assert again.game.fatigue_threshold == threshold


def test_overrides_use_override_label():
    with pytest.raises(ConfigError, match="override 1: unknown key"):
        config_with_overrides(ModelConfig(), ["nope = 1"])


@pytest.mark.parametrize("pair", ["horizon=5\nvariant=v1.0", "horizon=5\rseed=3",
                                  "horizon=5 variant=v1.0", "\nhorizon=5"])
def test_override_holding_a_line_break_is_rejected(pair):
    # Such a pair once set each of its lines as a separate override.
    with pytest.raises(ConfigError, match=r"^override 2: expected one 'key=value', got 2 lines"):
        config_with_overrides(ModelConfig(), ["trust.gain = 0.1", pair])


def test_override_errors_are_labelled_by_flag():
    # A trailing line break is whitespace: the pair stays one override, and
    # the next pair keeps its own number (it was once labelled 3).
    base = ModelConfig()
    assert config_with_overrides(base, ["horizon=5\n", "", "seed=4"]) == config_with_overrides(
        base, ["horizon=5", "seed=4"]
    )
    with pytest.raises(ConfigError, match=r"^override 2: gain must lie in"):
        config_with_overrides(base, ["horizon=5\n", "trust.gain=2"])
    with pytest.raises(ConfigError, match=r"^override 3: expected an integer for 'seed'"):
        config_with_overrides(base, ["horizon=5\r\n", "", "seed=x"])
