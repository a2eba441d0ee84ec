"""CLI surface: parsing, artifact emission, exit codes, and report rendering."""

import json
import math
import re
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobotsim import ModelConfig, ModelVariant, render_config, run_shift
from cobotsim import cli
from cobotsim.cli import build_parser, main
from cobotsim.configio import KNOWN_KEYS
from cobotsim.reports import emit_trajectory_csv


def test_parser_run_defaults():
    args = build_parser().parse_args(["run", "--variant", "v1.1", "--seed", "42"])
    assert args.command == "run"
    assert args.variant == "v1.1"
    assert args.seed == 42
    assert args.out == "out"
    assert args.emit == "csv,json"
    assert args.overrides == []


def test_parser_ensemble_defaults():
    args = build_parser().parse_args(["ensemble", "--variant", "v1.2"])
    assert args.command == "ensemble"
    assert args.seeds == 1000
    assert args.base_seed == 1


def test_parser_compare_and_table2():
    assert build_parser().parse_args(["table2"]).command == "table2"
    args = build_parser().parse_args(["compare", "--seeds", "10"])
    assert args.command == "compare"
    assert args.seeds == 10


def test_run_writes_requested_artifacts(tmp_path, capsys):
    code = main(
        [
            "run",
            "--variant",
            "v1.1",
            "--seed",
            "42",
            "--out",
            str(tmp_path),
            "--emit",
            "csv,json,svg",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "productivity 98" in out
    csv_path = tmp_path / "trajectory.csv"
    assert csv_path.is_file()
    assert (tmp_path / "summary.json").is_file()
    assert (tmp_path / "chart.svg").is_file()

    records, _ = run_shift(ModelConfig(variant=ModelVariant.V1_1, seed=42))
    assert csv_path.read_text(encoding="utf-8") == emit_trajectory_csv(records)


def test_run_respects_emit_subset(tmp_path):
    assert main(["run", "--variant", "v1.0", "--out", str(tmp_path), "--emit", "csv"]) == 0
    assert (tmp_path / "trajectory.csv").is_file()
    assert not (tmp_path / "summary.json").exists()


def test_config_file_and_set_overrides(tmp_path):
    config = tmp_path / "shift.cfg"
    config.write_text("variant = v1.2\ndisruption.chance = 0\n", encoding="utf-8")
    out = tmp_path / "artifacts"
    code = main(
        [
            "run",
            "--config",
            str(config),
            "--set",
            "horizon = 5",
            "--out",
            str(out),
            "--emit",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    # two opening turns at normal effort, then trust 0.6 unlocks high effort
    assert payload["productivity"] == 8.0


def help_text(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_follows_terminal_width(monkeypatch, capsys, argv):
    texts = {}
    for columns in (50, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        texts[columns] = help_text(argv, capsys)
        width = max(map(len, texts[columns].splitlines()))
        assert width <= columns - 2, (columns, width)
    assert texts[50] != texts[200]
    assert texts[50].split() == texts[200].split()  # same words, wrapped apart


def test_bad_override_exits_2(tmp_path, capsys):
    code = main(["run", "--set", "disruption.chance = maybe", "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_value_exits_2(tmp_path, capsys):
    code = main(["run", "--set", "trust.initial = 2.0", "--out", str(tmp_path)])
    assert code == 2
    assert "[0, 1]" in capsys.readouterr().err


def test_negative_reward_exits_2(tmp_path, capsys):
    # Such rewards once drew the productivity line below the chart's canvas.
    code = main(["run", "--set", "game.reward_normal=-3", "--set", "game.reward_high=-1",
                 "--set", "game.penalty_weight=1", "--emit", "svg", "--out", str(tmp_path)])
    assert code == 2
    assert "override 1: reward_normal must be >= 0 (got -3.0)" in capsys.readouterr().err
    assert not (tmp_path / "chart.svg").exists()


@pytest.mark.parametrize(
    "key", ["fatigue.initial", "disruption.difficult_pick_fatigue"]
)
def test_infinite_value_exits_2(tmp_path, capsys, key):
    code = main(["run", "--set", f"{key}=inf", "--out", str(tmp_path)])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ensemble", "table2", "compare"])
def test_negative_base_seed_exits_2(capsys, command):
    assert main([command, "--seeds", "2", "--base-seed", "-5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "--base-seed -5" in err


@pytest.mark.parametrize("command", ["ensemble", "table2", "compare"])
def test_base_seed_past_64_bits_exits_2(capsys, command):
    argv = [command, "--seeds", "2", "--base-seed", str(2**64 - 1)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"--base-seed {2**64 - 1}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seed", "-1", "--set", "horizon=5"],
         "config error: --seed: seed must be an unsigned 64-bit integer (got -1)"),
        (["--variant", "v9", "--set", "horizon=5"],
         "config error: --variant: variant must be one of v1.0, v1.1, v1.2, v1.3 "
         "(got 'v9')"),
    ],
    ids=["seed", "variant"],
)
def test_shorthand_error_names_its_flag(tmp_path, capsys, argv, message):
    assert main(["run", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "override" not in err
    assert not any(tmp_path.iterdir())


def test_ensemble_rejects_seed_flag(capsys):
    # It once ran seeds 1..2 and ignored --seed 3 without a word.
    assert main(["ensemble", "--variant", "v1.2", "--seed", "3", "--seeds", "2"]) == 2
    captured = capsys.readouterr()
    assert "config error: --seed does not apply to ensemble" in captured.err
    assert "--base-seed" in captured.err
    assert captured.out == ""


def test_ensemble_rejects_seed_override(capsys):
    # It once ran seeds 1..2 and ignored seed=3 without a word.
    argv = ["ensemble", "--variant", "v1.2", "--set", "seed=3", "--seeds", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config error: --set seed does not apply to ensemble" in captured.err
    assert "--base-seed" in captured.err
    assert captured.out == ""


def test_ensemble_accepts_seed_line_of_config_file(tmp_path, capsys):
    # render_config writes a seed line; the ensemble runs from --base-seed.
    path = tmp_path / "cfg.txt"
    path.write_text(render_config(ModelConfig(variant=ModelVariant.V1_2, seed=9)))
    assert main(["ensemble", "--config", str(path), "--seeds", "2"]) == 0
    assert "v1.2: 2 seeds from 1" in capsys.readouterr().out


def test_horizon_past_bound_exits_2(tmp_path, capsys):
    assert main(["run", "--set", "horizon=100001", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: override 1: horizon must be <= 100000 (got 100001)" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["ensemble", "table2", "compare"])
def test_seeds_past_bound_exits_2(capsys, command):
    assert main([command, "--seeds", "100001"]) == 2
    captured = capsys.readouterr()
    assert "config error: --seeds must be <= 100000 (got 100001)" in captured.err
    assert captured.out == ""


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_directory_as_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: config path is not a regular file: {tmp_path}" in err
    assert "not found" not in err


_FATIGUE_OVERFLOW = [
    "--set", "fatigue.initial=1.7e308",
    "--set", "game.fatigue_normal_low=1e308",
    "--set", "game.fatigue_normal_high=1e308",
    "--set", "game.fatigue_high_low=1e308",
    "--set", "game.fatigue_high_high=1e308",
]


@pytest.mark.parametrize("argv", [["run"], ["ensemble", "--seeds", "3"]])
def test_fatigue_overflow_exits_2(tmp_path, capsys, argv):
    # Every value passes validation, but the first turn's fatigue is inf.
    assert main([*argv, *_FATIGUE_OVERFLOW, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "config error: fatigue overflows to inf" in captured.err
    assert "fatigue.initial" in captured.err
    assert "game.fatigue_*" in captured.err
    assert "inf" not in captured.out
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "overrides, keys",
    [
        (["fatigue.initial=1e308"], ["fatigue.initial", "game.fatigue_*"]),
        (["game.reward_high=3e306", "game.penalty_weight=1.7e308"],
         ["game.reward_*", "horizon"]),
    ],
    ids=["fatigue", "productivity"],
)
def test_ensemble_sum_overflow_exits_2(tmp_path, capsys, overrides, keys):
    # Every seed's value is finite, but their sum passes the largest double.
    argv = ["ensemble", "--seeds", "3", "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert "across seeds 1..3" in captured.err
    for key in keys:
        assert key in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_productivity_overflow_exits_2(tmp_path, capsys):
    # Each turn's reward is finite; the shift's sum is not, and JSON has no inf.
    argv = ["run", "--set", "game.reward_high=1e308",
            "--set", "game.penalty_weight=1.7e308", "--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config error: productivity overflows in seed 0" in captured.err
    assert "game.reward_*" in captured.err
    assert "horizon" in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_undecodable_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "shift.cfg"
    config.write_bytes(b"\xff\xfe=1\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot read config file" in err
    assert str(config) in err


@pytest.mark.parametrize("argv", [["run"], ["compare", "--seeds", "2"]])
def test_out_naming_a_regular_file_exits_2(tmp_path, capsys, argv):
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    assert main([*argv, "--out", str(blocker)]) == 2
    assert f"config error: --out {blocker}" in capsys.readouterr().err


def test_unknown_emit_format_exits_2(tmp_path, capsys):
    code = main(["run", "--out", str(tmp_path), "--emit", "pdf"])
    assert code == 2
    assert "unknown emit format" in capsys.readouterr().err


def test_ensemble_writes_json(tmp_path, capsys):
    code = main(
        [
            "ensemble",
            "--variant",
            "v1.2",
            "--seeds",
            "20",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "ensemble.json").read_text(encoding="utf-8"))
    assert payload["n_seeds"] == 20
    assert "censored recoveries" in capsys.readouterr().out


def test_table2_small_ensemble(tmp_path, capsys):
    code = main(["table2", "--seeds", "20", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "table2.txt").read_text(encoding="utf-8")
    out = capsys.readouterr().out
    for fragment in ("v1.0", "v1.1", "v1.2*", "v1.3*", "recovery-time ratio"):
        assert fragment in text
        assert fragment in out
    assert "| 50 " in text  # deterministic naive productivity
    assert "| 98 " in text


def test_compare_renders_one_row_per_seed(capsys):
    code = main(["compare", "--seeds", "2"])
    assert code == 0
    out = capsys.readouterr().out
    data_rows = [line for line in out.splitlines() if line.lstrip().startswith(("1 ", "2 "))]
    assert len(data_rows) == 2
    assert "reduction ratio" in out


def test_compare_rejects_single_seed(capsys):
    assert main(["compare", "--seeds", "1"]) == 2
    assert "at least 2 seeds" in capsys.readouterr().err


def test_compare_saves_its_report(tmp_path, capsys):
    assert main(["compare", "--seeds", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    text = (tmp_path / "compare.txt").read_text(encoding="utf-8")
    assert out == text + f"wrote {tmp_path / 'compare.txt'}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["compare.txt"]


def test_table2_without_severe_failures(capsys):
    # Seed 12 draws no cobot failure in 50 turns: no recovery to take a median of.
    assert main(["table2", "--seeds", "1", "--base-seed", "12"]) == 0
    out = capsys.readouterr().out
    assert out.count("no severe failure") == 2


def test_censoring_cap_follows_the_horizon(monkeypatch, capsys):
    monkeypatch.setattr(cli, "ModelConfig", partial(ModelConfig, horizon=20))
    assert main(["table2", "--seeds", "20"]) == 0
    assert "(medians, censored counted as 20): " in capsys.readouterr().out
    assert main(["compare", "--seeds", "20"]) == 0
    assert "median first recovery (censored as 20): " in capsys.readouterr().out


def test_module_entry_point_smoke(tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "cobotsim",
            "run",
            "--variant",
            "v1.0",
            "--out",
            str(tmp_path),
            "--emit",
            "csv",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "productivity 50" in result.stdout
    assert (tmp_path / "trajectory.csv").is_file()


# Default values as rendered: the integer keys render as digits.
_DEFAULTS = dict(line.split(" = ") for line in render_config(ModelConfig()).splitlines())
_EXTREME_FLOATS = st.sampled_from(
    [1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 0.0, -1.0, 0.5,
     math.nan, math.inf, -math.inf]
)


@st.composite
def config_documents(draw):
    lines = []
    for key in draw(st.lists(st.sampled_from(KNOWN_KEYS), max_size=8)):
        if key == "variant":
            value = draw(st.sampled_from([v.value for v in ModelVariant]))
        elif key == "horizon":
            value = draw(st.integers(min_value=-(2**70), max_value=60))
        elif _DEFAULTS[key].isdigit():
            value = draw(st.integers(min_value=-(2**70), max_value=2**70))
        else:
            value = repr(draw(st.one_of(_EXTREME_FLOATS, st.floats())))
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


@settings(max_examples=120, deadline=None)
@given(config_documents())
def test_any_config_document_runs_or_exits_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "shift.cfg"
        config.write_text(text, encoding="utf-8")
        out = Path(tmp) / "out"
        code = main(["run", "--config", str(config), "--emit", "csv,json,svg",
                     "--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            written = [path.read_text(encoding="utf-8") for path in out.iterdir()]
            assert len(written) == 3
            for artifact in written:
                assert not re.findall(r"\b(?:nan|inf|Infinity)\b", artifact, re.IGNORECASE)


@pytest.mark.parametrize(
    "argv, golden",
    [(["table2", "--seeds", "50"], "table2_seeds50.txt"),
     (["compare", "--seeds", "20"], "compare_seeds20.txt")],
    ids=["table2", "compare"],
)
def test_report_matches_golden_file(argv, golden, capsys):
    assert main(argv) == 0
    expected = (Path(__file__).parent / "golden" / golden).read_text(encoding="utf-8")
    out = capsys.readouterr().out
    assert out == expected
    assert [line for line in out.splitlines() if line != line.rstrip()] == []
