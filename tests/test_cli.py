"""CLI surface: parsing, artifact emission, exit codes, and report rendering."""

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobotsim import ModelConfig, ModelVariant, render_config, run_shift
from cobotsim import cli
from cobotsim.cli import build_parser, main, parse_command_line
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
        # A shorthand's value is read as a value, not as a config line.
        (["--variant", "v1.1 # x"],
         "config error: --variant: variant must be one of v1.0, v1.1, v1.2, v1.3 "
         "(got 'v1.1 # x')"),
        (["--variant", " v1.1"],
         "config error: --variant: variant must be one of v1.0, v1.1, v1.2, v1.3 "
         "(got ' v1.1')"),
        (["--variant", "v1.1\nseed=3"],
         "config error: --variant: variant must be one of v1.0, v1.1, v1.2, v1.3 "
         "(got 'v1.1\nseed=3')"),
        (["--variant", "v1.2", "--seed", "-1"],
         "config error: --seed: seed must be an unsigned 64-bit integer (got -1)"),
        # The --set stage comes after the shorthands, so it cannot mend them.
        (["--seed", "-1", "--set", "seed=3"],
         "config error: --seed: seed must be an unsigned 64-bit integer (got -1)"),
    ],
    ids=["seed", "variant", "variant-comment", "variant-space", "variant-line-break",
         "seed-after-variant", "seed-before-set"],
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


_SEED_DOES_NOT_APPLY = "config error: --set seed does not apply to ensemble"


@pytest.mark.parametrize("pairs, err", [
    # It once ran seeds 1..2 and ignored seed=3 without a word.
    (["seed=3"], _SEED_DOES_NOT_APPLY),
    ([" seed = 3"], _SEED_DOES_NOT_APPLY),
    (["x=1", "seed=3"], _SEED_DOES_NOT_APPLY),
    # A malformed pair gets the config reader's message, not a seed's.
    (["seed"], "config error: override 1: expected 'key = value', got 'seed'\n"),
    (["#seed=3"], None),
], ids=["seed=3", "spaced", "after-another-pair", "malformed", "comment"])
def test_ensemble_rejects_seed_override(capsys, pairs, err):
    argv = ["ensemble", "--variant", "v1.2", "--seeds", "2"]
    for pair in pairs:
        argv += ["--set", pair]
    assert main(argv) == (0 if err is None else 2)
    captured = capsys.readouterr()
    if err is None:
        assert "v1.2: 2 seeds from 1" in captured.out
        return
    assert err in captured.err
    if err == _SEED_DOES_NOT_APPLY:
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
    for seeds, bound in (("100001", "<= 100000 (got 100001)"), ("0", ">= 1 (got 0)")):
        assert main([command, "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert f"config error: --seeds must be {bound}" in captured.err
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
    "--set", "game.fatigue_normal_low=1e307",
    "--set", "game.fatigue_normal_high=1e307",
    "--set", "game.fatigue_high_low=1e307",
    "--set", "game.fatigue_high_high=1e307",
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


def test_overflowing_perceived_cost_exits_2(tmp_path, capsys):
    # From trust 0.8 the cost multiplier was inf, both high-collaboration
    # utilities -inf, and the follower's tie rule was skipped for a NaN.
    argv = ["run", "--set", "game.fatigue_normal_high=1.0",
            "--set", "game.cost_kappa_base=1e308",
            "--set", "game.cost_kappa_trust_slope=-1e308", "--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config error: override 3: utility bound reward_high" in captured.err
    assert captured.out == ""
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
    assert main(["run", "--out", str(tmp_path), "--emit", ","]) == 2
    assert "config error: at least one emit format is required" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


def test_ensemble_matches_golden_files(monkeypatch, tmp_path, capsys):
    golden = Path(__file__).parent / "golden"
    monkeypatch.chdir(tmp_path)
    assert main(["ensemble", "--variant", "v1.3", "--seeds", "1000", "--out", "out"]) == 0
    expected = (golden / "ensemble_v1_3_seeds1000.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
    assert (tmp_path / "out" / "ensemble.json").read_bytes() == (
        golden / "ensemble_v1_3_seeds1000.json"
    ).read_bytes()


def golden_messages():
    """``(argv, exit status, stdout, stderr)`` for each case of
    ``golden/cli_messages.txt``, recorded with ``COLUMNS=100`` and run in an
    empty working directory."""
    text = (Path(__file__).parent / "golden" / "cli_messages.txt").read_text(encoding="utf-8")
    cases = []
    for chunk in text.split("==== ")[1:]:
        argv, rest = chunk.split("\n", 1)
        status, rest = rest.removeprefix("exit ").split("\n---- stdout\n", 1)
        out, err = rest.split("---- stderr\n", 1)
        cases.append((json.loads(argv), int(status), out, err))
    return cases


@pytest.mark.parametrize(
    "argv, status, out, err",
    [pytest.param(*case, id=" ".join(case[0]) or "-") for case in golden_messages()],
)
def test_messages_match_golden_file(monkeypatch, tmp_path, capsys, argv, status, out, err):
    # Help screens, usage errors and each command's output, byte for byte,
    # whichever parser main builds for them.
    monkeypatch.setenv("COLUMNS", "100")
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (status, out, err)


def test_golden_messages_cover_every_command():
    helps, runs = set(), set()
    for argv, status, _, _ in golden_messages():
        if argv and {"-h", "--help"} & set(argv):
            helps.add(argv[0])
        elif argv and status == 0:
            runs.add(argv[0])
    assert helps >= {"--help", *cli._COMMANDS}
    assert runs == set(cli._COMMANDS)


@pytest.fixture
def parser_builds(monkeypatch):
    """Counts of ``ArgumentParser``s built and arguments added since the
    fixture was set up; reset by assigning zeros."""
    counts = {"parsers": 0, "arguments": 0}
    init, add_argument = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def counting_init(self, *args, **kwargs):
        counts["parsers"] += 1
        init(self, *args, **kwargs)

    def counting_add_argument(self, *args, **kwargs):
        counts["arguments"] += 1
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add_argument)
    return counts


def test_main_builds_only_the_invoked_sub_parser(parser_builds, tmp_path, capsys):
    # A line of exact flag-value pairs builds no parser; any other line that
    # starts with a command builds that command's own parser alone. No parser
    # is kept between calls.
    for _ in range(2):
        parser_builds.update(parsers=0, arguments=0)
        assert main(["run", "--emit", "csv", "--out", str(tmp_path)]) == 0
        assert parser_builds == {"parsers": 0, "arguments": 0}
    parser_builds.update(parsers=0, arguments=0)
    assert main(["table2", "--seeds", "2"]) == 0
    assert parser_builds == {"parsers": 0, "arguments": 0}
    for argv in (["run", "--seed=3", "--out", str(tmp_path)],
                 ["run", "--em", "csv", "--out", str(tmp_path)]):
        for _ in range(2):
            parser_builds.update(parsers=0, arguments=0)
            assert main(argv) == 0
            assert parser_builds == {"parsers": 1, "arguments": 7}
    for argv in (["--help"], ["-h", "run"]):
        parser_builds.update(parsers=0, arguments=0)
        with pytest.raises(SystemExit):
            main(argv)
        assert parser_builds == {"parsers": 5, "arguments": 24}
    parser_builds.update(parsers=0, arguments=0)
    assert main(["compare", "--seeds", "1"]) == 2
    assert parser_builds == {"parsers": 0, "arguments": 0}
    # Arguments the command leaves unread are reported by the full parser.
    parser_builds.update(parsers=0, arguments=0)
    with pytest.raises(SystemExit):
        main(["run", "--bogus"])
    assert parser_builds == {"parsers": 6, "arguments": 31}
    capsys.readouterr()


# The command lines of this file that argparse accepts; DIR and FILE stand for
# their paths.
_VALID_ARGVS = [
    ["run", "--variant", "v1.1", "--seed", "42"],
    ["run", "--variant", "v1.1", "--seed", "42", "--out", "DIR", "--emit", "csv,json,svg"],
    ["run", "--variant", "v1.0", "--out", "DIR", "--emit", "csv"],
    ["run", "--config", "FILE", "--set", "horizon = 5", "--out", "DIR", "--emit", "json"],
    ["run", "--set", "game.reward_normal=-3", "--set", "game.reward_high=-1",
     "--set", "game.penalty_weight=1", "--emit", "svg", "--out", "DIR"],
    ["run", "--seed", "-1", "--set", "horizon=5", "--out", "DIR"],
    ["run", "--config", "FILE"],
    ["run", *_FATIGUE_OVERFLOW, "--out", "DIR"],
    ["run", "--variant", "v9", "--set", "horizon=5", "--out", "DIR"],
    ["run", "--out", "DIR", "--emit", "pdf"],
    ["ensemble", "--variant", "v1.2"],
    ["ensemble", "--variant", "v1.2", "--seed", "3", "--seeds", "2"],
    ["ensemble", "--variant", "v1.2", "--set", "seed=3", "--seeds", "2"],
    ["ensemble", "--config", "FILE", "--seeds", "2"],
    ["ensemble", "--seeds", "3", "--out", "DIR", "--set", "fatigue.initial=1e308"],
    ["ensemble", "--variant", "v1.2", "--seeds", "20", "--out", "DIR"],
    ["table2"],
    ["table2", "--seeds", "20", "--out", "DIR"],
    ["table2", "--seeds", "1", "--base-seed", "12"],
    ["table2", "--seeds", "100001"],
    ["compare", "--seeds", "10"],
    ["compare", "--seeds", "2", "--base-seed", "-5"],
    ["compare", "--seeds", "2", "--base-seed", str(2**64 - 1)],
    ["compare", "--seeds", "2", "--out", "DIR"],
]


@pytest.mark.parametrize("argv", _VALID_ARGVS, ids=lambda argv: " ".join(argv)[:60])
def test_one_command_parser_reads_the_full_parsers_namespace(argv):
    expected = build_parser().parse_args(argv)
    assert parse_command_line(argv) == expected
    # Each line is exact flag-value pairs, which the table reader takes but
    # for a value that starts with "-", such as --seed -1.
    dashed = any(value.startswith("-") for value in argv[2::2])
    assert cli._read_exact(argv[0], argv[1:]) == (None if dashed else expected)


@pytest.mark.parametrize(
    "argv", [["run", "--bogus"], ["table2", "run"], ["compare", "--seeds", "2", "--", "x"]],
    ids=" ".join,
)
def test_one_command_parser_leaves_unread_arguments_to_the_full_parser(argv, capsys):
    # Same exit status and message as the full parser's, whose usage line
    # lists every command.
    outcomes = []
    for parse in (parse_command_line, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outcomes.append((exc.value.code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1].err.startswith("usage: cobotsim [-h] {run,ensemble,table2,compare}")


_FLAGS = sorted({flag for _, flags, _ in cli._COMMANDS.values() for flag in flags})
# Every prefix argparse might take for a flag: unique to one flag of a
# command, shared by several (--se), or matching none of its flags.
_ABBREVIATIONS = sorted({flag[:n] for flag in _FLAGS for n in range(3, len(flag))})
_VALUES = ["3", "1000", "v1.2", "horizon=5", "csv,svg", "DIR", "-1", "-", "--", "",
           " 5 ", "1_000", "x y", "1e3", "run"]


@st.composite
def command_lines(draw):
    """A command and a mix of exact flag-value pairs and tokens argparse
    alone reads: abbreviations, --flag=value, dashed or odd values, unknown
    flags, -h, --help, and --."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = st.sampled_from([*cli._COMMANDS[command][1], *_FLAGS])
    values = st.sampled_from(_VALUES)
    exact = st.tuples(st.sampled_from(list(cli._COMMANDS[command][1])),
                      st.sampled_from(["3", "1000", "v1.2", "horizon=5", "DIR"]))
    token = st.one_of(
        values,
        flags,
        st.sampled_from(["-h", "--help"]),
        st.sampled_from([*_ABBREVIATIONS, "--bogus", "--", "-x"]),
        st.builds("{}={}".format, st.sampled_from(_FLAGS + _ABBREVIATIONS), values),
    )
    mixed = st.one_of(exact, st.tuples(flags, values), st.tuples(token))
    items = draw(st.lists(exact if draw(st.booleans()) else mixed, max_size=6))
    return [command, *(t for item in items for t in item)]


def _parse_outcome(parse, argv):
    """``parse(argv)``'s namespace, or its exit status, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_command_line_reads_as_the_full_parser_does(argv):
    assert _parse_outcome(parse_command_line, argv) == _parse_outcome(
        build_parser().parse_args, argv
    )


def run_with_closed_stdout(argv, unbuffered):
    """Exit status and stderr of ``python -m cobotsim argv`` whose stdout
    pipe is closed before it writes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "cobotsim", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # long before the interpreter has imported cobotsim
    with proc.stderr:
        err = proc.stderr.read()
    return proc.wait(), err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv", [["compare", "--seeds", "5"], ["table2", "--seeds", "5"], ["run", "--out", "DIR"]],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, argv, unbuffered):
    # Both ended in a BrokenPipeError: a traceback and exit 1 unbuffered, an
    # "Exception ignored" message and exit 120 buffered.
    argv = [str(tmp_path) if arg == "DIR" else arg for arg in argv]
    assert run_with_closed_stdout(argv, unbuffered) == (1, b"")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_keeps_help_quiet(unbuffered):
    # argparse dropped a failed unbuffered write and exited 0, while a
    # buffered one failed at main's flush and exited 1. Sub-command parsers
    # print their help the same way.
    for argv in (["--help"], ["-h"], ["run", "--help"], ["compare", "-h"]):
        assert run_with_closed_stdout(argv, unbuffered) == (1, b""), argv


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    # It was read as the key '﻿horizon', which prints like 'horizon'.
    text = "horizon = 7\nvariant = v1.3\ntrust.gain = 0.2\n"
    configs = []
    for name, prefix in (("plain.cfg", b""), ("bom.cfg", b"\xef\xbb\xbf")):
        path = tmp_path / name
        path.write_bytes(prefix + text.encode("utf-8"))
        configs.append(cli._load_config(build_parser().parse_args(["run", "--config", str(path)])))
    assert configs[0] == configs[1] == ModelConfig(
        horizon=7, variant=ModelVariant.V1_3, trust=replace(ModelConfig().trust, gain=0.2)
    )


def test_set_holding_a_line_break_exits_2(tmp_path, capsys):
    # It silently set horizon and variant from one flag.
    argv = ["run", "--set", "trust.gain=0.1", "--set", "horizon=5\nvariant=v1.0",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: override 2: expected one 'key=value', got 2 lines in "
        "'horizon=5\\nvariant=v1.0'\n"
    )
    assert captured.out == ""
    assert not any(tmp_path.iterdir())
