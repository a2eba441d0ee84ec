"""Smoke tests of the scripts in ``scripts/``, run as a user would."""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from cobotsim import ModelConfig, parse_config, render_config
from cobotsim.configio import KNOWN_KEYS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"
GOLDEN_MANIFEST = Path(__file__).resolve().parent / "golden" / "snapshot.sha256"


def run_script(name, *args, cwd, environ=os.environ):
    env = dict(environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_reproduce_kpis_prints_and_saves_the_table(tmp_path):
    result = run_script("reproduce_kpis.py", "--seeds", "20", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "recovery-time ratio v1.3/v1.2" in result.stdout
    saved = (tmp_path / "out" / "table2.txt").read_text(encoding="utf-8")
    assert "recovery-time ratio v1.3/v1.2" in saved


def test_render_figures_writes_one_chart_and_csv_per_variant(tmp_path):
    result = run_script("render_figures.py", str(tmp_path / "figures"), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    figures = tmp_path / "figures"
    assert sorted(p.name for p in figures.glob("*.svg")) == [
        "v1_0.svg", "v1_1.svg", "v1_2.svg", "v1_3.svg"
    ]
    assert sorted(p.name for p in figures.glob("*.csv")) == [
        "v1_0.csv", "v1_1.csv", "v1_2.csv", "v1_3.csv"
    ]


def test_snapshot_outputs_writes_one_directory_per_command(tmp_path):
    result = run_script("snapshot_outputs.py", "snap", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    snap = tmp_path / "snap"
    dirs = {p.name for p in snap.iterdir() if p.is_dir()}
    assert len(dirs) == 3 + 4 * 3 + 2 + 2 * 2 * 3 + 4 + 3 + 2
    assert {
        "compare_seeds300_top", "ensemble_v1.0_seeds1000", "ensemble_v1.1_seeds3_h300",
        "run_v1.3_h2000_seed42", "run_v1.3_h1_seed7", "run_v1.3_h21_seed7",
        "run_all_keys", "ensemble_all_keys_seeds50",
        "run_nondyadic_v1.3_h2000_seed5", "ensemble_nondyadic_v1.3_h2000_seeds200",
    } <= dirs
    artifacts = {
        "table2": ["table2.txt"],
        "compare": ["compare.txt"],
        "ensemble": ["ensemble.json"],
        "run": ["chart.svg", "summary.json", "trajectory.csv"],
    }
    files = {str(p.relative_to(snap)) for p in snap.rglob("*") if p.is_file()}
    assert files == {"all_keys.conf"} | {
        f"{d}/{name}" for d in dirs for name in ["stdout.txt", *artifacts[d.split("_")[0]]]
    }
    # The config sets every key, each to a valid value other than its default.
    text = (snap / "all_keys.conf").read_text(encoding="utf-8")
    assert render_config(parse_config(text)) == text
    defaults = render_config(ModelConfig()).splitlines()
    lines = text.splitlines()
    assert [line.split(" = ")[0] for line in lines] == list(KNOWN_KEYS)
    assert not set(lines) & set(defaults)
    # The same lines as --set pairs give the same artifacts.
    for name in artifacts["run"]:
        assert (snap / "run_all_keys_set" / name).read_bytes() == (
            snap / "run_all_keys" / name
        ).read_bytes()


def _hashes(manifest):
    """``{path: sha256}`` of a manifest's ``sha256  path`` lines."""
    lines = (line.split("  ", 1) for line in manifest.splitlines())
    return {path: digest for digest, path in lines}


def test_snapshot_outputs_match_the_golden_manifest(tmp_path, monkeypatch):
    # Every artifact and stdout of the snapshot's commands, byte for byte.
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import snapshot_outputs

    monkeypatch.chdir(tmp_path)  # snapshot() changes directory
    assert snapshot_outputs.snapshot(tmp_path / "snap") == 0
    got = _hashes(snapshot_outputs.manifest(tmp_path / "snap"))
    expected = _hashes(GOLDEN_MANIFEST.read_text(encoding="utf-8"))
    differ = sorted(p for p in got.keys() & expected.keys() if got[p] != expected[p])
    missing, extra = sorted(expected.keys() - got.keys()), sorted(got.keys() - expected.keys())
    assert (differ, missing, extra) == ([], [], [])


def test_snapshot_outputs_writes_its_manifest(tmp_path):
    result = run_script("snapshot_outputs.py", "--manifest", "m.sha256", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.sha256"]
    assert (tmp_path / "m.sha256").read_bytes() == GOLDEN_MANIFEST.read_bytes()
    assert run_script("snapshot_outputs.py", "--manifest", cwd=tmp_path).returncode == 1


def test_cross_version_finds_no_difference_under_one_interpreter(tmp_path):
    result = run_script("cross_version.py", sys.executable, sys.executable, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    version = platform.python_version()
    assert result.stdout == f"== {sys.executable} ({version}) against 0-{version}\n"
    assert not any(tmp_path.iterdir())


def test_cross_version_fails_on_an_interpreter_that_does_not_run(tmp_path):
    missing = str(tmp_path / "python-missing")
    result = run_script("cross_version.py", sys.executable, missing, cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith(f"{missing}: cannot run: ")


def test_cost_report_prints_sizes_and_opcode_counts(tmp_path):
    result = run_script("cost_report.py", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    sizes, environment, counts, functions, files = result.stdout.strip().split("\n\n")
    header, *modules, total = [line.split() for line in sizes.splitlines()]
    assert header == ["module", "lines", "code"]
    assert {row[0] for row in modules} >= {"engine.py", "cli.py", "game.py"}
    assert total[0] == "total"
    for column in (1, 2):
        assert sum(int(row[column]) for row in modules) == int(total[column])
    assert all(0 < int(row[2]) <= int(row[1]) for row in modules)
    assert environment.splitlines() == [
        "environment", "COLUMNS=80", "LINES=24", "LANGUAGE=", "LC_ALL=C", "LANG=C",
    ]
    header, *ops = counts.splitlines()
    assert header.split() == ["op", "opcodes", "calls"]
    # One op per benchmark workload, long-shift's v1.3 and v1.2 halves apart,
    # then the 1000-seed ensemble.
    assert len(ops) == 5
    # Every Python call executes opcodes, so an op has more of them.
    for line in ops:
        opcode_count, calls = map(int, line.split()[-2:])
        assert 0 < calls < opcode_count
    # Each op's name, then its five largest functions by descending share.
    header, *rows = functions.splitlines()
    assert header.split() == ["share", "op", "/", "function"]
    assert len(rows) == 5 * 6
    for op, block in zip(ops, (rows[i:i + 6] for i in range(0, len(rows), 6))):
        assert op.startswith(block[0] + " ")
        shares = [float(row.split()[0]) for row in block[1:]]
        assert shares == sorted(shares, reverse=True)
        assert 0 < sum(shares) <= 100.05
        assert all(row.split()[1] == "%" and ":" in row.split()[2] for row in block[1:])
    assert "engine.py:_simulate" in functions
    # Each op's name, then its opcodes per file by descending share.
    header, *rows = files.splitlines()
    assert header.split() == ["share", "op", "/", "file"]
    blocks = []
    for row in rows:
        share, percent, *file = row.split(None, 2)
        if percent == "%":
            blocks[-1][1].append((float(share), file[0]))
        else:
            blocks.append((row, []))
    assert len(blocks) == len(ops)
    for op, (name, shares) in zip(ops, blocks):
        assert op.startswith(name + " ")
        assert [share for share, _ in shares] == sorted(
            (share for share, _ in shares), reverse=True
        )
        assert abs(sum(share for share, _ in shares) - 100) <= 0.1
    long_shift = next(shares for name, shares in blocks if "long-shift" in name)
    assert "engine.py" in {file for _, file in long_shift}
    assert not any(tmp_path.iterdir())


def test_cost_report_counts_do_not_follow_the_shell(tmp_path):
    # argparse reads the terminal size and gettext the locale variables.
    shell = {"COLUMNS", "LINES", "LANGUAGE", "LC_ALL", "LANG"}
    base = {k: v for k, v in os.environ.items() if k not in shell}
    counts = []
    for setting in ({"COLUMNS": "100", "LANG": "en_US.UTF-8"}, {"LANG": "C"}):
        result = run_script("cost_report.py", cwd=tmp_path, environ={**base, **setting})
        assert result.returncode == 0, result.stderr
        blocks = result.stdout.split("\n\n")
        counts.append(next(block for block in blocks if block.startswith("op ")))
    assert counts[0] == counts[1]


def test_cost_report_exits_quietly_into_a_closed_pipe(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    with subprocess.Popen(
        [sys.executable, str(SCRIPTS / "cost_report.py")], cwd=tmp_path, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        # Read the header, then close the pipe long before the opcode counts.
        assert proc.stdout.readline().split() == ["module", "lines", "code"]
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == ""


def test_bench_records_sizes_counts_times_and_versions(tmp_path):
    result = run_script(
        "bench.py", "--record", "bench.json", "--repeats", "2", "--python", sys.executable,
        "--perfbench-seconds", "0", cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads((tmp_path / "bench.json").read_text(encoding="utf-8"))
    assert list(record) == [
        "python", "cpu_count", "environment", "size", "ops", "wall_ms", "cross_version",
        "perfbench",
    ]
    assert record["python"].endswith(platform.python_version())
    assert record["cpu_count"] >= 1
    assert record["environment"]["LC_ALL"] == "C"
    *modules, total = record["size"].items()
    assert total[0] == "total"
    assert {name for name, _ in modules} >= {"engine.py", "cli.py", "game.py"}
    for key in ("lines", "code"):
        assert sum(module[key] for _, module in modules) == total[1][key]
    assert len(record["ops"]) == 5
    assert all(0 < op["calls"] < op["opcodes"] for op in record["ops"].values())
    for op in record["ops"].values():
        shares = list(op["files"].values())
        assert shares == sorted(shares, reverse=True) and all(s > 0 for s in shares)
        assert math.isclose(sum(shares), 1, abs_tol=1e-4)
    assert {"engine.py", "reports.py", "cli.py"} <= set(
        record["ops"]["run --emit csv,json,svg (cli-sweep)"]["files"]
    )
    assert len(record["wall_ms"]) == 8
    for timing in record["wall_ms"].values():
        assert timing["argv"][0] == "python"
        assert len(timing["runs"]) == 2
        assert 0 < timing["best"] <= timing["median"] <= timing["worst"]
        assert timing["best"] == min(timing["runs"])
    assert record["cross_version"] == {"pythons": [platform.python_version()], "exit": 0}
    assert record["perfbench"] is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json"]


def test_bench_keeps_the_last_line_of_each_perfbench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench

    runs = bench.perfbench(0.1, 2, dict(os.environ, PYTHONPATH=str(SRC)))
    benchmark = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert runs["seed"] == bench.PERFBENCH_SEED
    assert (runs["seconds"], runs["runs"]) == (0.1, 2)
    assert list(runs["workloads"]) == [w["name"] for w in benchmark["workloads"]]
    for run in runs["workloads"].values():
        assert run["correct"] is True
        assert [m["name"] for m in benchmark["end_to_end"]] == list(run["metrics"])
        for metric in run["metrics"].values():
            assert list(metric) == ["unit", "median", "q1", "q3", "values"]
            low, high = sorted(metric["values"])
            # The inclusive quartiles of two values lie a quarter of the way in.
            assert metric["q1"] == pytest.approx(low + (high - low) / 4)
            assert metric["median"] == pytest.approx((low + high) / 2)
            assert metric["q3"] == pytest.approx(high - (high - low) / 4)
        assert run["metrics"]["ok_frac"]["values"] == [1.0, 1.0]
    assert bench.perfbench(0, 2, {}) is None
