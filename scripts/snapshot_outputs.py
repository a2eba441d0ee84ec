#!/usr/bin/env python3
"""Write the stdout and artifacts of a fixed set of cobotsim commands, one
directory per command, under OUT_DIR.

Every command runs in-process from inside OUT_DIR with a relative ``--out``
name, so two snapshots, say of two commits, compare with ``diff -r``:

    PYTHONPATH=src python3 scripts/snapshot_outputs.py /tmp/before
    ... switch commits ...
    PYTHONPATH=src python3 scripts/snapshot_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after

With ``--manifest FILE`` it snapshots into a temporary directory and
writes FILE instead: one ``sha256  relative/path`` line per file, sorted by
path, as ``sha256sum`` prints them, so ``sha256sum -c FILE`` run inside a
snapshot checks it. ``tests/golden/snapshot.sha256`` is that manifest, and
a Tier-1 test compares a fresh snapshot with it:

    PYTHONPATH=src python3 scripts/snapshot_outputs.py --manifest tests/golden/snapshot.sha256

Two commands read ``all_keys.conf``, which the script writes into OUT_DIR
first: it sets every known config key to a valid non-default value, so the
comparison covers the parsing of each key. A third passes the same lines as
``--set`` pairs, so it covers the override reader too.

Two more, a ``run`` and an ``ensemble``, use rewards 0.1 and 0.3, whose
productivity sums are not exact doubles, so they pin one order of addition,
left to right, across Python versions (``scripts/cross_version.py``).

Exits 1 if any command exits non-zero, after running the rest.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from cobotsim.cli import main

VARIANTS = ("v1.0", "v1.1", "v1.2", "v1.3")
CONFIG = "all_keys.conf"
# One line per key, in render_config's order. At trust.initial 0.55 some
# seeds spiral and some synergise.
CONFIG_TEXT = """\
variant = v1.3
horizon = 120
seed = 7
apology.duration = 4
game.reward_normal = 1.25
game.reward_high = 2.25
game.cost_kappa_base = 2.4
game.cost_kappa_trust_slope = 0.75
game.fatigue_threshold = 60.0
game.penalty_weight = 90.0
game.cobot_tiebreak_trust = 0.45
game.fatigue_normal_low = 0.75
game.fatigue_normal_high = 0.375
game.fatigue_high_low = 2.0
game.fatigue_high_high = 0.875
trust.gain = 0.0625
trust.loss = 0.125
trust.severe_loss = 0.4
trust.initial = 0.55
fatigue.initial = 3.5
disruption.chance = 0.15
disruption.severe_share = 0.4
disruption.difficult_pick_fatigue = 4.0
"""


def commands():
    """``(directory, argv)`` of each command, ``argv`` without its ``--out``."""
    yield "table2_seeds1000", ["table2", "--seeds", "1000"]
    yield "compare_seeds1000", ["compare", "--seeds", "1000"]
    yield "compare_seeds300_top", [
        "compare", "--seeds", "300", "--base-seed", "18446744073709551000"
    ]
    for variant in VARIANTS:
        for seeds in (1, 2, 1000):
            yield f"ensemble_{variant}_seeds{seeds}", [
                "ensemble", "--variant", variant, "--seeds", str(seeds)
            ]
    # Shifts whose first event falls past the shared event-free opening of
    # run_paired, and deterministic shifts longer than it.
    yield "ensemble_v1.3_seeds40_h1000_chance0.002", [
        "ensemble", "--variant", "v1.3", "--seeds", "40",
        "--set", "horizon=1000", "--set", "disruption.chance=0.002",
    ]
    yield "ensemble_v1.1_seeds3_h300", [
        "ensemble", "--variant", "v1.1", "--seeds", "3", "--set", "horizon=300"
    ]
    for variant in ("v1.2", "v1.3"):
        for horizon in (50, 2000):
            for seed in (0, 7, 42):
                yield f"run_{variant}_h{horizon}_seed{seed}", [
                    "run", "--variant", variant, "--seed", str(seed),
                    "--set", f"horizon={horizon}", "--emit", "csv,json,svg",
                ]
    # Horizon 1 charts one point; horizons 19, 20 and 21 (x spans 18, 19
    # and 20) fall on both sides of the chart's tick rule at a span of 20.
    for horizon in (1, 19, 20, 21):
        yield f"run_v1.3_h{horizon}_seed7", [
            "run", "--variant", "v1.3", "--seed", "7",
            "--set", f"horizon={horizon}", "--emit", "csv,json,svg",
        ]
    yield "run_all_keys", ["run", "--config", CONFIG, "--emit", "csv,json,svg"]
    yield "run_all_keys_set", [
        "run", *(arg for line in CONFIG_TEXT.splitlines() for arg in ("--set", line)),
        "--emit", "csv,json,svg",
    ]
    yield "ensemble_all_keys_seeds50", ["ensemble", "--config", CONFIG, "--seeds", "50"]
    # Rewards 0.1 and 0.3: their sums are not exact doubles, so these pin the
    # left-to-right sum order on every version, where sum() compensates
    # float sums from Python 3.12 on.
    nondyadic = [
        "--variant", "v1.3", "--set", "horizon=2000",
        "--set", "game.reward_normal=0.1", "--set", "game.reward_high=0.3",
    ]
    yield "run_nondyadic_v1.3_h2000_seed5", [
        "run", *nondyadic, "--seed", "5", "--emit", "csv,json,svg"
    ]
    yield "ensemble_nondyadic_v1.3_h2000_seeds200", [
        "ensemble", *nondyadic, "--seeds", "200", "--base-seed", "5"
    ]


def snapshot(out_dir: Path) -> int:
    """Run every command from inside ``out_dir``, then change back to the
    working directory it was called from, also if a command raises
    (``contextlib.chdir`` would need Python 3.11)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(out_dir)
    try:
        Path(CONFIG).write_text(CONFIG_TEXT, encoding="utf-8")
        status = 0
        for name, argv in commands():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([*argv, "--out", name])
            Path(name).mkdir(exist_ok=True)
            Path(name, "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
            if code:
                print(f"{name}: exit {code}", file=sys.stderr)
                status = 1
    finally:
        os.chdir(home)
    return status


def manifest(out_dir: Path) -> str:
    """One ``sha256  relative/path`` line per file under ``out_dir``, sorted
    by path."""
    files = {p.relative_to(out_dir).as_posix(): p for p in out_dir.rglob("*") if p.is_file()}
    return "".join(
        f"{hashlib.sha256(files[name].read_bytes()).hexdigest()}  {name}\n"
        for name in sorted(files)
    )


def write_manifest(file: Path) -> int:
    """Snapshot into a temporary directory and write its ``manifest`` to
    ``file``; writes nothing if a command fails."""
    with tempfile.TemporaryDirectory() as tmp:
        status = snapshot(Path(tmp))
        if not status:
            file.write_text(manifest(Path(tmp)), encoding="utf-8")
    return status


if __name__ == "__main__":
    usage = f"usage: {Path(sys.argv[0]).name} OUT_DIR | --manifest FILE"
    if len(sys.argv) == 3 and sys.argv[1] == "--manifest":
        sys.exit(write_manifest(Path(sys.argv[2])))
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(usage)
    sys.exit(snapshot(Path(sys.argv[1])))
