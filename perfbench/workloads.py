"""The three benchmark workloads: their inputs, their op, and the op's check.

Each workload turns the benchmark seed into an endless sequence of op
inputs, runs one op per call in-process through the package's public entry
points, and checks the op's output against the reference evaluator. Inputs
are generated and outputs checked outside the timed call.

- ``paired-ensemble``: ``cli.format_comparison`` (the ``compare`` command)
  over the next block of consecutive paired seeds. One ``GameParams`` and
  50-turn shifts, so almost every stage-game input repeats; this is where a
  compiled stage game or a flat shift loop shows.
- ``cli-sweep``: ``cli.main(["run", ...])`` writing CSV, JSON and SVG for a
  distinct random valid config per op, across all four variants, half via
  ``--config FILE`` and half via ``--set``. Fixed per-op costs (argparse,
  config parsing, emitters, file writes) dominate and no stage-game input
  repeats across ops, so a per-``GameParams`` table only costs here.
- ``long-shift``: ``engine.run_shift`` of v1.2 and v1.3 (alternating, paired
  seeds) over a 2000-turn horizon. Fatigue crosses the threshold early, so
  the leader's penalty branch binds, severe failures pile up and the
  recovery rescan in the summary grows with the horizon.
"""

from __future__ import annotations

import io
import random
import sys
from pathlib import Path

import reference as ref

PAIRED_SEEDS_PER_OP = 25
LONG_HORIZON = 2000
EMIT = "csv,json,svg"
ARTIFACTS = ("trajectory.csv", "summary.json", "chart.svg")
# reward_normal < reward_high < penalty_weight; kappa_base > slope and > 0.
COUPLED_KEYS = (
    {"game.reward_normal", "game.reward_high", "game.penalty_weight"},
    {"game.cost_kappa_base", "game.cost_kappa_trust_slope"},
)


def config_text(value) -> str:
    """A config value as the config parser reads it back exactly."""
    return repr(value) if isinstance(value, float) else str(value)


def render_config(cfg: dict) -> str:
    """``key = value`` text for a reference config dict."""
    return "".join(f"{key} = {config_text(value)}\n" for key, value in cfg.items())


def random_config(rng: random.Random, variant: str) -> dict:
    """A full valid config with two-decimal values, so the text form is exact."""
    def real(lo: float, hi: float, digits: int = 2) -> float:
        return round(rng.uniform(lo, hi), digits)

    reward_normal = real(0.5, 2.0)
    reward_high = round(reward_normal + real(0.2, 2.0), 2)
    kappa_base = real(1.5, 4.0)
    return {
        "variant": variant,
        "horizon": rng.randint(20, 100),
        "seed": rng.getrandbits(64),
        "apology.duration": rng.randint(1, 6),
        "game.reward_normal": reward_normal,
        "game.reward_high": reward_high,
        "game.cost_kappa_base": kappa_base,
        "game.cost_kappa_trust_slope": real(0.0, kappa_base - 0.2),
        "game.fatigue_threshold": real(20.0, 120.0, 1),
        "game.penalty_weight": round(reward_high + real(1.0, 200.0, 1), 2),
        "game.cobot_tiebreak_trust": real(0.0, 1.0),
        "game.fatigue_normal_low": real(0.1, 3.0),
        "game.fatigue_normal_high": real(0.1, 3.0),
        "game.fatigue_high_low": real(0.1, 3.0),
        "game.fatigue_high_high": real(0.1, 3.0),
        "trust.gain": real(0.01, 0.2, 3),
        "trust.loss": real(0.01, 0.3, 3),
        "trust.severe_loss": real(0.1, 1.0),
        "trust.initial": real(0.0, 1.0),
        "fatigue.initial": real(0.0, 30.0, 1),
        "disruption.chance": real(0.0, 0.5, 3),
        "disruption.severe_share": real(0.0, 1.0),
        "disruption.difficult_pick_fatigue": real(0.0, 10.0, 1),
    }


class Workload:
    """One op sequence. Subclasses set ``name`` and ``block`` (ops timed
    between two calibrations) and implement the four methods."""

    name = ""
    block = 1

    def __init__(self, cobotsim, seed: int, workdir: Path) -> None:
        self.cs = cobotsim
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.base = self.rng.randrange(1, 2**40)  # first seed of the shifts
        self.index = 0
        self.written: list[tuple[str, int]] = []  # (artifact, bytes) seen by check

    def next_ops(self, n: int) -> list:
        ops = [self.make_op(self.index + i) for i in range(n)]
        self.index += n
        return ops

    def make_op(self, i: int):
        raise NotImplementedError

    def run(self, op):
        """The timed call."""
        raise NotImplementedError

    def check(self, op, result) -> str | None:
        """None when the output matches the reference, else why not."""
        raise NotImplementedError

    def shift_configs(self, op) -> list[dict]:
        """Reference configs of the shifts the op simulates."""
        raise NotImplementedError


class PairedEnsemble(Workload):
    name = "paired-ensemble"

    def make_op(self, i):
        return self.base + i * PAIRED_SEEDS_PER_OP

    def run(self, op):
        return self.cs.cli.format_comparison(PAIRED_SEEDS_PER_OP, op)

    def check(self, op, result):
        return ref.check_comparison(result, PAIRED_SEEDS_PER_OP, op)

    def shift_configs(self, op):
        return [
            ref.resolve({"variant": variant, "seed": op + i})
            for variant in ref.STOCHASTIC
            for i in range(PAIRED_SEEDS_PER_OP)
        ]


class LongShift(Workload):
    name = "long-shift"

    def make_op(self, i):
        cfg = ref.resolve({
            "variant": ref.STOCHASTIC[i % 2],
            "seed": self.base + i // 2,
            "horizon": LONG_HORIZON,
        })
        engine = self.cs.engine
        model = engine.ModelConfig(
            variant=engine.ModelVariant(cfg["variant"]),
            horizon=cfg["horizon"],
            seed=cfg["seed"],
        )
        return model, cfg

    def run(self, op):
        return self.cs.engine.run_shift(op[0])

    def check(self, op, result):
        records, summary = result
        return ref.check_records(records, summary, op[1])

    def shift_configs(self, op):
        return [op[1]]


class CliSweep(Workload):
    name = "cli-sweep"
    block = 10

    def __init__(self, cobotsim, seed, workdir):
        super().__init__(cobotsim, seed, workdir)
        self.stdout = io.StringIO()

    def make_op(self, i):
        variant = ref.VARIANTS[(i // 2) % 4]
        full = random_config(self.rng, variant)
        # Each slot of a block has its own output directory and config file,
        # reused by every block, as a user re-running into one --out
        # directory would. On ext4 over a shared virtual disk, creating a file
        # cost 6x more than rewriting one, and varied with other I/O.
        slot = i % self.block
        out = self.workdir / f"out{slot}"
        argv = ["run", "--emit", EMIT, "--out", str(out)]
        if i % 2 == 0:
            path = self.workdir / f"config{slot}.cfg"
            path.write_text(render_config(full), encoding="utf-8")
            argv += ["--config", str(path)]
            cfg = full
        else:
            # A random subset of keys, always touching the stage game so that
            # no two ops share a GameParams. Keys bound by a cross-field
            # invariant travel together, so the subset stays valid.
            keys = self.rng.sample(ref.GAME_KEYS, 2) + self.rng.sample(
                [k for k in ref.DEFAULTS if k not in ("variant", "seed")], 6
            )
            for group in COUPLED_KEYS:
                if group.intersection(keys):
                    keys += sorted(group)
            overrides = {k: full[k] for k in dict.fromkeys(keys)}
            argv += ["--variant", variant, "--seed", str(full["seed"])]
            for key, value in overrides.items():
                argv += ["--set", f"{key}={config_text(value)}"]
            cfg = ref.resolve({**overrides, "variant": variant, "seed": full["seed"]})
        return argv, out, cfg

    def run(self, op):
        saved, sys.stdout = sys.stdout, self.stdout
        try:
            return self.cs.cli.main(op[0])
        finally:
            sys.stdout = saved
            self.stdout.seek(0)
            self.stdout.truncate()

    def check(self, op, code):
        _, out, cfg = op
        if code != 0:
            return f"exit code {code}"
        texts = {}
        for name in ARTIFACTS:
            path = out / name
            if not path.is_file():
                return f"{name} not written"
            data = path.read_bytes()
            self.written.append((name, len(data)))
            texts[name] = data.decode("utf-8")
        rows = ref.simulate(cfg)
        if texts["trajectory.csv"] != ref.trajectory_csv(rows):
            return "trajectory CSV differs from the reference"
        return ref.check_summary_json(
            texts["summary.json"], ref.summarize(rows, cfg["horizon"])
        ) or ref.check_svg(texts["chart.svg"], rows)

    def shift_configs(self, op):
        return [op[2]]


WORKLOADS = {w.name: w for w in (PairedEnsemble, CliSweep, LongShift)}
