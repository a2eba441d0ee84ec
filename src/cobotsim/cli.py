"""Command line: single shifts, seed ensembles, the KPI table, and the paired
resilience comparison.

Configuration resolution order: built-in defaults, then --config file, then
--variant/--seed shorthands, then --set overrides (last wins).

Each command's flags are declared once, in ``_COMMANDS``. A line of a
command and exact ``--flag value`` pairs is read straight from that table,
with no argparse parser built; argparse reads every other line, and writes
all help, usage and error text (see ``parse_command_line``).
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import shutil
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from .charts import emit_svg_chart
from .configio import (
    ConfigError, apply_settings, config_with_overrides, parse_config, read_overrides,
)
from .engine import (
    MAX_SEED,
    ModelConfig,
    ModelVariant,
    median_recovery_capped,
    run_ensemble,
    run_paired,
    run_shift,
)
from .reports import emit_summary_json, emit_trajectory_csv

EMIT_FORMATS = ("csv", "json", "svg")
# ``ensemble`` over this many seeds takes about 2.6 s (median of 6, 2.2-3.4
# s) and 32 MB peak RSS (CPython 3.11, 2-vCPU Xeon): it keeps each seed's
# KPIs and first severe failure, not its shift.
MAX_SEEDS = 100_000
# Artifacts are rewritten in place; O_BINARY (Windows only) keeps LF as LF.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _load_config(args: argparse.Namespace) -> ModelConfig:
    if args.config is not None:
        path = Path(args.config)
        try:
            # is_file() and exists() read only some errors as "no such file";
            # the rest, such as a name too long, are raised.
            if not path.is_file():
                if path.exists():
                    raise ConfigError(f"config path is not a regular file: {path}")
                raise ConfigError(f"config file not found: {path}")
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        cfg = parse_config(text)
    else:
        cfg = ModelConfig()
    # The shorthands are values, not config lines; an error names its flag.
    shorthands = [("--variant", "variant", args.variant), ("--seed", "seed", args.seed)]
    settings = [(flag, key, str(raw)) for flag, key, raw in shorthands if raw is not None]
    if settings:
        cfg = apply_settings(cfg, settings)
    if args.overrides:
        cfg = config_with_overrides(cfg, args.overrides)
    return cfg


def _check_base_seed(args: argparse.Namespace) -> None:
    """--seeds must lie in [1, MAX_SEEDS], and every seed of --base-seed ..
    --base-seed + --seeds - 1 must be an unsigned 64-bit integer."""
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1 (got {args.seeds})")
    if args.seeds > MAX_SEEDS:
        raise ConfigError(f"--seeds must be <= {MAX_SEEDS} (got {args.seeds})")
    last = args.base_seed + args.seeds - 1
    if args.base_seed < 0 or last > MAX_SEED:
        raise ConfigError(
            f"--base-seed {args.base_seed} with --seeds {args.seeds} leaves "
            f"[0, {MAX_SEED}] (seeds must be unsigned 64-bit integers)"
        )


def _check_finite(fatigue: list[float], productivity: list[float], where: str) -> None:
    """A KPI that overflowed is an artifact of the inputs, not a model
    state: report it, naming the keys that drive it, rather than emit it."""
    if not all(map(math.isfinite, fatigue)):
        raise ConfigError(
            f"fatigue overflows to inf {where}; lower fatigue.initial, the "
            "game.fatigue_* entries or disruption.difficult_pick_fatigue"
        )
    if not all(map(math.isfinite, productivity)):
        raise ConfigError(
            f"productivity overflows {where}; lower the game.reward_* entries "
            "or horizon"
        )


def _write_out(out: str, files: dict[str, str]) -> None:
    """Write each ``name: text`` of ``files`` into directory ``out``, creating
    it, and report every file written. A directory that cannot be used is a
    config error naming --out.

    Each file is truncated and then written as the UTF-8 bytes of its text,
    with LF line endings on every platform: the bytes go straight to
    ``os.write``, with no text layer to translate newlines.

    The directory is made only when it is not one already. Each file's path
    is ``prefix + name``, with ``prefix = str(out_dir / "x")[:-1]`` computed
    once: every name here is one plain component, so that is
    ``str(out_dir / name)`` on every path flavour (``os.path.join`` is not:
    on Windows it joins ``./C:`` and a name as ``C:name``)."""
    out_dir = Path(out)
    written = []
    try:
        if not out_dir.is_dir():
            out_dir.mkdir(parents=True, exist_ok=True)
        prefix = str(out_dir / "x")[:-1]
        for name, text in files.items():
            path = prefix + name
            data = text.encode("utf-8")
            fd = os.open(path, _WRITE_FLAGS, 0o666)
            try:
                while data:  # a write may take fewer bytes than it is given
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            written.append(path)
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc}") from None
    for path in written:
        print(f"wrote {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    formats = [f.strip() for f in args.emit.split(",") if f.strip()]
    for f in formats:
        if f not in EMIT_FORMATS:
            raise ConfigError(
                f"unknown emit format '{f}' (valid: {', '.join(EMIT_FORMATS)})"
            )
    if not formats:
        raise ConfigError("at least one emit format is required")

    records, summary = run_shift(cfg)
    _check_finite(
        [summary.peak_fatigue], [summary.productivity], f"in seed {cfg.seed}"
    )
    print(
        f"{cfg.variant.value} seed {cfg.seed}: productivity {summary.productivity:g}, "
        f"final trust {summary.final_trust:g}, final fatigue {summary.final_fatigue:g}"
    )
    files = {}
    if "csv" in formats:
        files["trajectory.csv"] = emit_trajectory_csv(records)
    if "json" in formats:
        files["summary.json"] = emit_summary_json(summary)
    if "svg" in formats:
        files["chart.svg"] = emit_svg_chart(records)
    _write_out(args.out, files)
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    # A config file's seed line is accepted, since render_config writes one;
    # a flag asking for a seed would be ignored. The pairs are read in order,
    # so a malformed pair before a seed pair is reported as such.
    if args.seed is not None or any(
        key == "seed" for _, key, _ in read_overrides(args.overrides)
    ):
        flag = "--seed" if args.seed is not None else "--set seed"
        raise ConfigError(
            f"{flag} does not apply to ensemble, which runs --seeds consecutive "
            "seeds; choose the first with --base-seed"
        )
    cfg = _load_config(args)
    _check_base_seed(args)
    ens = run_ensemble(cfg, args.seeds, args.base_seed)
    # An overflow in any seed, or in a sum over seeds, leaves a mean or a
    # median non-finite.
    last = args.base_seed + args.seeds - 1
    _check_finite(
        [ens.mean_final_fatigue, ens.median_final_fatigue],
        [ens.mean_productivity, ens.median_productivity],
        f"across seeds {args.base_seed}..{last}",
    )
    print(
        f"{cfg.variant.value}: {ens.n_seeds} seeds from {ens.base_seed} — "
        f"mean productivity {ens.mean_productivity:.2f}, "
        f"mean final trust {ens.mean_final_trust:.3f}, "
        f"mean final fatigue {ens.mean_final_fatigue:.2f}, "
        f"censored recoveries {ens.censored_count}/{ens.runs_with_severe}"
    )
    if args.out is not None:
        _write_out(args.out, {"ensemble.json": emit_summary_json(ens)})
    return 0


def _paired_recovery(n_seeds: int, base_seed: int) -> tuple:
    """v1.2 and v1.3 at the defaults over the same seeds: ``(ensembles,
    capped median first recoveries, cap, ratio v1.3/v1.2)``. Censored
    recoveries count as the horizon; the ratio is nan without a v1.2 median."""
    base = ModelConfig(variant=ModelVariant.V1_2)
    # Built by replace, so both hold one GameParams and TrustParams and
    # run_paired gives them one stage policy (see its docstring).
    cfgs = [base, replace(base, variant=ModelVariant.V1_3)]
    ensembles = run_paired(cfgs, n_seeds, base_seed)
    cap = float(cfgs[0].horizon)
    med12, med13 = medians = [median_recovery_capped(ens, cap=cap) for ens in ensembles]
    return ensembles, medians, cap, med13 / med12 if med12 else float("nan")


def format_kpi_table(n_seeds: int, base_seed: int = 1) -> str:
    """KPI table across all variants: deterministic rows exactly, stochastic
    rows as ensemble means (single runs of those variants are seed lottery)."""
    rows = []
    for variant in (ModelVariant.V1_0, ModelVariant.V1_1):
        _, s = run_shift(ModelConfig(variant=variant))
        behavior = (
            "trust collapses to 0"
            if s.final_trust < 0.5
            else "trust stable at maximum"
        )
        rows.append(
            (variant.value, f"{s.productivity:g}", f"{s.final_fatigue:g}",
             f"{s.final_trust:.2f}", behavior)
        )

    ensembles, medians, cap, ratio = _paired_recovery(n_seeds, base_seed)
    for label, ens, med in zip(("v1.2*", "v1.3*"), ensembles, medians):
        behavior = "no severe failure" if med is None else (
            f"median recovery {med:g} turns, "
            f"{ens.censored_count}/{ens.runs_with_severe} censored"
        )
        rows.append(
            (label, f"{ens.mean_productivity:.1f}",
             f"{ens.mean_final_fatigue:.1f}", f"{ens.mean_final_trust:.2f}", behavior)
        )

    header = ("Model", "Productivity", "Final fatigue", "Final trust", "Trust behavior / recovery")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    # The last column is left unpadded: no line ends in spaces.
    lines = [" | ".join([*(c.ljust(w) for c, w in zip(r, widths[:-1])), r[-1]])
             for r in (header, *rows)]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    lines += [
        "",
        f"* ensemble mean over {n_seeds} seeds (base seed {base_seed}); "
        "single runs of the stochastic variants depend entirely on the seed.",
        f"recovery-time ratio v1.3/v1.2 (medians, censored counted as {cap:g}): "
        f"{ratio:.3f}",
    ]
    return "\n".join(lines) + "\n"


def format_comparison(n_seeds: int, base_seed: int = 1) -> str:
    """Paired-seed v1.2 vs v1.3 report. The same seed yields the same
    disruption schedule in both variants, so each row is a controlled pair."""
    if n_seeds < 2:
        raise ConfigError(f"compare requires at least 2 seeds (got {n_seeds})")
    (ens12, ens13), (med12, med13), cap, ratio = _paired_recovery(n_seeds, base_seed)

    def cell(first) -> str:
        if first is None:
            return "no severe failure"
        turn, steps = first
        return f"t={turn} k={'censored' if steps is None else steps}"

    lines = [
        f"paired comparison, {n_seeds} seeds from {base_seed} "
        "(identical disruption schedules per seed)",
        "",
        f"{'seed':>8} | {'v1.2 first recovery':<22} | v1.3 first recovery",
        f"{'-' * 8}-+-{'-' * 22}-+-{'-' * 22}",
    ]
    for i, (f12, f13) in enumerate(zip(ens12.first_failures, ens13.first_failures)):
        lines.append(f"{base_seed + i:>8} | {cell(f12):<22} | {cell(f13)}")

    lines += [
        "",
        f"runs with a severe failure: v1.2 {ens12.runs_with_severe}, "
        f"v1.3 {ens13.runs_with_severe}",
        f"censored recoveries:        v1.2 {ens12.censored_count}, "
        f"v1.3 {ens13.censored_count}",
        f"median first recovery (censored as {cap:g}): "
        f"v1.2 {med12 if med12 is not None else 'n/a'}, "
        f"v1.3 {med13 if med13 is not None else 'n/a'}",
        f"reduction ratio v1.3/v1.2: {ratio:.3f}",
        f"mean final trust:   v1.2 {ens12.mean_final_trust:.3f}, "
        f"v1.3 {ens13.mean_final_trust:.3f}",
        f"mean final fatigue: v1.2 {ens12.mean_final_fatigue:.2f}, "
        f"v1.3 {ens13.mean_final_fatigue:.2f}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_report(args: argparse.Namespace) -> int:
    """``table2`` and ``compare``: print the report and, with --out, save it
    as ``<command>.txt``."""
    _check_base_seed(args)
    report = format_kpi_table if args.command == "table2" else format_comparison
    text = report(args.seeds, args.base_seed)
    print(text, end="")
    if args.out is not None:
        _write_out(args.out, {f"{args.command}.txt": text})
    return 0


# The flags of each command, as ``add_argument`` keywords by flag, in the
# order its help lists them. ``build_parser``, the one-command parser and
# ``_read_exact`` all read them, so a flag is declared here alone. An
# ``append`` flag's default is a new empty list each time (``_default``).
_CONFIG_FLAGS = {
    "--config": {"metavar": "FILE", "help": "key = value config file"},
    "--set": {"dest": "overrides", "metavar": "KEY=VALUE", "action": "append",
              "help": "override any config scalar by dotted key (repeatable)"},
    "--variant": {"help": "model variant: v1.0, v1.1, v1.2 or v1.3"},
    "--seed": {"type": int, "help": "random seed (unsigned 64-bit)"},
}


def _seed_flags(seeds_help: str) -> dict[str, dict]:
    return {
        "--seeds": {"type": int, "default": 1000, "help": seeds_help},
        "--base-seed": {"type": int, "default": 1, "help": "first seed"},
        "--out": {"metavar": "DIR", "help": "output directory"},
    }


# Each command's help line, flags and handler, in the order the help lists
# them.
_COMMANDS = {
    "run": ("simulate one shift and write its artifacts", {
        **_CONFIG_FLAGS,
        "--out": {"metavar": "DIR", "default": "out", "help": "output directory"},
        "--emit": {"default": "csv,json",
                   "help": "comma-separated artifact formats from: csv, json, svg"},
    }, _cmd_run),
    "ensemble": ("run one variant across consecutive seeds",
                 {**_CONFIG_FLAGS, **_seed_flags("number of seeds")}, _cmd_ensemble),
    "table2": ("KPI table: deterministic variants exactly, stochastic as ensembles",
               _seed_flags("ensemble size"), _cmd_report),
    "compare": ("paired-seed resilience comparison of v1.2 vs v1.3",
                _seed_flags("number of paired seeds"), _cmd_report),
}


def _dest(flag: str, options: dict) -> str:
    """The attribute argparse stores ``flag`` under."""
    return options.get("dest") or flag[2:].replace("-", "_")


def _default(options: dict):
    """A flag's value when the line does not give it."""
    return [] if options.get("action") == "append" else options.get("default")


def _add_flags(parser: argparse.ArgumentParser, flags: dict[str, dict]) -> None:
    for flag, options in flags.items():
        parser.add_argument(flag, **{**options, "default": _default(options)})


def _read_exact(command: str, tokens: list[str]) -> argparse.Namespace | None:
    """The ``Namespace`` argparse reads from ``[command, *tokens]`` when
    ``tokens`` are pairs of an exact long flag of ``command`` and a ``str``
    value that does not start with ``-`` and converts by the flag's ``type``;
    None for any other line (``-h``, an abbreviation, ``--flag=value``, a
    negative number, ``--``, an odd count, an unknown flag or a failed
    conversion), which argparse must read. The last value of a repeated
    flag wins, and an ``append`` flag adds each to a new list."""
    if len(tokens) % 2:
        return None
    flags = _COMMANDS[command][1]
    args = argparse.Namespace(command=command)
    for flag, options in flags.items():
        setattr(args, _dest(flag, options), _default(options))
    for flag, value in zip(tokens[::2], tokens[1::2]):
        options = flags.get(flag)
        if options is None or type(value) is not str or value[:1] == "-":
            return None
        kind = options.get("type")
        if kind is not None:
            try:
                value = kind(value)
            except (TypeError, ValueError):
                return None
        dest = _dest(flag, options)
        if options.get("action") == "append":
            value = getattr(args, dest) + [value]
        setattr(args, dest, value)
    return args


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose help, written into a closed stdout,
    raises the ``BrokenPipeError`` that argparse's own write drops, so
    ``main`` exits 1 whether stdout is buffered or not."""

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def _formatter() -> partial:
    # argparse makes a formatter for every add_argument, and each one asks for
    # the terminal size; ask once instead, with argparse's own margin of 2.
    return partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with a sub-parser for each command: it alone can list
    the commands in its help or report a missing or unknown one."""
    formatter = _formatter()
    parser = _Parser(
        prog="cobotsim",
        description="Simulate human-cobot picking shifts with trust and fatigue "
        "co-regulation.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags, _) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_line, formatter_class=formatter), flags)
    return parser


def parse_command_line(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the same output and exit
    status, building as little of argparse as the line needs. A command
    followed by exact flag-value pairs builds no parser: ``_read_exact``
    reads it from the flag table. Any other line that starts with a command
    builds only that command's parser, the one ``build_parser`` would hand
    the rest of the line. The full parser is built for anything else (no
    argument, ``--help``, an unknown command, an option before the command)
    and to report arguments the command leaves unread. An option before a
    command named later is an error that shows the line with the command
    moved to the front. Argparse writes every help, usage and error text.
    """
    first = argv[0] if argv else None
    if first in _COMMANDS:
        args = _read_exact(first, argv[1:])
        if args is not None:
            return args
        parser = _Parser(prog=f"cobotsim {first}", formatter_class=_formatter())
        _add_flags(parser, _COMMANDS[first][1])
        args, extras = parser.parse_known_args(argv[1:])
        if extras:
            build_parser().error("unrecognized arguments: " + " ".join(extras))
        args.command = first
        return args
    parser = build_parser()
    if first and first.startswith("-") and first not in ("-h", "--help"):
        command = next((arg for arg in argv[1:] if arg in _COMMANDS), None)
        if command is not None:
            rest = list(argv)
            rest.remove(command)
            parser.error(
                "options go after the command, as in: "
                f"cobotsim {shlex.join([command, *rest])}"
            )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``); return the
    exit status: 0 on success, 2 on a config error, 1 when stdout is closed.
    ``parse_command_line`` reads it: argparse runs only for a line that is
    not a command followed by exact flag-value pairs, and builds the full
    parser only when the line does not start with a command or the command
    leaves arguments unread.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = parse_command_line(argv)
            _, _, handler = _COMMANDS[args.command]
            return handler(args)
        finally:
            # A closed pipe surfaces here when stdout is buffered.
            sys.stdout.flush()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python flushes stdout again at exit: send that to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
