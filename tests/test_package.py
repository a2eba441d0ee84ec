"""Package surface: the public names are the pinned ones and resolve, every
module the benchmark imports by name exists, and the CLI names its tracer
wraps are bound."""

import ast
import importlib
from pathlib import Path

import cobotsim

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_RUNNER = BENCH / "run.py"
BENCH_TRACING = BENCH / "tracing.py"


def test_every_public_name_resolves_once():
    assert len(cobotsim.__all__) == len(set(cobotsim.__all__))
    missing = [name for name in cobotsim.__all__ if not hasattr(cobotsim, name)]
    assert missing == []


def test_public_names_are_pinned():
    # A public name is added or removed on purpose, here as well.
    assert sorted(cobotsim.__all__) == [
        "ActionPair", "CollabLevel", "ConfigError", "DisruptionEvent",
        "DisruptionParams", "EffortLevel", "EnsembleSummary", "GameParams",
        "InteractionOutcome", "ModelConfig", "ModelVariant", "ShiftSummary",
        "StepRecord", "TrustParams", "TrustRule", "classify_interaction",
        "emit_summary_json", "emit_svg_chart", "emit_trajectory_csv",
        "fatigue_increment", "human_reward", "parse_config", "render_config",
        "run_ensemble", "run_paired", "run_shift", "update_trust",
    ]


def benchmark_constant(path, name):
    """The literal assigned to ``name`` at the top level of the benchmark
    file ``path``, read without importing it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} assignment in {path}")


def test_benchmark_submodules_import():
    names = benchmark_constant(BENCH_RUNNER, "SUBMODULES")
    assert names
    for name in names:
        importlib.import_module(f"cobotsim.{name}")


def test_traced_cli_bindings_resolve():
    # The tracer skips a binding that is gone, so a renamed CLI import would
    # report its span as zero calls instead of failing.
    bindings = benchmark_constant(BENCH_TRACING, "BINDINGS")
    cli = importlib.import_module("cobotsim.cli")
    attrs = [attr for module, attr, _ in bindings if module == "cobotsim.cli"]
    assert attrs
    assert [attr for attr in attrs if not hasattr(cli, attr)] == []
