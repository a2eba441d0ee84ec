"""Package surface: the public names resolve, and every module the benchmark
imports by name exists."""

import ast
import importlib
from pathlib import Path

import cobotsim

BENCH_RUNNER = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_every_public_name_resolves_once():
    assert len(cobotsim.__all__) == len(set(cobotsim.__all__))
    missing = [name for name in cobotsim.__all__ if not hasattr(cobotsim, name)]
    assert missing == []


def benchmark_submodules():
    """The ``SUBMODULES`` tuple of the benchmark runner, read without
    importing it."""
    tree = ast.parse(BENCH_RUNNER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SUBMODULES"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SUBMODULES assignment in {BENCH_RUNNER}")


def test_benchmark_submodules_import():
    names = benchmark_submodules()
    assert names
    for name in names:
        importlib.import_module(f"cobotsim.{name}")
