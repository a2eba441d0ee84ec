"""Lets ``python3 -m pytest`` import the package from ``src`` without an
install; the subprocesses of the CLI and script tests inherit it through
``PYTHONPATH``. Also holds the fatigue-table helpers the tests share."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)

from cobotsim import CollabLevel, EffortLevel, fatigue_increment  # noqa: E402
from cobotsim.game import ACTION_PAIRS  # noqa: E402


def fatigue_fields(table):
    """``GameParams`` keyword arguments setting each increment of ``table``,
    a dict keyed by (effort, collaboration)."""
    return {f"fatigue_{e.value}_{c.value}": inc for (e, c), inc in table.items()}


def fatigue_table(game):
    """``game``'s increment per (effort, collaboration), effort-major, each
    read through ``fatigue_increment``."""
    return {
        (effort, collab): fatigue_increment(ACTION_PAIRS[collab, effort], game)
        for effort in EffortLevel
        for collab in CollabLevel
    }
