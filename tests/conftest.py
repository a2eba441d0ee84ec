"""Lets ``python3 -m pytest`` import the package from ``src`` without an
install; the subprocesses of the CLI and script tests inherit it through
``PYTHONPATH``."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
