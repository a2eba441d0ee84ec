"""Lets ``python3 -m pytest perfbench`` import the package from ``src``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
