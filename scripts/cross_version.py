#!/usr/bin/env python3
"""Run ``snapshot_outputs.py`` under each Python interpreter given and
compare every snapshot with the first one's:

    PYTHONPATH=src python3 scripts/cross_version.py PY [PY ...]

Each interpreter imports ``cobotsim`` through the inherited ``PYTHONPATH``,
so pointing it at another tree's ``src`` snapshots that tree. For each
interpreter after the first, the script prints a line naming it and its
version, then the output of ``diff -r`` between the first snapshot and its
own; the snapshot directories are named ``<index>-<version>``, so the
output does not depend on where they are written.

Exits 1 if any snapshot differs from the first or fails to run, else 0.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

SNAPSHOT = Path(__file__).resolve().parent / "snapshot_outputs.py"
VERSION = "import platform; print(platform.python_version())"


def python_version(python: str) -> str:
    """The version ``python`` reports; raises ``OSError`` or
    ``subprocess.CalledProcessError`` if it does not run."""
    return subprocess.run(
        [python, "-c", VERSION], capture_output=True, text=True, check=True
    ).stdout.strip()


def snapshot(python: str, index: int, tmp: Path) -> str | None:
    """Snapshot under ``python`` into ``tmp``; the directory's name, or
    None after printing why it failed."""
    try:
        version = python_version(python)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"{python}: cannot run: {error}", file=sys.stderr)
        return None
    name = f"{index}-{version}"
    result = subprocess.run(
        [python, str(SNAPSHOT), str(tmp / name)], capture_output=True, text=True
    )
    if result.returncode:
        print(f"{python} ({version}): snapshot exited {result.returncode}", file=sys.stderr)
        print(result.stderr, end="", file=sys.stderr)
        return None
    return name


def main(pythons: list[str]) -> int:
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        names = [snapshot(python, i, Path(tmp)) for i, python in enumerate(pythons)]
        if None in names:
            return 1
        first = names[0]
        for python, name in zip(pythons[1:], names[1:]):
            print(f"== {python} ({name.partition('-')[2]}) against {first}")
            diff = subprocess.run(
                ["diff", "-r", first, name], cwd=tmp, capture_output=True, text=True
            )
            print(diff.stdout, end="")
            if diff.returncode:
                status = 1
    return status


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {Path(sys.argv[0]).name} PY [PY ...]")
    sys.exit(main(sys.argv[1:]))
