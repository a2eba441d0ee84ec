#!/usr/bin/env python3
"""Run ``snapshot_outputs.py`` under each Python interpreter given and
compare every snapshot with the golden manifest:

    PYTHONPATH=src python3 scripts/cross_version.py PY [PY ...]

Each interpreter imports ``cobotsim`` through the inherited ``PYTHONPATH``,
so pointing it at another tree's ``src`` snapshots that tree. Each
snapshot's ``snapshot_outputs.manifest`` is compared with ``GOLDEN``, this
tree's ``tests/golden/snapshot.sha256``; snapshots that all equal it equal
each other. A matching run prints nothing. Where a snapshot differs, the
script prints a line naming the interpreter, its version and the manifest,
then each relative path whose hash differs or that only one of the two
lists.

Exits 1 if any snapshot differs from the golden manifest or fails to run,
else 0.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import snapshot_outputs

SNAPSHOT = Path(snapshot_outputs.__file__).resolve()
GOLDEN = SNAPSHOT.parent.parent / "tests" / "golden" / "snapshot.sha256"
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


def mismatches(manifest: str, golden: str) -> list[str]:
    """The relative paths whose hash differs between two manifests, or that
    only one of them lists, sorted."""
    got, expected = (
        {path: digest for digest, path in (line.split("  ", 1) for line in text.splitlines())}
        for text in (manifest, golden)
    )
    return sorted(path for path in got.keys() | expected.keys()
                  if got.get(path) != expected.get(path))


def main(pythons: list[str]) -> int:
    status = 0
    golden = GOLDEN.read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        names = [snapshot(python, i, Path(tmp)) for i, python in enumerate(pythons)]
        if None in names:
            return 1
        for python, name in zip(pythons, names):
            version = name.partition("-")[2]
            differ = mismatches(snapshot_outputs.manifest(Path(tmp, name)), golden)
            if differ:
                print(f"== {python} ({version}) against {GOLDEN.name}")
                print(*differ, sep="\n")
                status = 1
    return status


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {Path(sys.argv[0]).name} PY [PY ...]")
    sys.exit(main(sys.argv[1:]))
