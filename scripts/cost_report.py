#!/usr/bin/env python3
"""Print what ``src/cobotsim`` costs in counts that do not vary between runs:
the size of each module, the opcodes and Python calls that one fixed op of
each benchmark workload and a 1000-seed ensemble execute, and the functions
that execute most of their opcodes.

    PYTHONPATH=src python3 scripts/cost_report.py

Run it on two trees to compare them where timings cannot resolve the
difference.

Size: per module, the physical lines and the code lines. Code lines are
those holding a token found with ``tokenize`` other than a comment, a line
break, an indent or a docstring (a string that is a statement of its own),
so blank lines, comments and docstrings are left out.

Environment: argparse reads the terminal size from ``COLUMNS`` and
``LINES``, and its gettext calls read ``LANGUAGE``, ``LC_ALL`` and
``LANG``, so the count of an op that parses with argparse would follow the
shell. The ``run`` op's line is exact flag-value pairs, which ``cli`` reads
without argparse, but the script still sets these five to fixed values
(``ENVIRONMENT``; an empty ``LANGUAGE`` is skipped by gettext) before its
ops and prints them, so an op that does reach argparse counts the same in
every shell.

Opcodes: each op runs once to warm up (imports, memos, lazily built
constants), then once more with ``sys.settrace`` and ``f_trace_opcodes``
counting every opcode executed in Python frames; C functions count nothing.

Calls: the same traced run counts the ``call`` events its hook receives,
one per Python frame entered (a resumed generator enters its frame again).
The work a call does in C, such as ``type.__call__`` creating an instance,
executes no opcode of its own, so a saving there shows in this column
rather than in the opcodes.

Functions: each op's five functions that executed the most of its opcodes,
with their share of the op's opcodes, named ``file:qualified name``. A
dataclass's generated ``__init__`` reads
``<string>:__create_fn__.<locals>.__init__``.

Files: each op's opcodes rolled up per file name, largest share first, so
``engine.py``, ``argparse.py`` or ``<string>`` (generated dataclass code)
read as one layer each (``file_shares``, which ``bench.py`` records too).

Output cut short by a closed pipe (``| head``) ends the script quietly.
"""

import contextlib
import io
import os
import sys
import tempfile
import tokenize
from collections import Counter
from pathlib import Path

from cobotsim import cli, engine

PACKAGE = Path(cli.__file__).resolve().parent
# Tokens that are layout, not code.
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
# The variables the ops read, set before they run.
ENVIRONMENT = {
    "COLUMNS": "80", "LINES": "24", "LANGUAGE": "", "LC_ALL": "C", "LANG": "C",
}


def code_lines(text: str) -> int:
    """Lines of ``text`` that hold code: not blank, comment or docstring."""
    tokens = [
        tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines = set()
    before = tokenize.NEWLINE  # the file starts a statement
    for tok, after in zip(tokens, tokens[1:]):
        docstring = (tok.type == tokenize.STRING and before in STATEMENT_START
                     and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if tok.type not in LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        before = tok.type
    return len(lines)


def opcodes(op) -> tuple[Counter, int]:
    """Opcodes executed by ``op()`` after one warm-up call, per function,
    ``{(file, qualified name): count}``, and the Python calls it made."""
    op()
    counts = Counter()
    calls = 0

    def enter(frame, event, arg):
        nonlocal calls
        calls += 1
        frame.f_trace_opcodes = True
        code = frame.f_code
        function = code.co_filename, getattr(code, "co_qualname", code.co_name)

        def local(frame, event, arg):
            if event == "opcode":
                counts[function] += 1
            return local

        return local

    sys.settrace(enter)
    try:
        op()
    finally:
        sys.settrace(None)
    return counts, calls


def ops(tmp: Path):
    """``(name, op)`` of one fixed op per benchmark workload, then a
    1000-seed ensemble, whose counts show the cost of each seed beyond its
    shift."""
    yield "compare --seeds 25 (paired-ensemble)", lambda: cli.format_comparison(25, 1001)
    shift = engine.ModelConfig(variant=engine.ModelVariant.V1_3, horizon=2000, seed=11)
    yield "v1.3 2000-turn run_shift (long-shift)", lambda: engine.run_shift(shift)
    runs = iter(range(2))

    def run():
        # A fresh directory per call, so every call makes the same writes.
        out = tmp / f"run{next(runs)}"
        argv = ["run", "--variant", "v1.2", "--seed", "7", "--out", str(out),
                "--emit", "csv,json,svg"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    yield "run --emit csv,json,svg (cli-sweep)", run
    ensemble = engine.ModelConfig(variant=engine.ModelVariant.V1_3)
    yield "v1.3 1000-seed run_ensemble", lambda: engine.run_ensemble(ensemble, 1000)


def sizes():
    """``(file name, physical lines, code lines)`` of each module."""
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        yield path.name, len(text.splitlines()), code_lines(text)


def counted_ops():
    """``(name, opcodes per function, calls)`` of each op of ``ops``, run
    under ``ENVIRONMENT`` in a temporary directory."""
    os.environ.update(ENVIRONMENT)
    with tempfile.TemporaryDirectory() as tmp:
        for name, op in ops(Path(tmp)):
            yield name, *opcodes(op)


def file_shares(counts: Counter) -> dict[str, float]:
    """``{file name: share of the op's opcodes}`` of ``counts``, the opcodes
    per function of ``opcodes``, largest share first."""
    files = Counter()
    for (file, _), count in counts.items():
        files[Path(file).name] += count
    total = counts.total()
    return {file: count / total for file, count in files.most_common()}


def main() -> int:
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    total_lines = total_code = 0
    for name, lines, code in sizes():
        total_lines += lines
        total_code += code
        print(f"{name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")
    print()
    print("environment")
    for name, value in ENVIRONMENT.items():
        print(f"{name}={value}")
    print()
    print(f"{'op':<40} {'opcodes':>9} {'calls':>7}")
    counted = []
    for name, counts, calls in counted_ops():
        counted.append((name, counts))
        print(f"{name:<40} {counts.total():>9} {calls:>7}")
    print()
    print(f"{'share':>8}  op / function")
    for name, counts in counted:
        print(name)
        for (file, function), count in counts.most_common(5):
            print(f"{100 * count / counts.total():>6.1f} %  {Path(file).name}:{function}")
    print()
    print(f"{'share':>8}  op / file")
    for name, counts in counted:
        print(name)
        for file, share in file_shares(counts).items():
            print(f"{100 * share:>6.2f} %  {file}")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: send that to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
