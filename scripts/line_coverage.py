#!/usr/bin/env python3
"""The statements of src/pargal that the tier-1 tests never run.

    python3 scripts/line_coverage.py [PYTEST_ARGS ...]

Runs pytest in this process under ``sys.settrace`` (the whole tier-1 suite,
or the tests PYTEST_ARGS select) and records the lines run in the files of
``src/pargal``; no other frame is traced line by line.  A statement is a
line on which the syntax tree starts a statement and the compiler placed
code, so ``else:`` and ``except`` lines and function docstrings are none.
Prints, for each module, the count of statements never run and their lines,
consecutive statements joined as ``a-b``, then the count over the package.
Needs the standard library and pytest only.  The trace makes tier-1 three
to four times slower.  Exits with pytest's exit code.
"""

import ast
import os
import sys
import threading
import types

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
PACKAGE = os.path.join(ROOT, "src", "pargal")
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "tests"]


def statements(path: str) -> list:
    """The sorted lines of ``path`` that start a statement holding code."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    coded = set()
    stack = [compile(tree, path, "exec")]
    while stack:
        code = stack.pop()
        coded.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return sorted(starts & coded)


def spans(missed: list, lines: list) -> str:
    """``missed`` as a comma list, runs of consecutive entries of ``lines`` as a-b."""
    position = {line: i for i, line in enumerate(lines)}
    out = []
    for line in missed:
        if out and position[line] == position[out[-1][1]] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def traced_run(args) -> tuple:
    """pytest's exit code on ``args`` and {path: set of lines run} for the
    files of the package, traced from before the package is first imported."""
    import pytest

    hits = {}
    local_tracers = {}  # co_filename -> the line tracer of its file, or None

    def local_for(filename):
        path = os.path.realpath(filename)
        if os.path.dirname(path) != PACKAGE:
            return None
        lines = hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            local = local_tracers[filename]
        except KeyError:
            local = local_tracers[filename] = local_for(filename)
        return local

    sys.settrace(trace)
    threading.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)  # pytest reads pyproject.toml, and its pythonpath, from here
    code, hits = traced_run(argv or TIER1)
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = statements(path)
        run = hits.get(path, set())
        missed = [line for line in lines if line not in run]
        total += len(missed)
        print(f"src/pargal/{name}: {len(missed)} of {len(lines)} statements never run"
              + (f": {spans(missed, lines)}" if missed else ""))
    print(f"src/pargal: {total} statements never run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
