"""List the error branches of src/tgq that a test run never executes.

An error branch is a ``raise`` statement or a ``_fail(...)`` call inside a
function. The script runs pytest in this process under ``sys.settrace``,
recording the lines executed in files under src/tgq only, then prints each
branch none of whose lines ran, as ``path:line: source``, and their count.
Subprocesses (the CLI tests that start ``tgq``) are not traced.

    PYTHONPATH=src python tests/trace_errors.py [pytest arguments]

With no arguments it runs ``tests`` (tier-1), which takes a few minutes.
Pytest does not collect this file.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tgq"


def error_branches(path: Path) -> list:
    """(first line, last line) of each error branch inside a function."""
    out = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Raise) or (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name) and node.value.func.id == "_fail"):
                out.append((node.lineno, node.end_lineno))
    return sorted(set(out))


def traced_lines(args: list) -> tuple:
    """Run pytest with ``args``; return its exit code and the set of
    (filename, line) executed under src/tgq."""
    inside = {}  # co_filename -> whether it lies under src/tgq
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().is_relative_to(SRC)
        return local if inside[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, {(str(Path(name).resolve()), line) for name, line in hit}


def main(argv: list) -> int:
    code, hit = traced_lines(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_text().splitlines()
        name = str(path)
        for first, last in error_branches(path):
            if not any((name, line) in hit for line in range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} error branches never executed (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
