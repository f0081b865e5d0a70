#!/usr/bin/env python3
"""List the statements in src/micromaps that no tier-1 test runs.

Runs the tier-1 suite in this process under ``sys.settrace`` (stdlib only;
``coverage`` is not a dependency) and prints each statement of
``src/micromaps/*.py`` that never ran, one per line as
``file:line: source`` on stdout; the suite's report and the count go to
stderr. String statements (docstrings) are left out. A statement counts
as run when any line it owns ran: every line of a simple statement, only
the header of a compound one (``if``, ``for``, ``def``...), whose body
statements count on their own.
Code that runs only in a child process, such as a ``micromaps`` command a
test starts with ``subprocess``, is not seen.

Run from the repo root:  python3 tools/unrun_statements.py

It takes about three times as long as the untraced suite. The exit status
is pytest's, so a failing suite is not mistaken for a coverage report.
"""

from __future__ import annotations

import ast
import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "micromaps"


def _owned_lines(node: ast.stmt) -> range:
    """The lines whose execution means ``node`` ran."""
    bodies = [getattr(node, name) for name in ("body", "handlers", "orelse",
                                               "finalbody", "cases")
              if getattr(node, name, None)]
    if not bodies:
        return range(node.lineno, node.end_lineno + 1)
    decorators = getattr(node, "decorator_list", [])
    start = min([node.lineno] + [d.lineno for d in decorators])
    first_child = min(body[0].lineno for body in bodies)
    return range(start, max(first_child, start + 1))


def _statements(path: Path) -> list[tuple[int, range, str]]:
    """Each non-string statement of a module: its line, the lines it owns
    and its first source line, in line order."""
    source = path.read_text("utf-8")
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        out.append((node.lineno, _owned_lines(node),
                    lines[node.lineno - 1].strip()))
    return sorted(out, key=lambda statement: statement[0])


def _code_lines(path: Path) -> set[int]:
    """Lines that carry bytecode, so that running them emits a line event."""
    found: set[int] = set()
    stack = [compile(path.read_text("utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        found.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return found


def main() -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    import pytest  # the suite's pyproject settings put src/ on the path

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        # The suite's own report goes to stderr; stdout is the list.
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider",
                                  str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    unrun = 0
    for name, path in files.items():
        executable = _code_lines(path)
        for line, owned, text in _statements(path):
            if executable.intersection(owned) and not ran[name].intersection(owned):
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
                unrun += 1
    print(f"{unrun} statements unrun", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
