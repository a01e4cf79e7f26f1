"""A gate: every statement of src/hypiso is run by some tier-1 test, but
the ones in EXPECTED.

Runs the tests under tests/ in this process, as `python -m pytest` does,
with a line tracer limited to the files of src/hypiso (``coverage`` is not
needed), then prints each executable statement that never ran, as
``file:line  text``, and the wall time.  pytest does not collect this file.
Run it from anywhere, with no arguments:

    python tests/unrun_lines.py

It exits 1 when a statement outside EXPECTED never ran, or when one in
EXPECTED ran, and names each such statement; otherwise 0.  A test that runs
the library in a subprocess is not traced, so a statement that only such a
test runs is listed too.  Definitions (``def``, ``class``) are not listed:
their bodies speak for them.  The list is the union over every test, not a
map from lines to the tests that run them.
"""

from __future__ import annotations

import ast
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "hypiso"

# (file, statement text) of each statement that no traced test can run
EXPECTED = {
    ("cli.py", "sys.exit(main())"),  # `python -m hypiso.cli`: only subprocess tests run it
    ("records.py", "from .combiner import Certificate"),  # under `if TYPE_CHECKING:`
}


def statements(path: Path) -> dict[int, str]:
    """line -> text of each statement the interpreter can report a line
    event for: a statement's first line that its compiled code maps to,
    docstrings and definitions left out."""
    text = path.read_text()
    tree = ast.parse(text)
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body
        and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    starts = {
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and id(node) not in docstrings
        and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    code_lines, todo = set(), [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    lines = text.splitlines()
    return {n: lines[n - 1].strip() for n in sorted(starts & code_lines)}


def main() -> int:
    import pytest  # before the tracer: only the library's lines are recorded

    prefix = str(LIBRARY) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    start = time.perf_counter()
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = {
        (path.name, text): f"{path.relative_to(ROOT)}:{line}  {text}"
        for path in sorted(LIBRARY.glob("*.py"))
        for line, text in statements(path).items()
        if (str(path), line) not in ran
    }
    for key, shown in unrun.items():
        print(shown if key in EXPECTED else f"{shown}  (not expected)")
    ran_expected = sorted(EXPECTED - unrun.keys())
    for name, text in ran_expected:
        print(f"src/hypiso/{name}  {text}  (expected unrun, but run)")
    unexpected = len(unrun.keys() - EXPECTED)
    print(f"{len(unrun)} statements of src/hypiso not run in this process (tests run in a subprocess are not traced), "
          f"{unexpected} of them not expected; pytest exit {int(code)}, {time.perf_counter() - start:.1f} s")
    return 1 if unexpected or ran_expected else 0


if __name__ == "__main__":
    sys.exit(main())
