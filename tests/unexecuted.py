"""The statements of `src/mlmt` that no tier-1 test executes.

Run from anywhere as `python tests/unexecuted.py` on Python 3.12 or later; it
uses only the standard library and pytest, which the tests need anyway.  pytest
does not collect this file, as its name does not start with `test_`.

It runs tier-1 in this process under `sys.monitoring`.  Its LINE callback
records a line of `src/mlmt` and returns DISABLE, so each location costs one
call.  Then it prints each statement of `src/mlmt` that compiles to code at
its first line and that no test executed, as `file:line statement` in file and
line order, and their count.  Tests that run `mlmt` in a child process do not
count, so a statement that only they execute is listed too.  The exit code is
pytest's.
"""

import ast
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "mlmt")


def statements(path: str):
    """(line, text) of each statement of the module at `path` whose first line has code: a
    docstring, for one, compiles to none."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    code_lines, codes = set(), [compile(text, path, "exec")]
    while codes:
        code = codes.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    lines = text.splitlines()
    return sorted(
        {
            (node.lineno, lines[node.lineno - 1].strip())
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.stmt) and node.lineno in code_lines
        }
    )


def main() -> int:
    if sys.version_info < (3, 12):
        print("unexecuted.py needs sys.monitoring, which Python 3.12 added", file=sys.stderr)
        return 2
    import pytest

    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    executed, files = set(), {}  # (file, line); a code object's file name -> its path in the package

    def on_line(code, line):
        name = code.co_filename
        if name not in files:
            path = os.path.realpath(name)
            files[name] = path if os.path.dirname(path) == PACKAGE else None
        if files[name] is not None:
            executed.add((files[name], line))
        return monitoring.DISABLE

    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    monitoring.use_tool_id(tool, "unexecuted")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)

    missed = [
        f"{os.path.relpath(path, ROOT)}:{line} {text}"
        for path in sorted(os.path.join(PACKAGE, n) for n in os.listdir(PACKAGE) if n.endswith(".py"))
        for line, text in statements(path)
        if (path, line) not in executed
    ]
    print("\nstatements of src/mlmt that no test executed in this process"
          " (tests that run mlmt in a child process do not count):")
    for m in missed:
        print(m)
    print(f"{len(missed)} unexecuted statement(s)")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
