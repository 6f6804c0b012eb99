"""List the lines of src/randomfacet/ that the tier-1 suite never runs.

Usage, from the repository root:

    python tests/uncovered.py              # the whole tier-1 suite
    python tests/uncovered.py tests/test_cli.py   # or any pytest arguments

Runs pytest in this process under a sys.settrace / threading.settrace
tracer that records the lines of frames whose code lives under
src/randomfacet/ and returns at once from every other frame.  Then it
compiles each module of the package, collects the lines that its code
objects map instructions to (co_lines()), and prints `path:line source`
for each line no frame ran, then their count.  Lines run only in a
child process (the console-script test) count as never run.

Standard library and pytest only.  This file is not a test module:
pytest does not collect it and tier-1 does not run it.  The traced
suite runs several times slower than the untraced one.  The exit status
is pytest's.
"""
from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "randomfacet"


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run per file of the package."""
    prefix = str(PACKAGE) + os.sep
    hit: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines = hit.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    imported = getattr(sys.modules.get(PACKAGE.name), "__file__", None)
    if imported is None or not imported.startswith(prefix):
        raise SystemExit(f"the suite did not import {PACKAGE.name} from {PACKAGE}")
    return int(code), hit


def code_lines(code: CodeType) -> set[int]:
    """Every line that `code` or a code object nested in it runs instructions of."""
    lines = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def main(argv: list[str]) -> int:
    code, hit = run_traced(argv or [str(ROOT / "tests")])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        ran = hit.get(str(path), set())
        for line in sorted(code_lines(compile(source, str(path), "exec")) - ran):
            print(f"{path.relative_to(ROOT)}:{line} {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines never run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
