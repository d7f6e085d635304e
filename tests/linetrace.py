"""Pytest plugin: list the lines of src/hierarchon that a test run never executes.

    PYTHONPATH=src:tests python -m pytest -p linetrace

It traces every frame whose code lives in the hierarchon package, through
sys.settrace and threading.settrace, from configuration to session end. At
session end it prints each module's executable function lines that never ran,
read from co_lines of every function, method, lambda and comprehension in the
module's source. Module-level and class-body lines run at import and are left
out. Tracing slows the run about threefold. The list is a report, not a check.
"""

import importlib.util
import os
import sys
import threading

_CO_OPTIMIZED = 0x1  # set on function code, unset on module and class bodies


def _package_dir():
    spec = importlib.util.find_spec("hierarchon")
    return os.path.dirname(spec.origin) + os.sep


_ROOT = _package_dir()
_ran = {}  # filename -> line numbers that ran


def _trace(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(_ROOT):
        return None
    ran = _ran.setdefault(code.co_filename, set())
    # a function's first line carries no line event of its own
    ran.add(code.co_firstlineno)

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    return local


def _function_lines(path):
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        if code.co_flags & _CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def _ranges(lines):
    out = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def pytest_configure(config):
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    tr = terminalreporter
    tr.write_sep("=", "hierarchon lines never run")
    total = 0
    for name in sorted(os.listdir(_ROOT)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(_ROOT, name)
        missed = _function_lines(path) - _ran.get(path, set())
        if missed:
            total += len(missed)
            tr.write_line(f"{name}: {_ranges(missed)}")
    tr.write_line(f"{total} never-run lines")
