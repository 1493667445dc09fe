"""A pytest plugin that lists each statement of src/modext no selected test ran.

    PYTHONPATH=src:tools python -m pytest -p uncovered [pytest arguments]

It traces with the standard library's ``sys.settrace``, so it needs no
coverage package: from before the first conftest is imported to the end
of the session, every line reached in a frame of src/modext is recorded.
At the end it prints each statement none of whose lines was reached, as
``path:line: source``.  Docstrings and ``def`` / ``class`` statements are
left out, since they run at import; the statements of their bodies are
kept.  Code run in child processes (the CLI subprocess tests) is not
traced.  Tracing makes the suite about three times slower.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "modext"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

_TRACER = pytest.StashKey()


def statements(source: str) -> list:
    """(first line, last line) of each statement of the source, in line
    order, docstrings and def / class statements left out."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module,) + _DEFINITIONS) and node.body
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and not isinstance(node, _DEFINITIONS)
                  and id(node) not in docstrings)


def missed(source: str, lines: set) -> list:
    """The statements of the source none of whose lines is in lines.  A
    compound statement counts as run when any line of its body was."""
    return [(first, last) for first, last in statements(source)
            if lines.isdisjoint(range(first, last + 1))]


def _line_tracer(lines: set):
    def trace(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace
    return trace


class _Tracer:
    """The global trace function: it traces the frames of src/modext only,
    recording the lines they reach."""

    def __init__(self):
        self.reached = {}   # {resolved path of a src/modext file: set of line numbers}
        self.tracers = {}   # {code filename: its line tracer, or None outside src/modext}

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.tracers:
            path = Path(name).resolve()
            self.tracers[name] = (_line_tracer(self.reached.setdefault(path, set()))
                                  if path.parent == PACKAGE else None)
        return self.tracers[name]


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    tracer = early_config.stash[_TRACER] = _Tracer()
    threading.settrace(tracer)
    sys.settrace(tracer)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reached = config.stash[_TRACER].reached
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        found += ["%s:%d: %s" % (path.relative_to(PACKAGE.parent.parent), first,
                                 text[first - 1].strip())
                  for first, _ in missed(source, reached.get(path, set()))]
    terminalreporter.section("statements of src/modext no test ran: %d" % len(found))
    for line in found:
        terminalreporter.write_line(line)
