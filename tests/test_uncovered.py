"""tools/uncovered.py: which statements of a source count, and which are
listed as never run."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SOURCE = '''"""Module docstring."""
import os


def f(x):
    """Function docstring."""
    if x:
        return (x +
                1)
    return 0


class C:
    """Class docstring."""
    y = os.sep
'''


@pytest.fixture
def uncovered(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import uncovered
    return uncovered


def test_statements_leave_out_docstrings_and_definitions(uncovered):
    assert uncovered.statements(SOURCE) == [(2, 2), (7, 9), (8, 9), (10, 10), (15, 15)]


def test_a_statement_is_run_when_any_of_its_lines_is(uncovered):
    # line 9 alone runs the return and, through it, the if around it
    assert uncovered.missed(SOURCE, {2, 9, 15}) == [(10, 10)]
    assert uncovered.missed(SOURCE, set()) == uncovered.statements(SOURCE)
