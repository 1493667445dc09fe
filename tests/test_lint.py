"""tools/lint.py: the repository passes both checks, and a planted unused
import and unreferenced definition are named, in src/modext and in the
test helper modules."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def lint(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import lint
    return lint


def test_the_repository_passes_both_checks():
    done = subprocess.run([sys.executable, str(TOOLS / "lint.py")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == ("no unused imports\n"
                           "every name defined in src/modext and the test helpers"
                           " is referenced\n")


def test_a_planted_import_and_definition_are_named(lint, tmp_path):
    for d in ("src/modext", "tests", "tools", "perfbench"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "src/modext/cli.py").write_text(
        "from fractions import Fraction\n\n\n"
        "def _fmt(x):\n    return str(x)\n\n\n"
        "def main():\n    return 0\n")
    (tmp_path / "tests/test_cli.py").write_text("from modext.cli import main\n\nmain()\n")
    assert lint.unused_imports(tmp_path) == [
        "src/modext/cli.py:1: Fraction is imported but unused"]
    assert lint.unreferenced_names(tmp_path) == [
        "src/modext/cli.py:4: _fmt is defined but never referenced"]


def test_the_package_init_is_checked_too(lint, tmp_path):
    for d in ("src/modext", "tests", "tools"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "src/modext/__init__.py").write_text("from .algebra import Algebra\n")
    assert lint.unused_imports(tmp_path) == [
        "src/modext/__init__.py:1: Algebra is imported but unused"]


def test_the_test_helpers_are_checked_too(lint, tmp_path):
    # a helper module's definition must be referenced somewhere; a test
    # module's own module-level helpers are not checked
    for d in ("src/modext", "tests", "tools", "perfbench"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "tests/oracles.py").write_text(
        "def dense_rref(rows):\n    return rows\n\n\n"
        "def _unused(rows):\n    return rows\n")
    (tmp_path / "tests/cases.py").write_text("def _scaled_identity(n, c):\n    return n\n")
    (tmp_path / "tests/test_linalg.py").write_text(
        "from oracles import dense_rref\n\n\n"
        "def _local_helper():\n    return 0\n\n\n"
        "def test_rref():\n    assert dense_rref([]) == []\n")
    assert lint.unreferenced_names(tmp_path) == [
        "tests/cases.py:1: _scaled_identity is defined but never referenced",
        "tests/oracles.py:5: _unused is defined but never referenced"]
