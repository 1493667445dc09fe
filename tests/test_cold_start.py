"""Cold start: sympy is loaded only when a minimal polynomial is factored,
and dataclasses (which loads inspect, ast, dis and tokenize) never.

Each case runs in a fresh interpreter with ``PYTHONPATH=src``, so that
nothing the test session imported can leak into ``sys.modules``.  The
commands are the criterion-8 commands; their stdout is also compared
with the golden digest in perfbench/cli_expected.json.  The one command
that factors (a semisimple algebra with dim Z = 2) is compared with the
same command run in this process.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modext.cli import main
from modext.io import algebra_to_document, save_file
from modext.samples import q_plus_q

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import contextlib, hashlib, io, json, sys
case = json.loads(sys.argv[1])
code = digest = None
if isinstance(case, str):
    __import__(case)
else:
    from modext.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(case)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
print(json.dumps({"code": code, "digest": digest, "sympy": "sympy" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules}))
"""

WITHOUT_SYMPY = [
    ["validate", "data/dual_numbers.json"],
    ["validate", "data/m2.json"],
    ["validate", "data/zero_product2.json"],
    ["der", "data/dual_numbers.json", "--inner", "--h1"],
    ["der", "data/m2.json", "--inner", "--h1"],
    ["decompose", "data/dual_numbers.json", "--map", "D"],
    ["decompose", "data/m2.json", "--map", "D"],
    ["construct", "lift", "data/dual_numbers.json"],
    ["construct", "transport", "data/transport.json"],
    ["construct", "quotient", "data/upper_triangular.json"],
    ["construct", "corner", "data/m2.json"],
    ["analyze", "data/dual_numbers.json", "--radical", "--unit", "--submult"],
    ["analyze", "data/m2.json", "--simple", "--annihilator"],  # dim Z = 1: degree 1
]


def run_fresh(case):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MODEXT_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(case)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def expected_digest(argv):
    expected = json.loads(
        (ROOT / "perfbench" / "cli_expected.json").read_text(encoding="utf-8")
    )
    return expected[" ".join(argv)]


@pytest.mark.parametrize("module", ["modext", "modext.cli"])
def test_import_leaves_sympy_unloaded(module):
    got = run_fresh(module)
    assert got["sympy"] is False
    assert got["dataclasses"] is False


@pytest.mark.parametrize("argv", WITHOUT_SYMPY, ids=" ".join)
def test_command_leaves_sympy_unloaded(argv):
    got = run_fresh(argv)
    assert got["sympy"] is False
    assert got["dataclasses"] is False
    assert got["code"] == 0
    assert got["digest"] == expected_digest(argv)


@pytest.mark.parametrize("argv", [argv + ["--json"] for argv in WITHOUT_SYMPY], ids=" ".join)
def test_json_command_leaves_sympy_and_dataclasses_unloaded(argv):
    got = run_fresh(argv)
    assert (got["sympy"], got["dataclasses"]) == (False, False)
    assert got["code"] == 0
    assert got["digest"] == expected_digest(argv)


def test_simple_on_a_semisimple_algebra_loads_sympy(tmp_path, monkeypatch):
    # Q x Q has dim Z = 2, so its minimal polynomial has degree 2 and is factored
    path = tmp_path / "q_plus_q.json"
    save_file(str(path), algebra_to_document(q_plus_q()))
    argv = ["analyze", str(path), "--simple"]
    got = run_fresh(argv)
    assert got["sympy"] is True
    assert got["code"] == 0
    monkeypatch.delenv("MODEXT_SEED", raising=False)  # as in run_fresh
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    text = buf.getvalue()
    assert "factors: [('t - 4', 1), ('t - 3', 1)]" in text
    assert got["digest"] == hashlib.sha256(text.encode("utf-8")).hexdigest()
