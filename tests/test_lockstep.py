"""tools/lockstep.py: two imports of modext side by side in one process,
and a smoke run with the same checkout on both sides."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


@pytest.fixture
def lockstep(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import lockstep
    return lockstep


def test_each_side_is_its_own_package(lockstep):
    import modext.linalg

    a, b = lockstep.load(ROOT, "lockstep_a"), lockstep.load(ROOT, "lockstep_b")
    try:
        assert a.linalg is not b.linalg and a.linalg is not modext.linalg
        assert a.linalg.__name__ == "lockstep_a.linalg"
        assert a.derivations.nullspace is a.linalg.nullspace
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] in ("lockstep_a", "lockstep_b")]:
            del sys.modules[key]


@pytest.mark.parametrize("workload", ["der-ladder", "verify-mix"])
def test_the_same_checkout_on_both_sides(workload):
    done = subprocess.run(
        [sys.executable, str(TOOLS / "lockstep.py"), str(ROOT), str(ROOT),
         "--workload", workload, "--seeds", "1", "--rounds", "2"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:4] for line in lines[:2]] == [["seed", "1", "round", "1"],
                                                      ["seed", "1", "round", "2"]]
    assert lines[-2].split()[0] == workload and "/2 " in lines[-2]
    assert lines[-1] == "failed operations: parent 0, change 0"
