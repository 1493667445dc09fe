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


def test_by_key_keeps_only_passes_that_timed_every_key(lockstep):
    into = {}
    lockstep.by_key(["a", "b", "a"], [1, 2, 3], into)
    lockstep.by_key(["a", "b", "a"], [4, 5], into)  # a call raised: no latency for it
    assert into == {"a": [1, 3], "b": [2]}


KEYS = {
    "der-ladder": {"T(M2,M2)", "T(UT2,UT2)", "T(UT3,UT3)", "Q[t]/(t^4)", "Q[t]/(t^6)",
                   "Q[t]/(t^8)", "Q[t]/(t^10)", "Q[t]/(t^12)", "T(M3,M3)", "T(M2',M2')",
                   "Q[t]/(t^6)'", "Q[t]/(t^8)'"},
    "verify-mix": {"check", "split", "witness", "lift", "transport", "corner", "radical",
                   "center", "simple", "quotient"},
}


@pytest.mark.parametrize("workload", sorted(KEYS))
def test_one_median_line_per_instance_or_operation_type(workload):
    # between the rounds and the totals: both sides' median latency in ms
    # and their ratio, one line per key, and the last two lines as before
    done = subprocess.run(
        [sys.executable, str(TOOLS / "lockstep.py"), str(ROOT), str(ROOT),
         "--workload", workload, "--seeds", "1", "--rounds", "1"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    head = lines.index(next(line for line in lines if line.endswith("ratio")))
    block = lines[head + 1:head + 1 + len(KEYS[workload])]
    assert {line.split()[0] for line in block} == KEYS[workload]
    for line in block:
        parent, change, ratio = map(float, line.split()[1:])
        assert ratio == pytest.approx(change / parent, rel=0.01, abs=0.002)
    assert lines[head + 1 + len(block):] == ["", lines[-3], lines[-2], lines[-1]]
    assert lines[-2].split()[0] == workload and "/1 " in lines[-2]
    assert lines[-1] == "failed operations: parent 0, change 0"
