"""tools/coldstart.py on two criterion-8 commands: the same program on both
sides passes, and a digest the output does not match fails the run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ["validate data/m2.json", "der data/dual_numbers.json --inner --h1 --json"]


def checkout(path, digests):
    """A checkout of this program whose perfbench holds only the given digests."""
    path.mkdir()
    for name in ("src", "data"):
        (path / name).symlink_to(ROOT / name, target_is_directory=True)
    (path / "perfbench").mkdir()
    (path / "perfbench" / "cli_expected.json").write_text(json.dumps(digests))
    return path


def coldstart(parent, change):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "coldstart.py"), str(parent), str(change),
         "--rounds", "2"], capture_output=True, text=True, timeout=300)


@pytest.fixture
def expected():
    every = json.loads((ROOT / "perfbench" / "cli_expected.json").read_text())
    return {key: every[key] for key in COMMANDS}


def test_the_same_program_on_both_sides(tmp_path, expected):
    done = coldstart(ROOT, checkout(tmp_path / "small", expected))
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["round 1 done", "round 2 done"]
    for key in COMMANDS:
        row = next(line for line in lines if line.startswith(key + " ") and "/2 " in line)
        assert len(row[len(key):].split()) == 5   # two quartile triples, wins, change, gain
    assert any(line.split()[-5:] == ["change", "algebra", "io", "linalg", "reports"]
               for line in lines if line.startswith("validate data/m2.json "))
    assert lines[-1] == "failed runs: parent 0, change 0"


def test_a_wrong_digest_fails_every_run_of_that_command(tmp_path, expected):
    expected[COMMANDS[0]] = "0" * 64
    done = coldstart(ROOT, checkout(tmp_path / "wrong", expected))
    assert done.returncode == 1
    assert "parent validate data/m2.json: exit 0, stdout sha256 " in done.stdout
    # two timed rounds and the module probe, on each side
    assert done.stdout.splitlines()[-1] == "failed runs: parent 3, change 3"
