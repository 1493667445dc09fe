"""Per-command cold starts of two checkouts of modext.

    python3 tools/coldstart.py PARENT CHANGE --rounds 25

PARENT and CHANGE are checkout directories.  The commands are the
criterion-8 command lines, the keys of CHANGE's
``perfbench/cli_expected.json``.  Each round runs every command as a
fresh ``python -m modext.cli`` process in each checkout (its ``src`` on
``PYTHONPATH``, its directory the working directory), one side after the
other: the parent goes first on odd rounds, the change on even ones.
Each run's time is its wall clock from spawn to exit, and its stdout is
compared by sha256 with the command's digest.

The script prints each command with both sides' median and quartiles in
ms, how many rounds the change won (ties count for neither), the
relative change of the medians and whether a gain may be claimed (the
rule of ``bench_pairs.summarize``); then, from one more run of each
command per side that reports ``sys.modules`` at exit, the ``modext.*``
modules it loaded (``cli`` itself runs as ``__main__``).  It exits 1
when any run exited nonzero or printed other bytes than its digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import summarize

SIDES = ("parent", "change")

# ``python -m modext.cli ARGS`` that names, at exit, the package modules
# it loaded: sys.modules sees every import, -X importtime not those made
# by importlib's Python code (``from . import io``)
PROBE = """import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("\\nloaded: %s\\n" % " ".join(sorted(
    k[len("modext."):] for k in sys.modules if k.startswith("modext.")))))
runpy.run_module("modext.cli", run_name="__main__", alter_sys=True)
"""


def run(checkout, argv, probe=False):
    """(seconds, exit code, stdout, stderr) of one fresh CLI process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(checkout, "src").resolve()), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable] + (["-c", PROBE] if probe else ["-m", "modext.cli"]) + argv
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, timeout=120)
    return time.perf_counter() - t0, done.returncode, done.stdout, done.stderr


def loaded_modules(stderr: bytes) -> str:
    """The modules a probe run names on the last line of its stderr."""
    return stderr.decode().splitlines()[-1][len("loaded: "):]


def wrong(side, key, digest, code, out, err) -> bool:
    """Whether a run exited nonzero or printed other bytes than its digest,
    printing what it did when so."""
    got = hashlib.sha256(out).hexdigest()
    if code == 0 and got == digest:
        return False
    print("%s %s: exit %d, stdout sha256 %s\n%s" % (
        side, key, code, got[:16], err.decode(errors="replace").strip()), flush=True)
    return True


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--rounds", type=int, default=25)
    args = p.parse_args(argv)

    expected = json.loads(Path(args.change, "perfbench", "cli_expected.json").read_text())
    times = {key: {side: [] for side in SIDES} for key in expected}
    failed = {side: 0 for side in SIDES}
    for k in range(args.rounds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for key, digest in expected.items():
            for side in order:
                dt, code, out, err = run(getattr(args, side), key.split())
                times[key][side].append(dt)
                failed[side] += wrong(side, key, digest, code, out, err)
        print("round %d done" % (k + 1), flush=True)

    width = max(map(len, expected))
    print("\n%-*s %-20s %-20s %5s %8s %s" % (
        width, "command", "parent q1/med/q3 ms", "change q1/med/q3 ms", "wins", "change",
        "gain"))
    for key in expected:
        s = summarize(times[key]["parent"], times[key]["change"])
        print("%-*s %-20s %-20s %2d/%-2d %+7.1f%% %s" % (
            width, key, "/".join("%.1f" % (1000 * x) for x in s["parent"]),
            "/".join("%.1f" % (1000 * x) for x in s["change"]), s["wins"], s["pairs"],
            100 * s["relative_change"], "yes" if s["gain"] else "no"))
    print("\nmodext modules loaded")
    for key, digest in expected.items():
        for side in SIDES:
            _, code, out, err = run(getattr(args, side), key.split(), probe=True)
            if not wrong(side, key, digest, code, out, err):
                print("%-*s %-6s %s" % (width, key, side, loaded_modules(err)))
            else:
                failed[side] += 1
    print("failed runs: parent %d, change %d" % (failed["parent"], failed["change"]))
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
