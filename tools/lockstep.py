"""Lockstep benchmark of two checkouts of modext in one process.

    python3 tools/lockstep.py PARENT CHANGE --workload der-ladder \\
        --seeds 1 2 3 --rounds 20

PARENT and CHANGE are checkout directories.  Each one's ``src/modext``
is imported here under its own package name, and a perfbench workload,
from CHANGE's ``perfbench``, is built on each with the same seed.  Each
round runs one pass of both sides, one after the other: the parent goes
first on the first round of a seed, the change on the second, and so
on.  One untimed pass of each side comes before the rounds of a seed.
Every pass checks every answer with the workload's own check.

A pass's time is the workload's ``pass_s`` sample: the program's time
in that pass.  The script prints each round, then one line per
der-ladder instance or verify-mix operation type: both sides' median
latency over every timed call of it in all rounds, read from the
workload's own ``latencies``, and their ratio, change over parent, so a
flat total cannot hide one slower instance.  Last come both sides'
median and quartiles over all rounds, how many rounds the change won
(ties count for neither), the relative change of the medians, whether
a gain may be claimed (the rule of ``bench_pairs.summarize``), and each
side's failed operations; it exits 1 when any operation failed.  Both
sides share one interpreter, heap and machine state, so host drift that
separates the runs of ``bench_pairs.py`` falls on both alike.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path

from bench_pairs import summarize

WORKLOADS = {  # module, and what each latency of a pass times, in order
    "der-ladder": ("der_ladder", "instance", lambda w: [name for name, *_ in w.instances]),
    "verify-mix": ("verify_mix", "operation", lambda w: [op for _, op, _ in w.ops]),
}


def load(checkout, name):
    """The checkout's ``src/modext``, imported as the package ``name``."""
    pkg = Path(checkout, "src", "modext").resolve()
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def by_key(keys, latencies, into):
    """Add one pass's latencies to into[key], key by key, when the pass
    timed every one of its keys (a call that raised leaves no latency)."""
    if len(latencies) == len(keys):
        for key, dt in zip(keys, latencies):
            into.setdefault(key, []).append(dt)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--rounds", type=int, default=20)
    args = p.parse_args(argv)

    sys.path.insert(0, str(Path(args.change, "perfbench").resolve()))
    module, label, keys_of = WORKLOADS[args.workload]
    workload = importlib.import_module(module)
    sides = {side: load(getattr(args, side), "lockstep_" + side)
             for side in ("parent", "change")}
    times = {"parent": [], "change": []}
    latencies = {"parent": {}, "change": {}}
    failed = {"parent": 0, "change": 0}
    for seed in args.seeds:
        runs = {side: workload.Workload(mx, seed) for side, mx in sides.items()}
        keys = keys_of(runs["change"])
        for w in runs.values():
            w.one_pass()  # untimed: first calls and caches
        for k in range(args.rounds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                w, start = runs[side], len(runs[side].latencies)
                w.one_pass()
                times[side].append(w.pass_times[-1])
                by_key(keys, w.latencies[start:], latencies[side])
            print("seed %d round %d parent %.6g change %.6g" % (
                seed, k + 1, times["parent"][-1], times["change"][-1]), flush=True)
        for side, w in runs.items():
            failed[side] += w.failed

    print("\n%-14s %18s %18s %7s" % (label, "parent median (ms)", "change median (ms)",
                                     "ratio"))
    for key in latencies["change"]:
        if key in latencies["parent"]:
            old, new = (statistics.median(latencies[side][key]) for side in ("parent", "change"))
            print("%-14s %18.4g %18.4g %7.3f" % (key, 1000 * old, 1000 * new, new / old))
    s = summarize(times["parent"], times["change"])
    print("\n%-12s %-32s %-32s %5s %9s %s" % (
        "workload", "parent q1/median/q3 (s)", "change q1/median/q3 (s)", "wins",
        "change", "gain"))
    print("%-12s %-32s %-32s %2d/%-2d %+8.1f%% %s" % (
        args.workload, "/".join("%.4g" % x for x in s["parent"]),
        "/".join("%.4g" % x for x in s["change"]), s["wins"], s["pairs"],
        100 * s["relative_change"], "yes" if s["gain"] else "no"))
    print("failed operations: parent %d, change %d" % (failed["parent"], failed["change"]))
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
