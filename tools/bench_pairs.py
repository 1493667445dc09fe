"""Paired benchmark runs of two checkouts of modext.

    python3 tools/bench_pairs.py PARENT CHANGE --workload verify-mix \\
        --seeds 31 32 33 34 35 36 37 38 39 40 --seconds 20

PARENT and CHANGE are checkout directories, each with its own
``perfbench/run.py``.  For each seed, the benchmark runs untraced in
both, one after the other; the parent goes first on the first pair, the
change on the second, and so on.  Only the last line of each run's
stdout, its result JSON, is read.

For each end-to-end metric of BENCHMARK.json the script prints both
sides' median and quartiles over the pairs, how many pairs the change
won (ties count for neither), the relative change of the medians
against the metric's bound, its status, and whether a gain may be
claimed.  The status is ``ok`` or ``WORSE`` against the bound, or
``unresolved`` when the parent's interquartile range is wider than the
bound (relative to its median), so its runs cannot tell a change of
that size, unless every change run beats every parent run.  A gain: the
change wins at least nine tenths of the pairs, its median beats the
parent's by more than the parent's interquartile range, and its share
of failed operations is no larger than the parent's.  Each side's
failed share (failed over attempted operations, over all its runs) is
printed too, and the script exits 1 when any run failed an operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), by the inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent, change, better="lower", bound=None) -> dict:
    """The comparison of one metric over pairs (parent[k], change[k]).

    ``gain`` is the rule for claiming an improvement: the change wins at
    least nine tenths of all pairs and the medians differ, in the
    change's favour, by more than the parent's interquartile range.
    ``within_bound`` says the change's median is no worse than the
    parent's by more than the relative bound (None without a bound).
    ``status`` is "unresolved" when the parent's interquartile range
    over its median exceeds the bound and some change run does not beat
    every parent run, else "ok" or "WORSE" by ``within_bound`` (None
    without a bound).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs on each side")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])  # positive when the change's median is better
    relative = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
    within = None if bound is None else sign * relative <= bound
    spread = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else 0.0
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    if bound is None:
        status = None
    elif spread > bound and not separated:
        status = "unresolved"
    else:
        status = "ok" if within else "WORSE"
    return {
        "pairs": len(parent),
        "wins": wins,
        "parent": pq,
        "change": cq,
        "relative_change": relative,
        "gain": wins >= 0.9 * len(parent) and gap > pq[2] - pq[0],
        "within_bound": within,
        "status": status,
    }


def failed_share(results) -> float:
    """Failed over attempted operations, summed over the runs' results."""
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    return failed / attempted if attempted else float(failed > 0)


def run_once(checkout, workload, seed, seconds) -> dict:
    """The result JSON of one untraced benchmark run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args(argv)

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(res)
            values = " ".join("%s=%.6g" % (m["name"], res["metrics"][m["name"]]["value"])
                              for m in metrics)
            print("pair %d seed %d %-6s failed=%d/%d %s" % (
                k + 1, seed, side, res["failed"], res["attempted"], values), flush=True)

    shares = {side: failed_share(results) for side, results in runs.items()}
    print("\nfailed share: parent %.4g, change %.4g" % (shares["parent"], shares["change"]))
    print("%-12s %-12s %-32s %-32s %5s %9s %10s %s" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3",
        "wins", "change", "status", "gain"))
    for m in metrics:
        name = m["name"]
        s = summarize([r["metrics"][name]["value"] for r in runs["parent"]],
                      [r["metrics"][name]["value"] for r in runs["change"]],
                      m["better"], m["bound"])
        gain = s["gain"] and shares["change"] <= shares["parent"]
        print("%-12s %-12s %-32s %-32s %2d/%-2d %+8.1f%% %10s %s" % (
            args.workload, name, "/".join("%.4g" % x for x in s["parent"]),
            "/".join("%.4g" % x for x in s["change"]), s["wins"], s["pairs"],
            100 * s["relative_change"], s["status"], "yes" if gain else "no"))
    failed = sum(r["failed"] for results in runs.values() for r in results)
    print("failed operations: %d" % failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
