"""modext benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --write-manifest

Run from the repository root.  Workloads are ``cli-cold``, ``der-ladder``
and ``verify-mix`` (see spec.py for why each exists); ``all`` runs the
three in turn, each in its own process.  Each workload is one client in
a closed loop: the next operation starts when the previous one returns.
Whole passes over the seeded input set run until ``--seconds`` is used;
one pass always runs, even when it alone takes longer.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half
the time untraced, half with the wrappers of tracer.py installed, and
reports per-layer self times and counts per traced pass, plus the
tracing overhead.  Every answer is checked.  A table of every figure
measured, with its sample count, comes first; the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"} holding
the metrics of spec.END_TO_END (untraced) or spec.PER_LAYER (traced).

Exit codes: 0 after a complete run (failures are reported, not fatal),
2 when the program or its data is not in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import common
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9
MAXIMA = {"linalg.max_entry_bits"}    # reported as the largest seen, not per pass


def workload_module(name):
    import cli_cold
    import der_ladder
    import verify_mix
    return {"cli-cold": cli_cold, "der-ladder": der_ladder,
            "verify-mix": verify_mix}[name]


def probe_setup(args):
    """Time import plus input generation in this fresh process."""
    t0 = common.clock()
    import modext  # noqa: F401
    workload_module(args.workload).make_inputs(args.seed)
    print(repr(common.clock() - t0))


def measure_setup(args):
    """Median over fresh processes of import plus input generation."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed)],
            env=common.child_env(), stdout=subprocess.PIPE, check=True,
            timeout=120).stdout
        times.append(float(out.decode().split()[-1]))
    return statistics.median(times), len(times)


def run_workload(args):
    """(workload, {metric: (value, unit, samples)} for the table)."""
    import modext
    w = workload_module(args.workload).Workload(modext, args.seed)
    med = statistics.median
    if not args.trace:
        setup, probes = measure_setup(args)
        common.run_passes(args.seconds, w.one_pass)
        metrics = {
            "setup_s": (setup, "s", probes),
            "peak_rss_mb": (w.peak_rss_mb(), "MB", 1),
            "pass_s": (med(w.pass_times), "s", len(w.pass_times)),
        }
        n = len(w.latencies)
        if n:     # no latencies only when every operation raised
            metrics["op_p50_ms"] = (1000 * med(w.latencies), "ms", n)
            metrics["op_geomean_ms"] = (1000 * statistics.geometric_mean(w.latencies),
                                        "ms", n)
            metrics.update(w.detail())
        return w, metrics

    import tracer
    common.run_passes(args.seconds / 2, w.one_pass)
    untraced = list(w.pass_times)
    t = tracer.Tracer()
    try:
        w.start_trace(t)
        common.run_passes(args.seconds / 2, w.one_pass)
    finally:
        t.uninstall()
    traced = w.pass_times[len(untraced):]
    n = len(traced)
    metrics = {k: (v if k in MAXIMA else v / n, spec.UNITS[k], n)
               for k, v in w.layers(t).items()}
    if "import.modext_s" not in metrics:   # in-process: the one import it pays
        modext_s, sympy_s = common.import_times()
        metrics["import.modext_s"] = (modext_s, "s", 1)
        metrics["import.sympy_s"] = (sympy_s, "s", 1)
    metrics["trace.overhead_s"] = (statistics.mean(traced) - statistics.mean(untraced),
                                   "s", n + len(untraced))
    metrics["src_lines"] = (common.src_lines(), "count", 1)
    return w, metrics


def show(workload, metrics, attempted, failed):
    print("%-12s %-34s %14s  %-6s %s" % ("workload", "metric", "value", "unit", "samples"))
    rows = dict(metrics)
    rows["failed_frac"] = (failed / attempted if attempted else 1.0, "1", attempted)
    for name, (value, unit, n) in rows.items():
        print("%-12s %-34s %14.6g  %-6s n=%d" % (workload, name, value, unit, n))


def result_line(attempted, failed, metrics, trace):
    names = [n for n, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)]
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a layer no traced call reported (every call failed) reads 0
        "metrics": {k: {"value": metrics.get(k, (0,))[0], "unit": spec.UNITS[k]}
                    for k in names},
    })


def run_all(args):
    """Each workload in its own process; one combined table and result line."""
    attempted = failed = 0
    merged = {}
    for name, _ in spec.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, check=True)
        lines = proc.stdout.decode().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            merged["%s/%s" % (name, k)] = v
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS] + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-manifest", action="store_true",
                   help="write BENCHMARK.json in the working directory and exit")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.write_manifest:
        spec.write_manifest("BENCHMARK.json")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    try:
        common.require_program()
    except common.MissingProgram as e:
        sys.stderr.write("perfbench: %s; run from the repository root\n" % e)
        return 2
    if args.probe_setup:
        probe_setup(args)
        return 0
    if args.workload == "all":
        run_all(args)
        return 0
    w, metrics = run_workload(args)
    show(args.workload, metrics, w.attempted, w.failed)
    print(result_line(w.attempted, w.failed, metrics, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
