"""What the benchmark measures: workloads, metrics, bounds, and which
per-layer metric should move which end-to-end metric.

``BENCHMARK.json`` at the repository root is written from this file by
``python3 perfbench/run.py --write-manifest``.  Its keys are fixed, so
the meaning of each metric per workload and the layer -> end-to-end map
live here only.

Every run prints a table of everything it measured, then one result
line.  The result line carries the metrics that every workload measures:
END_TO_END untraced, PER_LAYER traced.  DETAIL and LAYER_DETAIL are the
workload-specific figures; they appear in the table only, with their
sample counts, because a workload that never reaches a layer has no
figure for it.
"""

from __future__ import annotations

import json

RUN_SECONDS = 20

WORKLOADS = [
    ("cli-cold", "each criterion-8 command, text and --json, as a fresh CLI process: "
                 "import, io and axiom checks dominate, elimination is negligible"),
    ("der-ladder", "in-process Der/Inn/H1 on sparse T(M_n,M_n), T(UT_n,UT_n), Q[t]/(t^n), "
                   "the T(M3,M3) anchor and dense-basis twins: system build and "
                   "elimination dominate"),
    ("verify-mix", "seeded stream of block checks, splits, witnesses, recipes and structure "
                   "queries sharing four extensions: many small rref/solve calls and "
                   "is_derivation re-checks"),
]

# name, unit, better, bound, meaning.  An operation is one CLI call
# (cli-cold), one Der/Inn/H1 solve of one instance (der-ladder), or one
# block, witness, recipe or structure call (verify-mix).  A pass is the
# workload's whole seeded operation set once; verify-mix's pass includes
# building its four extensions.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "import plus input generation, median over fresh processes"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident set of the process doing the work (the largest CLI child)"),
    ("pass_s", "s", "lower", 0.25,
     "program time of one pass, median over the run's passes"),
]

# name, unit, workload.  Printed with the run, not gated.  The workload-
# specific figures exist on one workload only.  The per-operation figures
# follow single operations, and on a 2-vCPU VM whose speed swings by up
# to 2x within seconds their five-seed spreads reached 0.24-0.32 of the
# median on der-ladder and verify-mix, above the largest bound allowed;
# pass_s sums every operation of the pass and spread less.
DETAIL = [
    ("op_p50_ms", "ms", "all"),
    ("op_geomean_ms", "ms", "all"),
    ("cli_p50_ms", "ms", "cli-cold"),
    ("cli_p90_ms", "ms", "cli-cold"),
    ("der_ladder_s", "s", "der-ladder"),
    ("der_TM3_s", "s", "der-ladder"),
    ("der_dense_s", "s", "der-ladder"),
    ("verify_ops_per_s", "1/s", "verify-mix"),
    ("verify_op_p90_ms", "ms", "verify-mix"),
    ("failed_frac", "1", "all"),
]

# name, unit, workloads where it is the layer to watch, metrics it should
# move there.  Every workload reports each of these: the layers below are
# reached by all three.  Times and counts are totals per traced pass;
# import.* is per CLI call summed over a pass on cli-cold, and the one
# import of the workload's process elsewhere.
PER_LAYER = [
    ("import.modext_s", "s", "cli-cold", "pass_s op_p50_ms"),
    ("import.sympy_s", "s", "cli-cold", "pass_s op_p50_ms"),
    ("io.load_file_calls", "count", "cli-cold", "pass_s op_p50_ms"),
    ("algebra.validate_s", "s", "cli-cold", "pass_s op_p50_ms"),
    ("algebra.identities_checked", "count", "cli-cold", "pass_s op_p50_ms"),
    ("extension.build_s", "s", "der-ladder verify-mix", "pass_s der_TM3_s verify_ops_per_s"),
    ("derivations.system_rows", "count", "der-ladder", "pass_s der_TM3_s der_ladder_s"),
    ("derivations.system_cols", "count", "der-ladder", "pass_s der_TM3_s der_ladder_s"),
    ("derivations.system_nnz", "count", "der-ladder", "pass_s der_TM3_s der_ladder_s"),
    ("derivations.is_derivation_s", "s", "der-ladder verify-mix",
     "pass_s der_TM3_s verify_ops_per_s"),
    ("derivations.is_derivation_calls", "count", "verify-mix", "pass_s verify_ops_per_s"),
    ("linalg.nullspace_s", "s", "der-ladder", "pass_s der_TM3_s der_ladder_s"),
    ("linalg.rank", "count", "der-ladder", "pass_s der_TM3_s der_ladder_s"),
    ("linalg.max_entry_bits", "bits", "der-ladder", "pass_s der_dense_s"),
    ("linalg.rref_s", "s", "verify-mix", "pass_s verify_op_p90_ms"),
    ("linalg.rref_calls", "count", "verify-mix", "pass_s verify_op_p90_ms"),
    # The untraced half runs first and also pays first-call set-up, and the
    # host's speed drifts between halves, so the overhead can read below 0.
    ("trace.overhead_s", "s", "all", "none: traced minus untraced program seconds per pass"),
    ("src_lines", "count", "all", "none: lines of src/modext"),
]

# name, unit, workloads that reach the layer, metrics it should move.
# Printed with every traced run; 0 where the workload does not reach it.
LAYER_DETAIL = [
    ("io.load_file_s", "s", "cli-cold", "pass_s op_p50_ms"),
    ("cli.main_s", "s", "cli-cold", "pass_s op_p50_ms"),
    ("derivations.system_build_s", "s", "der-ladder", "pass_s der_TM3_s der_ladder_s"),
    ("derivations.recheck_s", "s", "der-ladder", "pass_s der_TM3_s"),
    ("linalg.solve_s", "s", "verify-mix", "pass_s verify_op_p90_ms"),
    ("blocks.check_s", "s", "verify-mix", "pass_s verify_op_p90_ms verify_ops_per_s"),
    ("blocks.split_s", "s", "verify-mix", "pass_s verify_op_p90_ms verify_ops_per_s"),
    ("blocks.inner_witness_s", "s", "verify-mix", "pass_s verify_op_p90_ms verify_ops_per_s"),
    ("constructions.lift_s", "s", "verify-mix", "pass_s verify_ops_per_s"),
    ("constructions.transport_s", "s", "verify-mix", "pass_s verify_ops_per_s"),
    ("constructions.quotient_s", "s", "verify-mix", "pass_s verify_ops_per_s"),
    ("constructions.corner_s", "s", "verify-mix", "pass_s verify_ops_per_s"),
    ("analysis.radical_s", "s", "verify-mix", "pass_s verify_ops_per_s"),
    ("analysis.center_s", "s", "verify-mix", "pass_s verify_ops_per_s"),
    ("analysis.simple_s", "s", "verify-mix", "pass_s verify_ops_per_s"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + DETAIL + PER_LAYER + LAYER_DETAIL}


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u, _, _ in PER_LAYER],
    }


def write_manifest(path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")
