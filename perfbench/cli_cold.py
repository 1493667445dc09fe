"""cli-cold: the criterion-8 commands, text and --json, each a fresh
``python -m modext.cli`` process, in a seeded order.

Every call's stdout is compared by sha256 with the digest recorded for
that command (``cli_expected.json``); a different digest, a nonzero exit
or a timeout is a failure.  Latency is wall time from spawn to reap.
Peak RSS is read per child from ``wait4``.  The digests are fixed data,
captured from the program as it stood when the benchmark was defined:
CLI output must stay byte-for-byte identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading

import gen
from common import clock, child_env, parse_importtime, quantile

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "cli_expected.json")
CHILD = os.path.join(HERE, "cli_child.py")
TIMEOUT_S = 60
TRACE_TAG = "PERFBENCH-TRACE "

COMMANDS = [
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
    ["analyze", "data/m2.json", "--simple", "--annihilator"],
]
VARIANTS = [argv + extra for argv in COMMANDS for extra in ([], ["--json"])]


def make_inputs(seed):
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    order = list(VARIANTS)
    gen.seeded_rng(seed, "cli-cold").shuffle(order)
    return order, expected


def run_child(argv, env, want_stderr=False):
    """(seconds, exit code or None on timeout, stdout, stderr, peak RSS in MB)."""
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    t0 = clock()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                            stderr=subprocess.PIPE if want_stderr else subprocess.DEVNULL)
    timer = threading.Timer(TIMEOUT_S, kill)
    timer.start()
    err = []
    reader = None
    if want_stderr:
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
    out = proc.stdout.read()
    if reader is not None:
        reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = clock() - t0
    timer.cancel()
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if want_stderr:
        proc.stderr.close()
    code = None if killed else proc.returncode
    return elapsed, code, out, b"".join(err), usage.ru_maxrss / 1024.0


class Workload:
    name = "cli-cold"

    def __init__(self, mx, seed):
        self.order, self.expected = make_inputs(seed)
        self.env = child_env()
        self.latencies = []
        self.pass_times = []
        self.rss = 0.0
        self.attempted = 0
        self.failed = 0
        self.trace = None   # per-layer totals once traced children run

    def one_pass(self):
        busy = 0.0
        for argv in self.order:
            key = " ".join(argv)
            self.attempted += 1
            if self.trace is None:
                cmd = [sys.executable, "-m", "modext.cli"] + argv
            else:
                cmd = [sys.executable, "-X", "importtime", CHILD] + argv
            dt, code, out, err, rss = run_child(cmd, self.env, self.trace is not None)
            self.latencies.append(dt)
            busy += dt
            self.rss = max(self.rss, rss)
            ok = code == 0 and hashlib.sha256(out).hexdigest() == self.expected.get(key)
            if ok and self.trace is not None:
                ok = self._collect(err.decode("utf-8", "replace"))
            if not ok:
                self.failed += 1
                print("cli-cold %s: exit %s, stdout sha256 %s" %
                      (key, code, hashlib.sha256(out).hexdigest()[:16]))
        self.pass_times.append(busy)

    def _collect(self, stderr):
        tagged = [l for l in stderr.splitlines() if l.startswith(TRACE_TAG)]
        if len(tagged) != 1:
            return False
        got = json.loads(tagged[0][len(TRACE_TAG):])
        got["import.modext_s"], got["import.sympy_s"] = parse_importtime(stderr)
        for k, v in got.items():
            if k == "linalg.max_entry_bits":
                self.trace[k] = max(self.trace.get(k, 0), v)
            else:
                self.trace[k] = self.trace.get(k, 0) + v
        return True

    def start_trace(self, tracer):
        """Run the next calls through the traced child instead of the CLI."""
        self.trace = {}

    def layers(self, tracer):
        return self.trace

    def peak_rss_mb(self):
        return self.rss

    def detail(self):
        n = len(self.latencies)
        return {
            "cli_p50_ms": (1000 * statistics.median(self.latencies), "ms", n),
            "cli_p90_ms": (1000 * quantile(self.latencies, 0.9), "ms", n),
        }
