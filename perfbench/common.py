"""Helpers shared by the workloads: locating the program, statistics,
independent answer checks, and the pass loop."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time

clock = time.perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


class MissingProgram(RuntimeError):
    pass


def require_program():
    """Put the checkout's ``src`` first on the path, or raise MissingProgram."""
    if not os.path.isfile(os.path.join(SRC, "modext", "__init__.py")):
        raise MissingProgram("no src/modext in %s" % ROOT)
    if not os.path.isdir(os.path.join(ROOT, "data")):
        raise MissingProgram("no data/ in %s" % ROOT)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("MODEXT_SEED", None)
    return env


def src_lines():
    total = 0
    pkg = os.path.join(SRC, "modext")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def parse_importtime(text):
    """Seconds spent importing modext (less sympy) and sympy, from -X importtime.

    The lines come in post-order, so walking them backwards meets every
    module before the modules it imported.
    """
    rows = []
    for line in text.splitlines():
        if line.startswith("import time:"):
            self_us, _, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():     # skip the header line
                rows.append((int(self_us), len(name) - len(name.lstrip(" ")), name.strip()))
    top = min((indent for _, indent, _ in rows), default=0)
    stack = []
    modext_us = sympy_us = 0
    for us, indent, name in reversed(rows):
        stack[(indent - top) // 2:] = [name]
        if any(n == "sympy" or n.startswith("sympy.") for n in stack):
            sympy_us += us
        elif stack[0] == "modext" or stack[0].startswith("modext."):
            modext_us += us
    return modext_us / 1e6, sympy_us / 1e6


def import_times():
    """(modext, sympy) import seconds of ``import modext`` in a fresh process."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import modext"],
                         env=child_env(), stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, check=True, timeout=120).stderr
    return parse_importtime(err.decode("utf-8", "replace"))


def quantile(values, q):
    """Quantile q in (0, 1), interpolated at rank 1 + (n - 1) q.

    The inclusive method gives the same value for one pass and for the
    same pass repeated, so runs that fit a different number of passes
    stay comparable.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_passes(seconds, one_pass):
    """Run whole passes in a closed loop for about ``seconds``.

    A new pass starts only if the longest pass so far still fits, and at
    least one pass always runs, so every run measures the same mix.
    """
    durations = []
    start = clock()
    while True:
        t0 = clock()
        one_pass()
        durations.append(clock() - t0)
        if clock() - start + max(durations) > seconds:
            return durations


# -- independent checks on the program's answers ----------------------------

def is_leibniz(smul, d, matrix):
    """D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on T with sparse constants ``smul``.

    ``matrix`` is D as (target x source) rows over a self-map of a
    d-dimensional algebra.
    """
    cols = [[matrix[r][c] for r in range(d)] for c in range(d)]
    support = [[(s, x) for s, x in enumerate(col) if x] for col in cols]
    for i in range(d):
        for j in range(d):
            out = [0] * d
            for k, c in smul.get((i, j), ()):
                for r, x in support[k]:
                    out[r] += c * x
            for s, x in support[i]:
                for k, c in smul.get((s, j), ()):
                    out[k] -= x * c
            for s, x in support[j]:
                for k, c in smul.get((i, s), ()):
                    out[k] -= x * c
            if any(out):
                return False
    return True
