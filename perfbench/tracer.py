"""Span and counter recording around the program's public functions.

Nothing here lives in the program: ``install`` replaces each
listed function (or method) by a wrapper in every ``modext`` module that
holds a reference to it, so ``derivations.nullspace`` is wrapped as well
as ``linalg.nullspace``.  ``uninstall`` puts the originals back.

Each wrapped call opens a span with a name, start, end and parent.  A
span's self time is its duration minus its child spans and minus the
time the tracer itself spent measuring sizes inside it.  The exact
linear-algebra kernel is the bottom layer: a kernel call made from
inside another kernel call (``rref`` inside ``nullspace``) opens no span
of its own, so elimination time is charged to the kernel entry point
that the caller used, while the call is still counted.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

clock = time.perf_counter


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _max_bits(rows):
    best = 0
    for row in rows:
        for x in row:
            if x:
                b = _bits(x)
                if b > best:
                    best = b
    return best


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []           # open span indices
        self._excluded = defaultdict(float)
        self._kernel_depth = 0
        self._patched = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        idx = self._stack.pop()
        self.spans[idx][2] = clock()

    def measure(self, fn, *args):
        """Run a size probe; its time is taken out of the innermost open span."""
        t0 = clock()
        fn(*args)
        if self._stack:
            self._excluded[self._stack[-1]] += clock() - t0

    def count(self, name, n=1):
        self.counts[name] += n

    def maximum(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, fn, name, kernel, after):
        tracer = self
        kernel = int(kernel)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.count(name + "_calls")
            if kernel and tracer._kernel_depth:
                result = fn(*args, **kwargs)
            else:
                tracer._open(name)
                tracer._kernel_depth += kernel
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._kernel_depth -= kernel
                    tracer._close()
            if after is not None:
                tracer.measure(after, tracer, args, result)
            return result

        return traced

    def wrap_function(self, module, attr, name, kernel=False, after=None):
        """Wrap ``module.attr`` and every ``modext`` alias of the same object."""
        original = getattr(module, attr)
        wrapped = self._wrapper(original, name, kernel, after)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "modext" or modname.startswith("modext.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patched.append((mod, key, original))

    def wrap_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, name, False, after))
        self._patched.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- summaries -------------------------------------------------------

    def self_times(self):
        """{span name: total self time}, plus {(parent name, name): total}."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        by_name = defaultdict(float)
        by_pair = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[idx] - self._excluded[idx]
            by_name[name] += own
            pname = self.spans[parent][0] if parent is not None else None
            by_pair[(pname, name)] += own
        return by_name, by_pair


# -- size probes run after a wrapped call ------------------------------------

def _after_rref(tracer, args, result):
    tracer.maximum("linalg.max_entry_bits", _max_bits(result.reduced.data[: result.rank]))


def _after_nullspace(tracer, args, result):
    tracer.count("linalg.rank", args[0].cols - result.dim)
    tracer.maximum("linalg.max_entry_bits", _max_bits(result.basis))


def _after_solve(tracer, args, result):
    if result is not None:
        tracer.maximum("linalg.max_entry_bits", _max_bits([result]))


def _after_system(tracer, args, result):
    m = args[0].matrix
    tracer.count("derivations.system_rows", m.rows)
    tracer.count("derivations.system_cols", m.cols)
    tracer.count("derivations.system_nnz", sum(1 for row in m.data for x in row if x))


def _after_associativity(tracer, args, result):
    tracer.count("algebra.identities_checked", args[0].dim ** 3)


def _after_axioms(tracer, args, result):
    m = args[0]
    tracer.count("algebra.identities_checked", 3 * m.algebra.dim ** 2 * m.dim)


def layer_values(tracer):
    """{per-layer metric: total} over everything ``tracer`` recorded.

    A layer the calls never reached reads 0.
    """
    by_name, by_pair = tracer.self_times()
    out = {}
    for span in ("io.load_file", "cli.main", "algebra.validate", "extension.build",
                 "derivations.system_build", "derivations.is_derivation",
                 "linalg.nullspace", "linalg.rref", "linalg.solve",
                 "blocks.check", "blocks.split", "blocks.inner_witness",
                 "constructions.lift", "constructions.transport",
                 "constructions.quotient", "constructions.corner",
                 "analysis.radical", "analysis.center", "analysis.simple"):
        out[span + "_s"] = by_name[span]
    out["derivations.recheck_s"] = by_pair[("derivations.derivation_space",
                                            "derivations.is_derivation")]
    for count in ("io.load_file_calls", "algebra.identities_checked",
                  "derivations.system_rows", "derivations.system_cols",
                  "derivations.system_nnz", "derivations.is_derivation_calls",
                  "linalg.rank", "linalg.rref_calls"):
        out[count] = tracer.counts[count]
    out["linalg.max_entry_bits"] = tracer.maxima["linalg.max_entry_bits"]
    return out


def install(tracer):
    """Wrap the layer entry points of every ``modext`` module."""
    from modext import (algebra, analysis, blocks, cli, constructions,
                        derivations, extension, io, linalg)

    f = tracer.wrap_function
    f(io, "load_file", "io.load_file")
    f(cli, "main", "cli.main")
    f(linalg, "rref", "linalg.rref", kernel=True, after=_after_rref)
    f(linalg, "nullspace", "linalg.nullspace", kernel=True, after=_after_nullspace)
    f(linalg, "solve", "linalg.solve", kernel=True, after=_after_solve)
    f(derivations, "derivation_space", "derivations.derivation_space")
    f(derivations, "is_derivation", "derivations.is_derivation")
    f(derivations, "inner_space", "derivations.inner_space")
    f(blocks, "check_block_conditions", "blocks.check")
    f(blocks, "split_d1_d2", "blocks.split")
    f(blocks, "inner_witness", "blocks.inner_witness")
    f(constructions, "lift", "constructions.lift")
    f(constructions, "transport", "constructions.transport")
    f(constructions, "quotient_derivation", "constructions.quotient")
    f(constructions, "corner_tau", "constructions.corner")
    f(analysis, "radical", "analysis.radical")
    f(analysis, "center", "analysis.center")
    f(analysis, "is_simple_prime", "analysis.simple")
    m = tracer.wrap_method
    m(algebra.Algebra, "associativity_report", "algebra.validate", after=_after_associativity)
    m(algebra.Bimodule, "axiom_report", "algebra.validate", after=_after_axioms)
    m(derivations.LeibnizSystem, "__init__", "derivations.system_build", after=_after_system)
    m(extension.ModuleExtension, "__init__", "extension.build")
