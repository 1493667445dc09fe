"""der-ladder: in-process Der, Inn and H1 solves over a size ladder.

Each instance is handed to the program as structure constants; the
program builds the algebra (and T(A, A) where named), solves the
Leibniz system for Der, spans Inn, and H1 = dim Der - dim Inn, as the
``der --inner --h1`` command reports it.  Answers are checked against
theorems, and every returned basis map is re-checked as a derivation by
the benchmark's own sparse Leibniz test.
"""

from __future__ import annotations

import gc
import statistics

import gen
from common import clock, is_leibniz, peak_rss_mb
from tracer import install, layer_values

LADDER, ANCHOR, DENSE = "ladder", "anchor", "dense"


def _t_mn(n):      # T(M_n, M_n): Der = 2n^2 - 1, Inn = 2n^2 - 2
    return True, 2 * n * n - 1, 2 * n * n - 2


def _t_utn(n):     # T(UT_n, UT_n): Der = n(n+1) - 1, Inn = n(n+1) - 2
    return True, n * (n + 1) - 1, n * (n + 1) - 2


def _poly(n):      # Q[t]/(t^n): Der = n - 1, Inn = 0
    return False, n - 1, 0


def make_inputs(seed):
    """[(name, group, A's structure constants, build T(A, A)?, Der, Inn)]."""
    rng = gen.seeded_rng(seed, "der-ladder")
    out = []

    def add(name, group, mul, expected):
        ext, der, inn = expected
        out.append((name, group, mul, ext, der, inn))

    def twin(mul):
        p, q = gen.random_basis_change(len(mul), rng)
        return gen.conjugate(mul, p, q)

    add("T(M2,M2)", LADDER, gen.matrix_units(2), _t_mn(2))
    add("T(UT2,UT2)", LADDER, gen.upper_triangular(2), _t_utn(2))
    add("T(UT3,UT3)", LADDER, gen.upper_triangular(3), _t_utn(3))
    for n in (4, 6, 8, 10, 12):
        add("Q[t]/(t^%d)" % n, LADDER, gen.truncated_poly(n), _poly(n))
    add("T(M3,M3)", ANCHOR, gen.matrix_units(3), _t_mn(3))
    add("T(M2',M2')", DENSE, twin(gen.matrix_units(2)), _t_mn(2))
    add("Q[t]/(t^6)'", DENSE, twin(gen.truncated_poly(6)), _poly(6))
    add("Q[t]/(t^8)'", DENSE, twin(gen.truncated_poly(8)), _poly(8))
    rng.shuffle(out)
    return out


def _solve(mx, mul, build_extension):
    """The timed part: build the algebra, then Der, Inn and H1."""
    a = mx.algebra.Algebra(mul)
    if build_extension:
        a = mx.extension.trivial_extension(a, a.self_bimodule()).total
    u = a.self_bimodule()
    der = mx.derivations.derivation_space(a, u)
    inn = mx.derivations.inner_space(a, u)
    return a, der, inn, der.dim - inn.dim


def _correct(a, der, inn, h1, want_der, want_inn):
    if (der.dim, inn.dim, h1) != (want_der, want_inn, want_der - want_inn):
        return False
    smul = gen.sparse(a.mul_tensor)
    return all(is_leibniz(smul, a.dim, d.matrix.data) for d in der.basis)


class Workload:
    name = "der-ladder"

    def __init__(self, mx, seed):
        self.mx = mx
        self.instances = make_inputs(seed)
        self.times = {LADDER: [], ANCHOR: [], DENSE: []}
        self.latencies = []
        self.pass_times = []
        self.attempted = 0
        self.failed = 0

    def one_pass(self):
        # Each instance is solved once per pass.  A pass takes longer than a
        # run (the T(M3,M3) anchor alone is about 20 s on a 2-vCPU VM), so
        # solving the groups again would push every run far past its length.
        totals = {LADDER: 0.0, ANCHOR: 0.0, DENSE: 0.0}
        for name, group, mul, ext, want_der, want_inn in self.instances:
            self.attempted += 1
            try:
                gc.collect()    # every solve starts from the same collected heap
                t0 = clock()
                answer = _solve(self.mx, mul, ext)
                dt = clock() - t0
                self.latencies.append(dt)
                totals[group] += dt
                ok = _correct(*answer, want_der, want_inn)
            except Exception as e:  # a crash is a wrong answer, and the run goes on
                print("der-ladder %s: %r" % (name, e))
                ok = False
            if not ok:
                self.failed += 1
                print("der-ladder %s: wrong answer" % name)
        for group, t in totals.items():
            self.times[group].append(t)
        self.pass_times.append(sum(totals.values()))

    def peak_rss_mb(self):
        return peak_rss_mb()

    def detail(self):
        med = statistics.median
        return {
            "der_ladder_s": (med(self.times[LADDER]), "s", len(self.times[LADDER])),
            "der_TM3_s": (med(self.times[ANCHOR]), "s", len(self.times[ANCHOR])),
            "der_dense_s": (med(self.times[DENSE]), "s", len(self.times[DENSE])),
        }

    def start_trace(self, tracer):
        install(tracer)

    def layers(self, tracer):
        return layer_values(tracer)
