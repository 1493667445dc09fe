"""verify-mix: a seeded stream of block, witness, recipe and structure
operations over four extensions T(A, A) that are built once per pass.

Maps fed to the program are seeded inner derivations ad_(b,v) and the
non-inner grading derivation tau2 = id_U, all made by the benchmark.
Every answer is checked against a value the benchmark computes itself:
witnesses are substituted back, split parts are summed, recipe outputs
are compared with their closed form, and radical, center and simplicity
are compared with what the theory gives for M_n and UT_n.
"""

from __future__ import annotations

import gc
from fractions import Fraction

import gen
from common import clock, is_leibniz, peak_rss_mb, quantile
from tracer import install, layer_values

EXTENSIONS = (("M", 2), ("UT", 3), ("M", 3), ("UT", 4))
INNER_PER_EXTENSION = 1


class Instance:
    """Generated data for one T(A, A): constants, maps and expected answers."""

    def __init__(self, kind, n, rng):
        self.kind, self.n = kind, n
        self.triangular = kind == "UT"
        self.name = "T(%s%d,%s%d)" % (kind, n, kind, n)
        self.mul = gen.upper_triangular(n) if self.triangular else gen.matrix_units(n)
        m = self.m = len(self.mul)
        d = self.d = 2 * m
        self.sa = gen.sparse(self.mul)
        self.st = gen.sparse(gen.extension_tensor(self.mul))
        ad = gen.ad_matrix
        self.maps = []   # (label, D on T, witness expected?)
        for k in range(INNER_PER_EXTENSION):
            x = gen.small_vector(d, rng)
            self.maps.append(("ad#%d" % k, ad(self.st, d, x), True))
        self.maps.append(("grading", gen.grading_matrix(m), False))
        # recipe inputs: inner derivations of A, and A -> U with U = A
        self.delta_u = ad(self.sa, m, gen.small_vector(m, rng))
        self.delta_a = ad(self.sa, m, gen.small_vector(m, rng))
        self.units = gen.unit_index(n, self.triangular)
        self.upper = sorted(k for (i, j), k in self.units.items() if i < j)
        self.diagonal = [self.units[(i, i)] for i in range(n)]
        self.p = _unit(m, self.units[(0, 0)])   # the idempotent E_11

    # expected closed forms of the four recipes on T(A, A), T(A, A/I), T(A, Ap)

    def lift_expected(self):
        m = self.m
        return _blocks([[None, None], [self.delta_u, None]], m, m)

    def transport_expected(self):
        m = self.m
        return _blocks([[self.delta_a, None], [None, self.delta_a]], m, m)

    def _restricted(self, keep, right=None):
        """tau on the coordinates ``keep``: delta(e_c) (times p), restricted."""
        tau = []
        cols = [[self.delta_a[r][c] for r in range(self.m)] for c in keep]
        if right is not None:
            cols = [_mul(self.sa, self.m, col, right) for col in cols]
        for r in keep:
            tau.append([col[r] for col in cols])
        return tau

    def quotient_expected(self):
        """On T(A, A/I) for I the strictly upper ideal of UT_n; A/I has the
        cosets of the diagonal units as its basis."""
        keep = [c for c in range(self.m) if c not in self.upper]
        return _blocks([[self.delta_a, None], [None, self._restricted(keep)]],
                       self.m, len(keep))

    def corner_expected(self):
        m = self.m
        keep = sorted({k for i in range(m) for k, x in
                       enumerate(_mul(self.sa, m, _unit(m, i), self.p)) if x})
        return _blocks([[self.delta_a, None],
                        [None, self._restricted(keep, right=self.p)]], m, len(keep))

    def radical_expected(self):
        """rad T(A, A) = rad A + U, and rad A is the strictly upper part
        for UT_n and 0 for M_n: n^2 unit vectors either way."""
        m = self.m
        coords = (self.upper if self.triangular else []) + list(range(m, 2 * m))
        return [_unit(2 * m, k) for k in coords]

    def center_expected(self):
        """Z(T(A, A)) = Q(1, 0) + Q(0, 1) for A = M_n or UT_n."""
        m = self.m
        one = [int(k in self.diagonal) for k in range(m)]
        return [one + [0] * m, [0] * m + one]


def _unit(d, i):
    return [int(k == i) for k in range(d)]


def _mul(smul, d, x, y):
    out = [0] * d
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    for k, c in smul.get((i, j), ()):
                        out[k] += xi * yj * c
    return out


def _blocks(grid, m, q):
    """Assemble [[A->A, U->A], [A->U, U->U]] blocks (None is zero)."""
    sizes = (m, q)
    rows = []
    for bi in range(2):
        for r in range(sizes[bi]):
            row = []
            for bj in range(2):
                blk = grid[bi][bj]
                row.extend(blk[r] if blk is not None else [0] * sizes[bj])
            rows.append(row)
    return rows


def _same(matrix, expected):
    return [list(map(Fraction, r)) for r in matrix] == \
        [list(map(Fraction, r)) for r in expected]


def make_inputs(seed):
    rng = gen.seeded_rng(seed, "verify-mix")
    instances = [Instance(kind, n, rng) for kind, n in EXTENSIONS]
    ops = []
    for idx, inst in enumerate(instances):
        for label, _, _ in inst.maps:
            for op in ("check", "split", "witness"):
                ops.append((idx, op, label))
        for op in ("lift", "transport", "corner", "radical", "center", "simple"):
            ops.append((idx, op, None))
        if inst.triangular:
            ops.append((idx, "quotient", None))
    rng.shuffle(ops)
    return instances, ops


class Workload:
    name = "verify-mix"

    def __init__(self, mx, seed):
        self.mx = mx
        self.instances, self.ops = make_inputs(seed)
        self.latencies = []
        self.pass_times = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0

    def _build(self):
        """Build each T(A, A) once per pass; timed as program work."""
        mx = self.mx
        built = []
        for inst in self.instances:
            t0 = clock()
            a = mx.algebra.Algebra(inst.mul)
            t = mx.extension.trivial_extension(a, a.self_bimodule())
            self.busy += clock() - t0
            built.append(t)
        return built

    def one_pass(self):
        busy = self.busy
        built = self._build()
        for idx, op, label in self.ops:
            inst, t = self.instances[idx], built[idx]
            self.attempted += 1
            try:
                call, check = self._prepare(inst, t, op, label)
                gc.collect()    # every operation starts from the same collected heap
                t0 = clock()
                result = call()
                dt = clock() - t0
                ok = check(result)
            except Exception as e:  # a crash is a wrong answer, and the run goes on
                print("verify-mix %s %s %s: %r" % (inst.name, op, label, e))
                ok, dt = False, None
            if dt is not None:
                self.latencies.append(dt)
                self.busy += dt
            if not ok:
                self.failed += 1
                print("verify-mix %s %s %s: wrong answer" % (inst.name, op, label))
        self.pass_times.append(self.busy - busy)

    def _prepare(self, inst, t, op, label):
        """(the program call, the check of its result) for one operation."""
        mx = self.mx
        M, L = mx.linalg.Matrix.from_rows, mx.algebra.LinearMap
        a, u, total = t.base, t.module, t.total
        if label is not None:
            _, dmat, inner = next(x for x in inst.maps if x[0] == label)
            d = L(total, total, M(dmat))
            if op == "check":
                return (lambda: mx.blocks.check_block_conditions(t, mx.blocks.blocks_of(t, d)),
                        lambda rep: rep.passed)
            if op == "split":
                def split_ok(parts):
                    d1, d2 = parts
                    m = inst.m
                    only_delta2 = [[x if r >= m and c < m else 0
                                    for c, x in enumerate(row)]
                                   for r, row in enumerate(dmat)]
                    return _same(d2.matrix.data, only_delta2) and \
                        (d1.matrix + d2.matrix).data == d.matrix.data
                return lambda: mx.blocks.split_d1_d2(t, d), split_ok

            def witness_ok(w):
                if w is None:
                    return not inner
                b, v = w
                x = list(b.coords) + list(v.coords)
                return inner and _same(gen.ad_matrix(inst.st, inst.d, x), dmat)
            return lambda: mx.blocks.inner_witness(t, d), witness_ok

        c = mx.constructions

        def recipe_ok(expected):
            def ok(res):
                dm = res.derivation.matrix.data
                smul = gen.sparse(res.extension.total.mul_tensor)
                return (res.verification.passed and _same(dm, expected)
                        and is_leibniz(smul, len(dm), dm))
            return ok

        delta_a = L(a, a, M(inst.delta_a))
        if op == "lift":
            return (lambda: c.lift(t, L(a, u, M(inst.delta_u))),
                    recipe_ok(inst.lift_expected()))
        if op == "transport":
            one = M(gen.identity(inst.m))
            return (lambda: c.transport(t, delta_a, L(a, u, one), L(u, a, one)),
                    recipe_ok(inst.transport_expected()))
        if op == "corner":
            return (lambda: c.corner_tau(a, inst.p, delta_a),
                    recipe_ok(inst.corner_expected()))
        if op == "quotient":
            ideal = mx.linalg.Subspace(inst.m, [[Fraction(1 if k == c else 0)
                                                 for k in range(inst.m)]
                                                for c in inst.upper])
            return (lambda: c.quotient_derivation(a, ideal, delta_a),
                    recipe_ok(inst.quotient_expected()))
        an = mx.analysis
        if op == "radical":
            want = inst.radical_expected()
            return (lambda: an.radical(total),
                    lambda rep: not rep.is_semisimple and _same(rep.radical.basis, want))
        if op == "center":
            want = inst.center_expected()
            return lambda: an.center(total), lambda z: _same(z.basis, want)
        simple = not inst.triangular
        return (lambda: an.is_simple_prime(a),
                lambda rep: rep.simple is simple and rep.prime is simple)

    def peak_rss_mb(self):
        return peak_rss_mb()

    def detail(self):
        n = len(self.latencies)
        return {
            "verify_ops_per_s": (n / self.busy, "1/s", n),
            "verify_op_p90_ms": (1000 * quantile(self.latencies, 0.9), "ms", n),
        }

    def start_trace(self, tracer):
        install(tracer)

    def layers(self, tracer):
        return layer_values(tracer)
