import copy
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from modext.algebra import Algebra, LinearMap, _sum_sparse
from modext.analysis import center
from modext.derivations import (
    LeibnizSystem,
    _failing_pairs,
    derivation_space,
    generators,
    h1_dimension,
    inner_derivation,
    inner_space,
    is_derivation,
)
from modext import derivations, linalg
from modext.constructions import corner_module
from modext.extension import quotient_algebra, quotient_bimodule, trivial_extension
from modext.io import load_file
from modext.linalg import Matrix, SparseMatrix, Subspace, nullspace, rank, solve, unit_vec
from modext.samples import (
    column_module,
    dual_numbers,
    left_regular_module,
    matrix_units,
    q_plus_q,
    truncated_poly,
    upper_triangular_2,
    zero_action_module,
    zero_product,
)

import oracles
from families import (basis_change, from_columns, from_row_major, row_major, self_extension,
                      twin, upper_triangular)
from oracles import (
    PRIME,
    dense_nullspace,
    dense_product,
    derivation_dim,
    exact_generators,
    inner_dim,
    leibniz_first_failure,
    leibniz_holds,
    leibniz_pair_sides,
    leibniz_rational_rows,
    leibniz_rows,
    tensors_of,
    word_span_dim,
)

DATA = Path(__file__).resolve().parent.parent / "data"


class TestIsDerivation:
    def test_zero_map(self):
        a = matrix_units(2)
        u = a.self_bimodule()
        assert is_derivation(a, u, LinearMap.zero(a, u)).passed

    def test_eps_scaling_on_dual_numbers(self):
        a = dual_numbers()
        u = a.self_bimodule()
        f = LinearMap(a, u, Matrix.from_rows([[0, 0], [0, 1]]))
        assert is_derivation(a, u, f).passed

    def test_identity_on_m2_is_not_a_derivation(self):
        a = matrix_units(2)
        u = a.self_bimodule()
        rep = is_derivation(a, u, LinearMap(a, u, Matrix.identity(4)))
        assert not rep.passed
        (idx, lhs, rhs) = rep.failures()[0].witness
        assert idx == (0, 0)  # E11 E11: LHS E11, RHS 2 E11
        assert rhs == [x * 2 for x in lhs]

    def test_agrees_with_the_naive_oracle_on_random_maps(self, corpus_pairs):
        # members of Der(A,U), some with one entry changed, and random maps
        rng = random.Random(41)
        verdicts = []
        for name, a, u in corpus_pairs:
            mul, left, right = tensors_of(a, u)
            basis = [row_major(d.matrix) for d in derivation_space(a, u).basis]
            for trial in range(6):
                flat = [0] * (a.dim * u.dim)
                if trial < 4:
                    for k in basis:
                        c = rng.randint(-2, 2)
                        flat = [x + c * y for x, y in zip(flat, k)]
                    if trial % 2 and flat:
                        flat[rng.randrange(len(flat))] += rng.choice([-1, 1])
                else:
                    flat = [rng.randint(-2, 2) for _ in flat]
                f = LinearMap(a, u, from_row_major(u.dim, a.dim, flat))
                rep = is_derivation(a, u, f)
                expected = leibniz_first_failure(mul, left, right, f.matrix.data)
                assert rep.passed == (expected is None), name
                if expected is not None:
                    assert rep.failures()[0].witness == expected, name
                verdicts.append(rep.passed)
        assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def _random_maps(rng, basis, size):
    """Members of the span of basis, each also with one entry changed, and
    random maps, as flat entry vectors of the given size."""
    out = []
    for _ in range(3):
        flat = [0] * size
        for k in basis:
            c = rng.randint(-2, 2)
            flat = [x + c * y for x, y in zip(flat, k)]
        out.append(flat)
        if size:
            flat = list(flat)
            flat[rng.randrange(size)] += rng.choice([-1, 1, 2])
            out.append(flat)
    out += [[rng.choice([0, 0, 1, -1]) for _ in range(size)] for _ in range(2)]
    return out


class TestOneStatementOfTheIdentity:
    def test_failing_pairs_are_the_rows_with_a_residual(self, corpus_der_t):
        # the check and the solver's rows read the same terms: the pairs the
        # check reports are exactly those whose rows have a nonzero residual,
        # and each pair's sides are the naive evaluation
        rng = random.Random(59)
        counts = [0, 0]
        for name, a, u, t, der_t in corpus_der_t:
            tsb = t.total.self_bimodule()
            for alg, mod, der in ((a, u, derivation_space(a, u)), (t.total, tsb, der_t)):
                m, n = alg.dim, mod.dim
                rows = list(leibniz_rows(alg, mod))
                mul, left, right = tensors_of(alg, mod)
                basis = [row_major(d.matrix) for d in der.basis]
                for flat in _random_maps(rng, basis, m * n):
                    residual = {divmod(r // n, m) for r, row in enumerate(rows)
                                if sum(c * flat[col] for col, c in row)}
                    d = from_row_major(n, m, flat)
                    failures = list(_failing_pairs(alg, mod, LinearMap(alg, mod, d)))
                    assert [pair for pair, _, _ in failures] == sorted(residual), name
                    for (i, j), lhs, rhs in failures:
                        assert (lhs, rhs) == leibniz_pair_sides(mul, left, right, d.data, i, j)
                    rep = is_derivation(alg, mod, LinearMap(alg, mod, d))
                    assert rep.passed == (not failures), name
                    if failures:
                        assert rep.failures()[0].witness == failures[0], name
                    counts[bool(failures)] += 1
        assert min(counts) >= 100, counts


class TestDerivationSpace:
    def test_zero_product_all_maps_qualify(self):
        for n in (1, 2, 3):
            a = zero_product(n)
            assert derivation_space(a, a.self_bimodule()).dim == n * n

    def test_edge_cases_of_the_word_system(self):
        # the dim-0 algebra and a 0-dimensional module have no unknowns;
        # with zero products every product is 0 = 0, so no row is emitted
        # and every map is a derivation
        empty = Algebra([])
        der = derivation_space(empty, empty.self_bimodule())
        assert (der.dim, der.kernel.ambient_dim) == (0, 0)
        a = truncated_poly(5)
        der = derivation_space(a, zero_action_module(a, 0))
        assert (der.dim, der.kernel.ambient_dim) == (0, 0)
        assert derivation_space(a, zero_action_module(a, 3)).dim == 0  # D(1) = D(1 1) = 0
        z = zero_product(3)
        system = LeibnizSystem(z, z.self_bimodule())
        assert (system.matrix.rows, system.matrix.cols) == (0, 9)
        assert derivation_space(z, z.self_bimodule()).dim == 9

    def test_dual_numbers_dimension(self):
        a = dual_numbers()
        assert derivation_space(a, a.self_bimodule()).dim == 1

    def test_m2_dimension(self):
        a = matrix_units(2)
        assert derivation_space(a, a.self_bimodule()).dim == 3

    def test_dimensions_match_naive_oracle(self, corpus_pairs):
        for name, a, u in corpus_pairs:
            if a.dim * u.dim > 12:
                continue  # keep the sympy oracle fast; big ones hit elsewhere
            mul, left, right = tensors_of(a, u)
            assert derivation_space(a, u).dim == derivation_dim(mul, left, right), name

    def test_every_basis_element_passes_the_naive_leibniz_check(self, corpus_pairs):
        for name, a, u in corpus_pairs:
            mul, left, right = tensors_of(a, u)
            for d in derivation_space(a, u).basis:
                assert leibniz_holds(mul, left, right, d.matrix.data), name


class TestResidualCertificate:
    def test_vector_outside_the_kernel_is_rejected(self, monkeypatch):
        import modext.linalg as linalg

        real = linalg._kernel_vectors

        def leaky(*args):
            # D(1) = 1 on the dual numbers is no derivation
            kernel = real(*args)
            return kernel._replace(rows=kernel.rows + 1, data=kernel.data + [[(0, 1)]])

        monkeypatch.setattr(linalg, "_kernel_vectors", leaky)
        a = dual_numbers()
        with pytest.raises(AssertionError, match="residual"):
            derivation_space(a, a.self_bimodule())
        with pytest.raises(AssertionError, match="residual"):
            nullspace(LeibnizSystem(a, a.self_bimodule()).matrix)


class TestInner:
    def test_zero_element_gives_zero_map(self):
        a = matrix_units(2)
        u = a.self_bimodule()
        assert inner_derivation(a, u, [0, 0, 0, 0]).is_zero()

    def test_commutative_self_module_has_no_inner_derivations(self):
        for a in (dual_numbers(), zero_product(2)):
            u = a.self_bimodule()
            assert inner_space(a, u).dim == 0

    def test_commutator_with_e12_on_m2(self):
        a = matrix_units(2)
        u = a.self_bimodule()
        d = inner_derivation(a, u, unit_vec(4, 1))  # x = E12
        # id_x(a) = a x - x a on the basis E11, E12, E21, E22
        assert d(unit_vec(4, 0)) == [0, 1, 0, 0]    # E11 E12 - E12 E11 = E12
        assert d(unit_vec(4, 1)) == [0, 0, 0, 0]    # E12 commutes with itself
        assert d(unit_vec(4, 2)) == [-1, 0, 0, 1]   # E21 E12 - E12 E21 = E22 - E11
        assert d(unit_vec(4, 3)) == [0, -1, 0, 0]   # E22 E12 - E12 E22 = -E12
        # recompute directly as the oracle
        for i in range(4):
            ei = unit_vec(4, i)
            expect = [
                p - q
                for p, q in zip(
                    a.mul_vec(ei, unit_vec(4, 1)), a.mul_vec(unit_vec(4, 1), ei)
                )
            ]
            assert d(ei) == expect

    def test_inner_dimension_of_m2(self):
        a = matrix_units(2)
        u = a.self_bimodule()
        assert inner_space(a, u).dim == 3  # dim U - dim center

    def test_inner_dims_match_naive_oracle(self, corpus_pairs):
        for name, a, u in corpus_pairs:
            mul, left, right = tensors_of(a, u)
            assert inner_space(a, u).dim == inner_dim(mul, left, right), name

    def test_inner_derivations_are_derivations(self, corpus_pairs):
        for name, a, u in corpus_pairs:
            for j in range(u.dim):
                d = inner_derivation(a, u, unit_vec(u.dim, j))
                assert is_derivation(a, u, d).passed, name

    def test_inner_and_center_bases_match_the_dense_oracle(self, corpus_extensions):
        """Inn(A, U) is the RREF of the naive ad vectors, spanned as rows;
        Z(A) the dense nullspace of the matrix whose columns they are."""
        t3 = self_extension(matrix_units(3))
        cases = [(name, a, u, t.total) for name, a, u, t in corpus_extensions]
        for name, a, u, total in cases + [("T(M3,M3)", t3, t3.self_bimodule(), None)]:
            ads = oracles.ad_vectors(*tensors_of(a, u))
            red, pivots = oracles.dense_rref(ads) if ads else ([], [])
            assert inner_space(a, u).basis == red[:len(pivots)], name
            for alg in filter(None, (a, total)):
                ads = oracles.ad_vectors(*tensors_of(alg, alg.self_bimodule()))
                transposed = [list(row) for row in zip(*ads)]
                assert center(alg).basis == dense_nullspace(transposed), name

    @pytest.mark.parametrize("build", [
        lambda: matrix_units(3).self_bimodule(),
        lambda: self_extension(matrix_units(2)).self_bimodule(),
        lambda: self_extension(upper_triangular(3)).self_bimodule(),
        lambda: column_module(3),
        lambda: left_regular_module(truncated_poly(5)),
        lambda: zero_action_module(matrix_units(2), 3),
    ], ids=["M3", "T(M2,M2)", "T(UT3,UT3)", "column_module(3)", "Q[t]/(t^5) left",
            "zero_action(M2, 3)"])
    def test_kept_elimination_is_the_row_space_and_the_kernel(self, build):
        """Inn is the row space of the ad columns, and H^0 = {x : a x = x a}
        the kernel of the matrix they are the columns of."""
        u = build()
        a = u.algebra
        ads = Matrix.from_rows(oracles.ad_vectors(*tensors_of(a, u)))
        kept = derivations._inner(a, u)
        assert inner_space(a, u) == Subspace.row_space(ads)
        assert kept.h0 == nullspace(from_columns(ads.data))
        assert inner_space(a, u).dim + kept.h0.dim == u.dim
        for row, x in zip(kept.inn.rows, kept.preimages):  # ad_x is the row
            assert _sum_sparse(x.items(), kept.columns) == row

    def test_inn_center_and_witnesses_build_one_elimination(self, monkeypatch):
        from modext.blocks import inner_witness

        reduced = []
        real = derivations._rref
        monkeypatch.setattr(derivations, "_rref", lambda *args: reduced.append(args[1]) or real(*args))
        a = matrix_units(3)
        t = trivial_extension(a, a.self_bimodule())
        tsb = t.total.self_bimodule()
        der = derivation_space(t.total, tsb)
        assert (inner_space(t.total, tsb).dim, center(t.total).dim) == (16, 2)
        witnesses = [inner_witness(t, d) for d in der.basis]
        assert sum(w is None for w in witnesses) == 1
        inner_derivation(t.total, tsb, unit_vec(t.total.dim, 1))
        assert reduced == [t.total.dim ** 2 + t.total.dim]  # T's ad rows and their tags

    def test_inner_map_is_row_reduced_once(self, monkeypatch):
        # H^0's rows are read off the one elimination: no second _rref,
        # through derivations' binding or linalg's (Subspace.row_space)
        reduced = []
        real = linalg._rref
        spy = lambda *args: reduced.append(args[1]) or real(*args)
        monkeypatch.setattr(derivations, "_rref", spy)
        monkeypatch.setattr(linalg, "_rref", spy)
        a = matrix_units(3)
        t = trivial_extension(a, a.self_bimodule())
        kept = derivations._inner(t.total, t.total.self_bimodule())
        assert (kept.inn.dim, kept.h0.dim) == (16, 2)
        assert reduced == [t.total.dim ** 2 + t.total.dim]  # 342 columns, once

    def test_inner_derivation_is_the_naive_commutator(self, corpus_pairs):
        rng = random.Random(24)
        for name, a, u in corpus_pairs:
            mul, left, right = tensors_of(a, u)
            for _ in range(3):
                x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(u.dim)]
                # column i is e_i x - x e_i
                cols = [[p - q for p, q in zip(oracles.left_act(left, unit_vec(a.dim, i), x),
                                               oracles.right_act(right, x, unit_vec(a.dim, i)))]
                        for i in range(a.dim)]
                want = [[col[k] for col in cols] for k in range(u.dim)]
                assert inner_derivation(a, u, x).matrix.data == want, name

    def test_inner_derivation_on_a_fresh_bimodule_runs_no_elimination(self, monkeypatch):
        # it reads the kept ad columns only; Inn's elimination waits for a
        # caller that needs it
        reduced = []
        real = derivations._rref
        monkeypatch.setattr(derivations, "_rref",
                            lambda *args: reduced.append(args[1]) or real(*args))
        t = self_extension(matrix_units(3))
        tsb = t.self_bimodule()
        x = [Fraction(i % 5 - 2, i % 3 + 1) for i in range(t.dim)]
        d = inner_derivation(t, tsb, x)
        assert reduced == []
        _, left, right = tensors_of(t, tsb)
        cols = [[p - q for p, q in zip(oracles.left_act(left, unit_vec(t.dim, i), x),
                                       oracles.right_act(right, x, unit_vec(t.dim, i)))]
                for i in range(t.dim)]
        assert d.matrix.data == [[col[k] for col in cols] for k in range(t.dim)]
        inner_space(t, tsb)
        assert reduced == [t.dim ** 2 + t.dim]


class TestTheoremFamilies:
    """Families past the dim <= 4 corpus whose answers are known theorems.

    dim Der T(M_n, M_n) = 2n^2 - 1 with Inn one less (the grading
    derivation, identity on U, is outer); dim Der T(UT_n, UT_n) =
    n(n + 1) - 1 with Inn one less; Q[t]/(t^n) is commutative, so Inn = 0,
    and Der is spanned by t^k d/dt for k = 1..n-1.
    """

    @pytest.mark.parametrize("build, want_der, want_inn", [
        (lambda: self_extension(matrix_units(3)), 17, 16),
        (lambda: self_extension(upper_triangular(4)), 19, 18),
        (lambda: truncated_poly(16), 15, 0),
    ], ids=["T(M3,M3)", "T(UT4,UT4)", "Q[t]/(t^16)"])
    def test_dimensions_and_every_basis_map(self, build, want_der, want_inn):
        a = build()
        u = a.self_bimodule()
        der = derivation_space(a, u)
        assert (der.dim, inner_space(a, u).dim) == (want_der, want_inn)
        mul, left, right = tensors_of(a, u)
        for d in der.basis:
            assert leibniz_holds(mul, left, right, d.matrix.data)

    def test_t_m4_m4_by_one_random_combination(self):
        a = self_extension(matrix_units(4))
        u = a.self_bimodule()
        der = derivation_space(a, u)
        assert (der.dim, inner_space(a, u).dim) == (31, 30)
        # the Leibniz identity is linear, so a generic combination of the
        # basis fails it as soon as one basis map does
        rng = random.Random(4)
        weights = [rng.randint(1, 10**6) for _ in der.basis]
        combination = [
            [sum(w * d.matrix.data[r][s] for w, d in zip(weights, der.basis))
             for s in range(a.dim)]
            for r in range(u.dim)
        ]
        mul, left, right = tensors_of(a, u)
        assert leibniz_holds(mul, left, right, combination)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_t_of_truncated_poly_has_3n_minus_2_derivations(self, n):
        # T(Q[t]/(t^n), Q[t]/(t^n)) = Q[t, e]/(t^n, e^2) is commutative, so
        # Inn = 0; a derivation is fixed by D(t) in Ann(t^(n-1)), of
        # dimension 2(n - 1), and D(e) in Ann(e) = eT, of dimension n
        a = self_extension(truncated_poly(n))
        u = a.self_bimodule()
        assert (derivation_space(a, u).dim, inner_space(a, u).dim) == (3 * n - 2, 0)


def _twice(m):
    """m (+) m: the basis change of T(A, A) made by m on both summands."""
    d = m.rows
    pad = [0] * d
    return Matrix(2 * d, 2 * d, [row + pad for row in m.data] + [pad + row for row in m.data])


class TestDenseTwins:
    """Seeded basis-change twins A', so that no pin depends on a sparse
    basis.  With p the change of basis and q = p^-1, Der A' is {q D p : D
    in Der A}, and T(A', A') is T(A, A) changed by p on both summands.  The
    first sample of nullspace's row basis is enough for Q[t]/(t^10)'; for
    T(M2', M2') the certificate rejects rows and a second round is needed.
    """

    @pytest.mark.parametrize("build, extend, want_der, want_inn, rounds", [
        (lambda: truncated_poly(10), False, 9, 0, 1),
        (lambda: matrix_units(2), True, 7, 6, 2),
    ], ids=["Q[t]/(t^10)'", "T(M2',M2')"])
    def test_der_is_the_conjugate_of_the_untwisted_der(self, build, extend, want_der,
                                                       want_inn, rounds, monkeypatch):
        a = build()
        p, q = basis_change(a.dim, seed=1)
        dense = twin(a, p, q)
        if extend:
            a, dense, p, q = self_extension(a), self_extension(dense), _twice(p), _twice(q)
        rejected = []
        real = linalg._rejected

        def spy(*args):
            rejected.append(list(real(*args)))
            return rejected[-1]

        monkeypatch.setattr(linalg, "_rejected", spy)
        der = derivation_space(dense, dense.self_bimodule())
        assert len(rejected) == rounds and not rejected[-1]
        assert (der.dim, inner_space(dense, dense.self_bimodule()).dim) == (want_der, want_inn)
        n = a.dim
        conjugates = [[x for row in dense_product(dense_product(q.data, d.matrix.data, n), p.data, n)
                       for x in row] for d in derivation_space(a, a.self_bimodule()).basis]
        assert der.kernel == Subspace(n * n, conjugates)


TWINS = pytest.mark.parametrize("build, extend", [
    (lambda: truncated_poly(10), False),
    (lambda: matrix_units(2), True),
], ids=["Q[t]/(t^10)'", "T(M2',M2')"])


def _dense_twin(build, extend):
    a = build()
    p, q = basis_change(a.dim, seed=1)
    dense = twin(a, p, q)
    return self_extension(dense) if extend else dense


def _naive_ad_columns(a, u):
    """The flattened ad_{u_s}, nonzeros only, from the rational tensors."""
    return [{r: x for r, x in enumerate(col) if x}
            for col in oracles.ad_vectors(*tensors_of(a, u))]


class TestAdColumns:
    """``_ad_columns`` sums on the integer tables and makes a Fraction of
    each nonzero left: column s is the naive rational ad_{u_s}, its zeros
    left out."""

    @staticmethod
    def _check(a, u):
        columns = derivations._ad_columns(a, u)
        assert columns == _naive_ad_columns(a, u)
        assert all(type(x) is Fraction for col in columns for x in col.values())
        return columns

    def test_on_the_corpus(self, corpus_pairs):
        for _, a, u in corpus_pairs:
            self._check(a, u)

    @TWINS
    def test_on_the_dense_twins(self, build, extend):
        a = _dense_twin(build, extend)
        assert a.self_bimodule().integer_tables[0] != 1
        self._check(a, a.self_bimodule())

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([lambda: matrix_units(2), lambda: truncated_poly(4),
                            lambda: upper_triangular(2),
                            lambda: self_extension(upper_triangular_2())]),
           st.integers(0, 10**6))
    def test_on_seeded_dense_twins(self, build, seed):
        a = build()
        dense = twin(a, *basis_change(a.dim, seed=seed))
        self._check(dense, dense.self_bimodule())

    @pytest.mark.parametrize("n", [2, 3, 6, 36])
    def test_every_column_of_a_commutative_t_is_empty(self, n):
        t = self_extension(truncated_poly(n))
        u = t.self_bimodule()
        if n < 36:  # the naive columns of the 72-dimensional T take about 5 s
            self._check(t, u)
        assert derivations._ad_columns(t, u) == [{}] * t.dim


class TestIntegerLeibnizRows:
    """The Leibniz rows are integers: each is the rational row times the
    common denominator of the structure constants, on the dense twins
    above, whose constants are not integers."""

    @TWINS
    def test_rows_are_the_rational_rows_times_the_denominator(self, build, extend):
        a = _dense_twin(build, extend)
        u = a.self_bimodule()
        den = u.integer_tables[0]
        assert den != 1
        rational = leibniz_rational_rows(*tensors_of(a, u))
        rows = list(leibniz_rows(a, u))
        assert len(rows) == len(rational)
        for row, want in zip(rows, rational):
            assert all(type(x) is int for _, x in row)
            assert dict(row) == {c: den * x for c, x in enumerate(want) if x}

    # dense Gauss-Jordan on the 550 distinct rational rows of Q[t]/(t^10)'
    # takes about 30 s, so the kernel is compared on the smaller twins
    @pytest.mark.parametrize("build, extend", [
        (lambda: truncated_poly(6), False),
        (lambda: matrix_units(2), True),
    ], ids=["Q[t]/(t^6)'", "T(M2',M2')"])
    def test_der_is_the_dense_kernel_of_the_rational_rows(self, build, extend):
        a = _dense_twin(build, extend)
        u = a.self_bimodule()
        assert u.integer_tables[0] != 1
        rational = leibniz_rational_rows(*tensors_of(a, u))
        distinct = [list(r) for r in dict.fromkeys(map(tuple, rational)) if any(r)]
        der = derivation_space(a, u)
        assert [row_major(d.matrix) for d in der.basis] == dense_nullspace(distinct)

    @TWINS
    def test_echelon_matches_the_copying_loop_on_the_system(self, build, extend,
                                                             monkeypatch):
        # every elimination derivation_space runs ends as the copying loop's
        # does and leaves the rows it was handed
        calls = []
        real = linalg._echelon

        def spy(rows):
            calls.append((rows, copy.deepcopy(rows)))
            return real(rows)

        monkeypatch.setattr(linalg, "_echelon", spy)
        a = _dense_twin(build, extend)
        derivation_space(a, a.self_bimodule())
        assert calls
        cols = a.dim ** 2  # the oracle's width: past every column, D's entries the widest
        for rows, before in calls:
            assert rows == before
            assert real(rows) == oracles.copying_echelon(rows, cols)


class TestLeibnizSystemShape:
    def test_t_m3_m3_shape_as_counted_from_the_pair_rows(self):
        # rows and columns of the system at all pairs and of the one solved,
        # in D's values at the 6 generators, and their nonzeros counted the
        # way the benchmark's tracer counts them
        t = self_extension(matrix_units(3))
        u = t.self_bimodule()
        full = list(leibniz_rows(t, u))
        assert len(full) == 5832
        assert sum(1 for row in full for x in row if x) == 3951
        assert generators(t) == [0, 1, 2, 3, 6, 9]  # E11, E12, E13, E21, E31 and U's E11
        m = LeibnizSystem(t, u).matrix
        assert (m.rows, m.cols) == (641, 108)
        assert sum(1 for row in m.data for x in row if x) == 819
        assert nullspace(m).dim == 17


def _full_kernel(a, u):
    """The kernel of the Leibniz rows at every pair (i, j)."""
    rows = list(leibniz_rows(a, u))
    return nullspace(SparseMatrix(len(rows), a.dim * u.dim, rows))


def _scaled_poly(n):
    """Q[t]/(t^n) on the basis 1, t, t^2/p, ..., t^(n-1)/p^(n-2), p = PRIME:
    f_i f_j = p f_(i+j) for i, j >= 1, so every product of two non-units
    is 0 mod p."""
    mul = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        if i + j < n:
            mul[i][j][i + j] = 1 if 0 in (i, j) else PRIME
    return Algebra(mul)


def _generator_row_cases():
    """(name, A, U) past the corpus: the data files and their extensions,
    T(M_n, M_n) and T(UT_n, UT_n) for n <= 3, Q[t]/(t^n), dense twins, a
    quotient algebra and module, and corner modules."""
    cases = []
    for path in sorted(DATA.glob("*.json")):
        doc = load_file(str(path))
        a = doc.algebra
        cases.append((path.name, a, a.self_bimodule()))
        if doc.module is not None:
            cases.append((path.name + " module", a, doc.module))
            t = trivial_extension(a, doc.module).total
            cases.append(("T of " + path.name, t, t.self_bimodule()))
    for n in (1, 2, 3):
        for name, base in (("M%d", matrix_units(n)), ("UT%d", upper_triangular(n))):
            t = self_extension(base)
            cases.append(("T(%s,%s)" % (name % n, name % n), t, t.self_bimodule()))
    for n in (1, 2, 5, 9):
        a = truncated_poly(n)
        cases.append(("Q[t]/(t^%d)" % n, a, a.self_bimodule()))
    for name, build, extend in (("Q[t]/(t^6)'", lambda: truncated_poly(6), False),
                                ("Q[t]/(t^10)'", lambda: truncated_poly(10), False),
                                ("UT3'", lambda: upper_triangular(3), False),
                                ("T(M2',M2')", lambda: matrix_units(2), True)):
        a = _dense_twin(build, extend)
        cases.append((name, a, a.self_bimodule()))
    poly = truncated_poly(6)
    ideal = Subspace(6, [unit_vec(6, k) for k in (3, 4, 5)])  # (t^3)
    quotient, _ = quotient_bimodule(poly, ideal)
    cases.append(("Q[t]/(t^6) -> Q[t]/(t^3)", poly, quotient))
    qa = quotient_algebra(poly, ideal)[0]
    cases.append(("Q[t]/(t^6) mod (t^3)", qa, qa.self_bimodule()))
    for n in (2, 3):
        m = matrix_units(n)
        cases.append(("M%d corner E11" % n, m, corner_module(m, unit_vec(n * n, 0))))
    return cases


GENERATOR_ROW_CASES = _generator_row_cases()


def _exact_pick_cases():
    """(name, A) for the exact pick: the data files' algebras and their
    T(A, U), dense twins on three seeds, and Q[t]/(t^n) scaled by PRIME."""
    cases = []
    for path in sorted(DATA.glob("*.json")):
        doc = load_file(str(path))
        t = trivial_extension(doc.algebra, doc.module or doc.algebra.self_bimodule()).total
        cases += [(path.name, doc.algebra), ("T of " + path.name, t)]
    for seed, (name, a) in enumerate((("Q[t]/(t^6)'", truncated_poly(6)),
                                      ("UT3'", upper_triangular(3)),
                                      ("T(M2,M2)'", self_extension(matrix_units(2)))), 1):
        cases.append((name, twin(a, *basis_change(a.dim, seed=seed))))
    return cases + [("scaled Q[t]/(t^%d)" % n, _scaled_poly(n)) for n in range(2, 13)]


EXACT_PICK_CASES = _exact_pick_cases()


class TestGeneratorRows:
    """Der(A, U) is solved in D's values on the generating set G of A: the
    lifted kernel is that of the rows at every pair."""

    @pytest.mark.parametrize("name, a, u", GENERATOR_ROW_CASES,
                             ids=[c[0] for c in GENERATOR_ROW_CASES])
    def test_kernel_is_the_full_rows_kernel(self, name, a, u):
        g = generators(a)
        assert LeibnizSystem(a, u).matrix.cols == len(g) * u.dim
        assert derivation_space(a, u).kernel == _full_kernel(a, u)

    def test_kernel_on_the_corpus(self, corpus_pairs):
        for name, a, u in corpus_pairs:
            assert derivation_space(a, u).kernel == _full_kernel(a, u), name

    @pytest.mark.parametrize("name, a, u", GENERATOR_ROW_CASES,
                             ids=[c[0] for c in GENERATOR_ROW_CASES])
    def test_generators_span_the_algebra_over_q(self, name, a, u):
        g = generators(a)
        assert g == sorted(set(g))
        assert word_span_dim(a.mul_tensor, g) == a.dim

    def test_generators_of_the_sparse_families(self):
        assert generators(truncated_poly(9)) == [0, 1]  # 1 and t
        assert len(generators(self_extension(matrix_units(3)))) == 6
        assert generators(zero_product(3)) == [0, 1, 2]  # no products: all of A

    def test_too_few_first_factors_give_a_larger_kernel(self):
        # the unit alone generates nothing past itself: its rows do not cut
        # out Der, so the pick is what makes the generator rows suffice
        a = truncated_poly(4)
        u = a.self_bimodule()
        rows = list(leibniz_rows(a, u, [0]))
        kernel = nullspace(SparseMatrix(len(rows), 16, rows))
        assert kernel.contains(_full_kernel(a, u)) and kernel.dim > 3

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_constants_divisible_by_the_prime_keep_g_at_1_and_t(self, n):
        # over Q the words of 1 and t span the algebra, whatever prime
        # divides its constants, so the pick stops at G = [0, 1]
        a = _scaled_poly(n)
        u = a.self_bimodule()
        assert generators(a) == [0, 1]
        assert word_span_dim(a.mul_tensor, [0, 1]) == n
        der = derivation_space(a, u)
        assert der.kernel == _full_kernel(a, u)
        assert der.dim == n - 1

    def test_prime_scaled_system_is_solved_in_the_values_at_1_and_t(self):
        a = _scaled_poly(12)
        assert LeibnizSystem(a, a.self_bimodule()).matrix.cols == 24  # 2 generators x 12

    @pytest.mark.parametrize("name, a", EXACT_PICK_CASES, ids=[c[0] for c in EXACT_PICK_CASES])
    def test_pick_is_the_exact_fraction_one(self, name, a):
        assert generators(a) == exact_generators(a.mul_tensor)

    def test_pick_is_the_exact_fraction_one_on_the_corpus(self, corpus_extensions):
        for name, a, _, t in corpus_extensions:
            for b in (a, t.total):
                assert generators(b) == exact_generators(b.mul_tensor), name


class TestH1:
    def test_known_values(self):
        m2 = matrix_units(2)
        assert h1_dimension(m2, m2.self_bimodule()) == 0
        dual = dual_numbers()
        assert h1_dimension(dual, dual.self_bimodule()) == 1
        z1 = zero_product(1)
        assert h1_dimension(z1, z1.self_bimodule()) == 1
        ut = upper_triangular_2()
        assert h1_dimension(ut, ut.self_bimodule()) == 0

    def test_inner_contained_in_der(self, corpus_pairs):
        for name, a, u in corpus_pairs:
            der = derivation_space(a, u)
            assert der.kernel.contains(inner_space(a, u)), name


class TestStructuralProperties:
    def test_der_closed_under_commutator_on_self_modules(self, corpus_pairs):
        for name, a, u in corpus_pairs:
            if u.dim != a.dim or u.left != a.mul_tensor or u.right != a.mul_tensor:
                continue
            der = derivation_space(a, u)
            for d1 in der.basis:
                for d2 in der.basis:
                    x, y = d1.matrix.data, d2.matrix.data
                    xy, yx = dense_product(x, y, a.dim), dense_product(y, x, a.dim)
                    bracket = LinearMap(a, u, Matrix.from_rows(
                        [[s - t for s, t in zip(r1, r2)] for r1, r2 in zip(xy, yx)]))
                    assert is_derivation(a, u, bracket).passed, name

    def test_dimension_invariant_under_base_change(self):
        rng = random.Random(5)
        for a in (dual_numbers(), upper_triangular_2(), matrix_units(2)):
            n = a.dim
            # random invertible change of basis
            while True:
                p = Matrix.from_rows(
                    [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                )
                if rank(p) == n:
                    break
            cols = list(zip(*p.data))
            new_mul = []
            for i in range(n):
                plane = []
                for j in range(n):
                    prod = a.mul_vec(cols[i], cols[j])
                    plane.append(solve(p, dict(enumerate(prod))))
                new_mul.append(plane)
            b = Algebra(new_mul)
            assert (
                derivation_space(b, b.self_bimodule()).dim
                == derivation_space(a, a.self_bimodule()).dim
            )


class TestModuleOverAnotherAlgebra:
    """A bimodule over a different algebra of the same dimension is refused
    by every Leibniz and inner-map entry point, not only derivation_space."""

    def setup_method(self):
        self.a = dual_numbers()
        self.u = q_plus_q().self_bimodule()  # dimension 2, over Q x Q

    def test_is_derivation(self):
        with pytest.raises(ValueError, match="not over the given algebra"):
            is_derivation(self.a, self.u, LinearMap.zero(self.a, self.u))

    def test_inner_space(self):
        with pytest.raises(ValueError, match="not over the given algebra"):
            inner_space(self.a, self.u)

    def test_inner_derivation(self):
        with pytest.raises(ValueError, match="not over the given algebra"):
            inner_derivation(self.a, self.u, [1, 0])

    def test_derivation_space_and_system(self):
        for build in (derivation_space, LeibnizSystem, h1_dimension):
            with pytest.raises(ValueError, match="not over the given algebra"):
                build(self.a, self.u)
