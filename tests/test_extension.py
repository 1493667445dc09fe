import random
from fractions import Fraction
from itertools import chain, product

import pytest

from modext import extension
from modext.algebra import Algebra, Bimodule, _integer_tables, _table, is_module_hom
from modext.analysis import is_nontrivial_idempotent, radical, unitization
from modext.constructions import corner_basis, corner_module, corner_tau
from modext.derivations import derivation_space
from modext.extension import (
    ideal_check,
    norm_l1,
    quotient_algebra,
    quotient_bimodule,
    submultiplicativity_constant,
    trivial_extension,
)
from modext.linalg import Matrix, Subspace, unit_vec, zero_vec
from modext.reports import HypothesisError
from modext.samples import (
    corpus,
    direct_sum,
    dual_numbers,
    field_q,
    matrix_units,
    upper_triangular_2,
    zero_action_module,
    zero_product,
)

from families import basis_change, twin, upper_triangular
from oracles import (apply_matrix, dense_coordinates, dense_projection, dense_rref,
                     mul_vec as oracle_mul)


def rand_vec(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]


class TestTrivialExtension:
    def test_t_q_q_is_dual_numbers(self):
        q = field_q()
        t = trivial_extension(q, q.self_bimodule())
        assert t.total.dim == 2
        # (0,1)^2 = 0 and (1,0) is the unit
        assert t.total.mul_vec([0, 1], [0, 1]) == zero_vec(2)
        assert t.total.unit() == [1, 0]

    def test_product_formula_on_random_elements(self, corpus_extensions):
        rng = random.Random(7)
        for name, a, u, t in corpus_extensions:
            for _ in range(5):
                x1, u1 = rand_vec(rng, a.dim), rand_vec(rng, u.dim)
                x2, u2 = rand_vec(rng, a.dim), rand_vec(rng, u.dim)
                prod = t.total.mul_vec(t.pair(x1, u1), t.pair(x2, u2))
                expect_a = a.mul_vec(x1, x2)
                expect_u = [
                    p + q
                    for p, q in zip(u.left_act(x1, u2), u.right_act(u1, x2))
                ]
                assert prod == t.pair(expect_a, expect_u), name

    def test_module_copy_is_square_zero(self, corpus_extensions):
        for name, a, u, t in corpus_extensions:
            for i in range(u.dim):
                for j in range(u.dim):
                    prod = t.total.mul_vec(
                        t.pair(zero_vec(a.dim), unit_vec(u.dim, i)),
                        t.pair(zero_vec(a.dim), unit_vec(u.dim, j)),
                    )
                    assert prod == zero_vec(t.total.dim), name

    def test_zero_actions_give_annihilator_ideal(self):
        a = dual_numbers()
        t = trivial_extension(a, zero_action_module(a, 2))
        for j in range(2):
            uj = t.pair(zero_vec(2), unit_vec(2, j))
            for i in range(4):
                assert t.total.mul_vec(uj, unit_vec(4, i)) == zero_vec(4)
                assert t.total.mul_vec(unit_vec(4, i), uj) == zero_vec(4)

    def test_projection_and_embedding_are_algebra_homs(self, corpus_extensions):
        # a -> (a, 0) and (a, u) -> a, written through pair and split
        for name, a, u, t in corpus_extensions:
            embed = lambda x: t.pair(x, zero_vec(u.dim))
            for i in range(a.dim):
                for j in range(a.dim):
                    ei, ej = unit_vec(a.dim, i), unit_vec(a.dim, j)
                    lhs = embed(a.mul_vec(ei, ej))
                    rhs = t.total.mul_vec(embed(ei), embed(ej))
                    assert lhs == rhs, name
            for i in range(t.total.dim):
                for j in range(t.total.dim):
                    xi, xj = unit_vec(t.total.dim, i), unit_vec(t.total.dim, j)
                    lhs = t.split(t.total.mul_vec(xi, xj))[0]
                    rhs = a.mul_vec(t.split(xi)[0], t.split(xj)[0])
                    assert lhs == rhs, name

    def test_project_embed_roundtrip(self, corpus_extensions):
        for name, a, u, t in corpus_extensions:
            for i in range(a.dim):
                x = unit_vec(a.dim, i)
                assert t.split(t.pair(x, zero_vec(u.dim))) == (x, zero_vec(u.dim))
            for j in range(u.dim):
                v = unit_vec(u.dim, j)
                assert t.split(t.pair(zero_vec(a.dim), v)) == (zero_vec(a.dim), v)


class TestNorm:
    def test_norm_splits_over_the_two_legs(self, corpus_extensions):
        rng = random.Random(3)
        for name, a, u, t in corpus_extensions:
            x, y = rand_vec(rng, a.dim), rand_vec(rng, u.dim)
            assert norm_l1(t.pair(x, y)) == norm_l1(x) + norm_l1(y)

    def test_constants_for_known_algebras(self):
        assert submultiplicativity_constant(zero_product(3)) == 0
        assert submultiplicativity_constant(dual_numbers()) == 1
        assert submultiplicativity_constant(matrix_units(2)) == 1

    def test_bound_holds_and_is_attained(self):
        rng = random.Random(11)
        for a in (dual_numbers(), matrix_units(2), upper_triangular_2()):
            c = submultiplicativity_constant(a)
            for _ in range(200):
                x, y = rand_vec(rng, a.dim), rand_vec(rng, a.dim)
                assert norm_l1(a.mul_vec(x, y)) <= c * norm_l1(x) * norm_l1(y)
            attained = any(
                norm_l1(a.mul_basis(i, j)) == c
                for i in range(a.dim)
                for j in range(a.dim)
            )
            assert attained


class TestIdealCheck:
    def test_trivial_ideals(self):
        a = matrix_units(2)
        assert ideal_check(a, Subspace.zero(4)).passed
        assert ideal_check(a, Subspace.full(4)).passed

    def test_e12_is_an_ideal_of_the_triangle(self):
        a = upper_triangular_2()
        assert ideal_check(a, Subspace(3, [unit_vec(3, 1)])).passed

    def test_e11_span_is_not_an_ideal_of_m2(self):
        a = matrix_units(2)
        rep = ideal_check(a, Subspace(4, [unit_vec(4, 0)]))
        assert not rep.passed
        # witness: E21 E11 = E21 escapes span{E11}
        fail = rep.failures()[0]
        assert fail.witness is not None

    def test_matches_dense_rational_oracle(self):
        # verdict and first witness, i first, then the basis row, on the
        # corpus algebras and their T(A,U): 0, A, the radical and random
        # rational spans, most of them not ideals
        rng = random.Random(18)
        verdicts = set()
        for name, a, u in corpus():
            for alg in (a, trivial_extension(a, u).total):
                spans = [Subspace.zero(alg.dim), Subspace.full(alg.dim),
                         radical(alg).radical]
                spans += [Subspace(alg.dim, [rand_vec(rng, alg.dim)
                                                          for _ in range(k)])
                          for k in (1, 1, 2, 2, 3)]
                for s in spans:
                    rep = ideal_check(alg, s)
                    want = dense_ideal_witnesses(alg, s)
                    assert [c.witness for c in rep.checks] == want, name
                    assert [c.passed for c in rep.checks] == [w is None for w in want], name
                    verdicts.add(rep.passed)
        assert verdicts == {True, False}

    def test_stops_at_the_first_escaping_product(self, monkeypatch):
        # on the corpus's non-ideals, spans of one basis vector and random
        # rational spans of A and T(A,U): the witness is the dense oracle's,
        # and each side forms its products only up to its first escape
        calls = []
        real = extension._product
        monkeypatch.setattr(extension, "_product", lambda *args: calls.append(1) or real(*args))
        rng = random.Random(47)
        failed = 0
        for name, a, u in corpus():
            for alg in (a, trivial_extension(a, u).total):
                n = alg.dim
                spans = [Subspace(n, [unit_vec(n, i)]) for i in range(n)]
                spans += [Subspace(n, [rand_vec(rng, n) for _ in range(k)])
                          for k in (1, 2)]
                for s in spans:
                    calls.clear()
                    rep = ideal_check(alg, s)
                    want = dense_ideal_witnesses(alg, s)
                    assert [c.witness for c in rep.checks] == want, name
                    cells = list(product(range(n), range(s.dim)))
                    formed = sum(len(cells) if w is None else
                                 cells.index((w[0][0], s.basis.index(w[1]))) + 1 for w in want)
                    assert len(calls) == formed, name
                    failed += not rep.passed
        assert failed > 20


def dense_ideal_witnesses(a, s):
    """[A.s witness, s.A witness]: the first ((i,), w, e_i w) or ((i,), w,
    w e_i), in (i, basis row) order, whose dense product s does not
    contain; None where every product lies in s."""
    out = []
    for left in (True, False):
        witness = None
        for i, w in product(range(a.dim), s.basis):
            e = unit_vec(a.dim, i)
            prod = oracle_mul(a.mul_tensor, e, w) if left else oracle_mul(a.mul_tensor, w, e)
            if not s.contains_vector(prod):
                witness = ((i,), w, prod)
                break
        out.append(witness)
    return out


class TestQuotient:
    def test_zero_ideal_gives_a_copy_of_a(self):
        a = upper_triangular_2()
        q, proj = quotient_bimodule(a, Subspace.zero(3))
        assert q.dim == 3
        assert proj.matrix == Matrix.identity(3)
        assert q.left == a.mul_tensor

    def test_full_ideal_gives_zero_module(self):
        a = dual_numbers()
        q, proj = quotient_bimodule(a, Subspace.full(2))
        assert q.dim == 0

    def test_triangle_mod_e12(self):
        a = upper_triangular_2()
        ideal = Subspace(3, [unit_vec(3, 1)])
        q, proj = quotient_bimodule(a, ideal)
        assert q.dim == 2
        # the quotient actions go through the diagonal: e11 acts on the
        # first coset coordinate only, e22 on the second
        e11, e22 = unit_vec(3, 0), unit_vec(3, 2)
        assert q.left_act(e11, [1, 0]) == [1, 0]
        assert q.left_act(e11, [0, 1]) == [0, 0]
        assert q.left_act(e22, [0, 1]) == [0, 1]
        # independent coset arithmetic: project(x) . project(y) = project(xy)
        for i in range(3):
            for c, coset in ((0, e11), (1, e22)):
                prod = a.mul_vec(unit_vec(3, i), coset)
                assert q.left_act(unit_vec(3, i), unit_vec(2, c)) == proj(prod)

    def test_projection_is_a_surjective_module_hom(self):
        a = upper_triangular_2()
        ideal = Subspace(3, [unit_vec(3, 1)])
        q, proj = quotient_bimodule(a, ideal)
        assert is_module_hom(proj, "both").passed
        from modext.linalg import rank

        assert rank(proj.matrix) == a.dim - ideal.dim

    def test_non_ideal_rejected(self):
        a = matrix_units(2)
        with pytest.raises(HypothesisError):
            quotient_bimodule(a, Subspace(4, [unit_vec(4, 0)]))

    def test_quotient_algebra_of_dual_numbers(self):
        a = dual_numbers()
        ideal = Subspace(2, [unit_vec(2, 1)])  # span{eps}
        q, proj = quotient_algebra(a, ideal)
        assert q.dim == 1
        assert q.mul_tensor == [[[1]]]


def corpus_algebras():
    """Each algebra of the corpus once, by name of its first pair."""
    seen = {}
    for name, a, _ in corpus():
        seen.setdefault(id(a), (name, a))
    return list(seen.values())


def corpus_ideals():
    """(name, A, I) for the two-sided ideals among 0, A, rad A and the
    coordinate lines of each corpus algebra."""
    for name, a in corpus_algebras():
        ideals = [Subspace.zero(a.dim), Subspace.full(a.dim), radical(a).radical]
        ideals += [Subspace(a.dim, [unit_vec(a.dim, i)]) for i in range(a.dim)]
        for ideal in ideals:
            if ideal_check(a, ideal).passed:
                yield name, a, ideal


def corpus_idempotents():
    """(name, A, p) for the nontrivial idempotents among the basis vectors
    and the unit of each corpus algebra."""
    for name, a in corpus_algebras():
        candidates = [unit_vec(a.dim, i) for i in range(a.dim)]
        if a.unit() is not None:
            candidates.append(a.unit())
        for p in candidates:
            if is_nontrivial_idempotent(a, p):
                yield name, a, p


class TestDerivedStructuresHoldTheirAxioms:
    """T(A,U), the unitization, direct sums, A/I and A p are built from
    validated parts without the constructors' re-check; their axioms hold
    by construction, and these tests check them in full."""

    def test_extensions_of_the_corpus(self, corpus_extensions):
        for name, a, u, t in corpus_extensions:
            assert t.total.associativity_report().passed, name

    @pytest.mark.parametrize("build", [
        lambda: matrix_units(2), lambda: matrix_units(3), upper_triangular_2,
        lambda: upper_triangular(3), lambda: upper_triangular(4),
    ], ids=["M2", "M3", "UT2", "UT3", "UT4"])
    def test_self_extensions_past_the_corpus(self, build):
        a = build()
        assert trivial_extension(a, a.self_bimodule()).total.associativity_report().passed

    def test_unitizations_of_the_corpus(self):
        for name, a in corpus_algebras():
            assert unitization(a).associativity_report().passed, name

    def test_direct_sums_of_the_corpus(self):
        for (x, a), (y, b) in product(corpus_algebras(), repeat=2):
            assert direct_sum(a, b).associativity_report().passed, (x, y)

    def test_quotients_of_the_corpus(self):
        for name, a, ideal in corpus_ideals():
            q, _ = quotient_algebra(a, ideal)
            assert q.associativity_report().passed, name
            qm, _ = quotient_bimodule(a, ideal)
            assert qm.axiom_report().passed, name

    def test_corner_modules_of_the_corpus(self):
        for name, a, p in corpus_idempotents():
            assert corner_module(a, p).axiom_report().passed, (name, p)

    def test_modules_of_the_corpus(self, corpus_pairs):
        # the corpus holds quotient and corner modules too
        for name, a, u in corpus_pairs:
            assert u.axiom_report().passed, name


def twin_idempotents():
    """(name, A, p) for dense-basis twins of M2 and UT3, whose radicals and
    corners are no coordinate subspaces, with p the image of E11."""
    for name, a in (("M2", matrix_units(2)), ("UT3", upper_triangular(3))):
        p, q = basis_change(a.dim, 5)  # the basis f_i = sum_k p[k][i] e_k
        yield name + "'", twin(a, p, q), apply_matrix(q.data, unit_vec(a.dim, 0))


class TestEchelonReadOffs:
    """The quotient projection and the corner's coordinates are read off
    canonical echelon bases, with no membership test; dense oracles pin
    what they must be."""

    def test_projection_kills_the_ideal_and_fixes_the_complement(self, corpus_pairs):
        ideals = list(corpus_ideals())
        ideals += [("T(%s)" % name, t, radical(t).radical)
                   for name, t in ((name, trivial_extension(a, u).total)
                                   for name, a, u in corpus_pairs)]
        ideals += [(name, a, radical(a).radical) for name, a, _ in twin_idempotents()]
        for name, a, ideal in ideals:
            n = ideal.ambient_dim
            complement, _, proj = extension._quotient(a, ideal)
            proj = proj.matrix
            assert (complement, proj.data) == dense_projection(ideal.basis, n), name
            for w in ideal.basis:
                assert not any(apply_matrix(proj.data, w)), name
            for r, c in enumerate(complement):
                assert apply_matrix(proj.data, unit_vec(n, c)) == unit_vec(len(complement), r)

    def test_corner_coordinates_are_the_solved_ones(self):
        # e_i b and delta(b) p lie in A p: their coordinates exist and are these
        for name, a, p in chain(corpus_idempotents(), twin_idempotents()):
            m, basis = a.dim, corner_basis(a, p).basis
            q = len(basis)
            assert basis == dense_rref([oracle_mul(a.mul_tensor, unit_vec(m, i), p)
                                        for i in range(m)])[0][:q], (name, p)
            left = corner_module(a, p).left
            for i, j in product(range(m), range(q)):
                v = oracle_mul(a.mul_tensor, unit_vec(m, i), basis[j])
                assert left[i][j] == dense_coordinates(basis, v), (name, p, i, j)
            for delta in derivation_space(a, a.self_bimodule()).basis:
                d = corner_tau(a, p, delta).derivation.matrix.data
                for j, b in enumerate(basis):
                    v = oracle_mul(a.mul_tensor, apply_matrix(delta.matrix.data, b), p)
                    want = dense_coordinates(basis, v)
                    assert [d[m + r][m + j] for r in range(q)] == want, (name, p, j)


def built_structures(corpus_pairs):
    """(name, algebra or bimodule) for every kind of structure the library
    builds: the corpus, T(A,U), the unitization, direct sums, A/I as an
    algebra and as a bimodule, and the corner module A p."""
    for name, a, u in corpus_pairs:
        yield name, a
        yield name, u
        yield "T(%s)" % name, trivial_extension(a, u).total
    for name, a in corpus_algebras():
        yield "unitization of %s" % name, unitization(a)
        yield "%s + Q" % name, direct_sum(a, field_q())
    for name, a, ideal in corpus_ideals():
        yield "%s / I" % name, quotient_algebra(a, ideal)[0]
        yield "%s / I" % name, quotient_bimodule(a, ideal)[0]
    for name, a, p in corpus_idempotents():
        yield "%s p" % name, corner_module(a, p)


def tables_of(carrier):
    """(table, dense view, shape) for each structure table of the carrier."""
    if isinstance(carrier, Algebra):
        n = carrier.dim
        return [(carrier.mul_table, carrier.mul_tensor, (n, n, n))]
    m, n = carrier.algebra.dim, carrier.dim
    return [(carrier.left_table, carrier.left, (m, n, n)),
            (carrier.right_table, carrier.right, (n, m, n))]


def assert_table_invariant(name, table, view, shape):
    """Each entry is a nonzero Fraction at a k in range, in ascending k, and
    the dense view reads back to the same table."""
    d1, d2, d3 = shape
    assert len(table) == d1 and all(len(plane) == d2 for plane in table), name
    for entries in (entries for plane in table for entries in plane):
        ks = [k for k, _ in entries]
        assert all(0 <= k < d3 for k in ks) and ks == sorted(set(ks)), name
        assert all(type(c) is Fraction and c for _, c in entries), name
    assert _table(view, *shape) == table, name


class TestTableInvariant:
    def test_every_built_structure(self, corpus_pairs):
        for name, carrier in built_structures(corpus_pairs):
            for table, view, shape in tables_of(carrier):
                assert_table_invariant(name, table, view, shape)

    def test_integer_tables_are_the_scaled_rational_tables(self, corpus_pairs):
        # built with each structure, whether its constructor checked it or not
        for name, carrier in built_structures(corpus_pairs):
            if isinstance(carrier, Algebra):
                den, (table,) = _integer_tables(carrier.mul_table)
                assert carrier.integer_table == (den, table), name
            else:
                tables = (carrier.algebra.mul_table, carrier.left_table, carrier.right_table)
                assert carrier.integer_tables == _integer_tables(*tables), name

    def test_string_and_rational_entries_with_explicit_zeros(self):
        # "0" and "0/3" are truthy strings but zero constants
        mul = [[["1", "0"], ["0/3", Fraction(1)]], [[0, "2/2"], [Fraction(0), "0"]]]
        a = Algebra(mul)
        assert a.mul_table == [[[(0, 1)], [(1, 1)]], [[(1, 1)], []]]
        assert_table_invariant("dual numbers from strings", a.mul_table, a.mul_tensor,
                               (2, 2, 2))
        u = Bimodule(a, [[["1"]], [["0/5"]]], [[["2/2"], ["0"]]])  # eps acts as 0
        assert (u.left_table, u.right_table) == ([[[(0, 1)]], [[]]], [[[(0, 1)], []]])
        for table, view, shape in tables_of(u):
            assert_table_invariant("module from strings", table, view, shape)
