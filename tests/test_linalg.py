import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modext import linalg
from modext.linalg import (
    Matrix,
    SparseMatrix,
    Subspace,
    nullspace,
    rank,
    rref,
    solve,
    unit_vec,
)
import oracles
from families import from_columns
from oracles import PRIME, apply_matrix, dense_nullspace, dense_rref, sympy_nullspace, sympy_rref


def M(rows):
    return Matrix.from_rows(rows)


class TestRref:
    def test_identity_is_fixed(self):
        red, pivots, rk = rref(Matrix.identity(2))
        assert red == Matrix.identity(2)
        assert pivots == [0, 1]
        assert rk == 2

    def test_zero_matrix(self):
        red, pivots, rk = rref(Matrix.zeros(3, 3))
        assert red == Matrix.zeros(3, 3)
        assert pivots == []
        assert rk == 0

    def test_rank_one(self):
        # second row is twice the first
        red, pivots, rk = rref(M([[1, 2], [2, 4]]))
        assert red == M([[1, 2], [0, 0]])
        assert rk == 1

    def test_fractions_stay_exact(self):
        red, _, rk = rref(M([[Fraction(1, 3), 1], [1, 3]]))
        assert red == M([[1, 3], [0, 0]])
        assert rk == 1


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert nullspace(Matrix.identity(4)).dim == 0

    def test_zero_map_has_full_kernel(self):
        ker = nullspace(Matrix.zeros(3, 3))
        assert ker.dim == 3
        assert ker == Subspace.full(3)

    def test_one_relation(self):
        ker = nullspace(M([[1, 1]]))
        assert ker.dim == 1
        (v,) = ker.basis
        assert v[0] + v[1] == 0

    def test_basis_vectors_are_in_the_kernel(self):
        m = M([[1, 2, 3], [4, 5, 6]])
        for v in nullspace(m).basis:
            assert all(x == 0 for x in apply_matrix(m.data, v))


class TestModularRowBasis:
    """nullspace eliminates the m.cols sparsest distinct rows exactly, left
    to right, to Gauss-Jordan form.  The certificate rejects each row
    outside their span; the rejected rows are reduced exactly against the
    kept rows, and only their nonzero remainders are eliminated, as new
    pivot rows.  Where PRIME divides a minor nothing changes: no step works
    mod PRIME.  verdicts holds, per round, the number of rows eliminated
    in that round, the canonical RREF of the kernel left out, and the
    number the certificate rejected."""

    CASES = [
        ([[PRIME]], [(1, 0)]),
        # rank mod PRIME below rank over Q: the exact pass keeps every row
        ([[PRIME, 1], [0, 1]], [(2, 0)]),
        ([[1, 1], [1, 1 + PRIME]], [(2, 0)]),
        ([[PRIME, 0, 1], [0, PRIME, 1], [1, 1, 0]], [(3, 0)]),
        # the 3 sparsest rows have rank 2: round 1 rejects only (1,1,1), and
        # round 2 eliminates its remainder alone, not the 3 sampled rows again
        ([[1, 1, 1], [1, 1, 0], [1, 0, 0], [0, 1, 0]], [(3, 1), (1, 0)]),
        # two rejected rows with one remainder (0,0,1) up to a factor: both
        # are eliminated in round 2, and one pivot joins
        ([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 1, 1], [1, 2, 1]], [(3, 2), (2, 0)]),
    ]

    @pytest.mark.parametrize("rows, verdicts", CASES)
    def test_kernel_is_the_dense_one_after_the_certificate(self, rows, verdicts,
                                                             monkeypatch):
        sizes, seen = [0], []
        real_echelon, real_rejected = linalg._echelon, linalg._rejected

        def echelon_spy(basis_rows):
            sizes[0] += len(basis_rows)
            return real_echelon(basis_rows)

        def rejected_spy(*args):
            out = list(real_rejected(*args))
            seen.append((sizes[0], len(out)))
            sizes[0] = 0
            return out

        # the canonical RREF of the kernel follows the last certificate, so
        # no verdict counts its rows
        monkeypatch.setattr(linalg, "_echelon", echelon_spy)
        monkeypatch.setattr(linalg, "_rejected", rejected_spy)
        assert nullspace(M(rows)).basis == dense_nullspace(rows)
        assert seen == verdicts


class TestSolve:
    def test_identity(self):
        assert solve(Matrix.identity(2), {0: 1, 1: -2}) == [1, -2]

    def test_free_variables_are_zeroed(self):
        x = solve(M([[1, 1]]), {0: 2})
        assert x == [Fraction(2), Fraction(0)]

    def test_inconsistent_returns_none(self):
        assert solve(M([[0]]), {0: 1}) is None

    def test_solution_actually_solves(self):
        m = M([[2, 1, 0], [0, 1, 1]])
        x = solve(m, {0: 3, 1: 5})
        assert apply_matrix(m.data, x) == [3, 5]


class TestSubspace:
    def test_equal_spaces_share_everything(self):
        a = Subspace(2, [[1, 1]])
        b = Subspace(2, [[2, 2]])
        assert a == b
        assert a.sum(b) == a
        assert a.intersection(b) == a

    def test_axes_of_the_plane(self):
        e1 = Subspace(2, [unit_vec(2, 0)])
        e2 = Subspace(2, [unit_vec(2, 1)])
        assert e1.sum(e2) == Subspace.full(2)
        assert e1.intersection(e2).dim == 0

    def test_diagonal_meets_axis(self):
        diag = Subspace(2, [[1, 1]])
        e1 = Subspace(2, [unit_vec(2, 0)])
        assert diag.intersection(e1).dim == 0
        assert diag.sum(e1).dim == 2

    def test_containment(self):
        plane = Subspace(3, [[1, 0, 0], [0, 1, 0]])
        line = Subspace(3, [[1, 2, 0]])
        assert plane.contains(line)
        assert not line.contains(plane)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Subspace.full(2).sum(Subspace.full(3))

    def test_coords_of_roundtrip(self):
        s = Subspace(3, [[1, 0, 1], [0, 1, 1]])
        v = [Fraction(2), Fraction(3), Fraction(5)]
        c = s.coords_of(v)
        combo = [Fraction(0)] * 3
        for w, b in zip(c, s.basis):
            combo = [x + w * y for x, y in zip(combo, b)]
        assert combo == v

    def test_coords_of_outside_the_span_is_none(self):
        s = Subspace(3, [[1, 0, 1], [0, 1, 1]])
        assert s.coords_of([1, 1, 0]) is None
        assert Subspace.zero(3).coords_of([0, 0, 1]) is None
        with pytest.raises(ValueError):
            s.coords_of([1, 0])


class TestSubspaceConstructor:
    """``Subspace(n, vectors)`` spans any vectors, each read by
    ``coordinates``: it holds their canonical RREF rows."""

    def test_rref_basis_is_kept(self):
        s = Subspace(3, [[1, 0, 2], [0, 1, -1]])
        assert s.pivots == [0, 1]
        assert s == Subspace(3, [[1, 1, 1], [1, 0, 2]])

    def test_a_vector_of_the_wrong_length_is_rejected(self):
        with pytest.raises(ValueError, match="^coordinate vector has length 2, expected 3$"):
            Subspace(3, [[1, 0, 0], [1, 0]])

    def test_the_constructor_canonicalises_any_vectors(self):
        s = Subspace(2, [[2, 0], [0, 0]])
        assert s.basis == [[1, 0]]
        assert s.contains_vector([2, 0])

    @pytest.mark.parametrize("dim, vectors", [
        (2, [[0, 0]]), (2, [[1, 0], [0, 0]]), (2, [[2, 0]]), (2, [[0, 1], [1, 0]]),
        (3, [[1, 0, 0], [1, 0, 0]]), (3, [[1, 3, 0], [0, 1, 0]]),
    ])
    def test_spans_what_is_not_in_rref(self, dim, vectors):
        # a zero row, a leading entry not 1, pivots out of order or repeated,
        # a nonzero entry above a later pivot
        red, pivots = dense_rref(vectors)
        s = Subspace(dim, vectors)
        assert (s.basis, s.pivots) == (red[:len(pivots)], pivots)

    @pytest.mark.parametrize("seed", range(40))
    def test_spans_seeded_vectors_as_dense_gauss_jordan(self, seed):
        # zero rows, repeated rows, multiples and rational strings, in any order
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        entries = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), 7]
        base = [[rng.choice(entries) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        vectors = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(3)
            if kind == 0:
                vectors.append([0] * n)
            else:
                f = Fraction(1) if kind == 1 else Fraction(rng.choice([-2, 3]), rng.choice([1, 5]))
                vectors.append([f * x for x in rng.choice(base)])
        vectors = [[str(x) if rng.random() < 0.5 else x for x in v] for v in vectors]
        red, pivots = dense_rref(vectors)
        s = Subspace(n, vectors)
        assert (s.basis, s.pivots) == (red[:len(pivots)], pivots), vectors
        assert all(type(x) is Fraction for row in s.rows for x in row.values())

    def test_a_float_entry_is_rejected(self):
        with pytest.raises(TypeError, match="0.5 is a float"):
            Subspace(2, [[1, 0.5]])
        with pytest.raises(TypeError, match="is a float"):
            Subspace(2, [[1.0, 0.5]])

    def test_rational_string_entries_are_coerced(self):
        s = Subspace(2, [["1", "1/2"]])
        assert s == Subspace(2, [[2, 1]])
        assert s.rows == [{0: Fraction(1), 1: Fraction(1, 2)}]
        assert all(type(x) is Fraction for x in s.basis[0])

    def test_contains_vector_coerces_the_probe(self):
        s = Subspace(2, [["1", "1/2"]])
        assert s.contains_vector(["2", "1"]) and not s.contains_vector(["1", "1"])
        with pytest.raises(TypeError, match="2.0 is a float"):
            s.contains_vector([2.0, 1])

    def test_coords_of_coerces_the_probe(self):
        s = Subspace(2, [["1", "1/2"]])
        assert s.coords_of(["2", "1"]) == [Fraction(2)]
        assert s.coords_of(["2/3", "1/3"]) == [Fraction(2, 3)]
        with pytest.raises(TypeError, match="is a float"):
            s.coords_of([2.0, 1.0])


class TestKernelEdgeCases:
    def test_rank_reads_the_pivot_count(self):
        assert rank(M([[1, 2], [2, 4], [0, 0]])) == 1
        assert rank(Matrix.zeros(2, 3)) == 0

    def test_zero_rows_and_columns_are_skipped(self):
        m = M([[0, 0, 0], [0, 2, 4], [0, 0, 0], [0, 1, 3]])
        red, pivots, rk = rref(m)
        assert red == M([[0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]])
        assert (pivots, rk) == ([1, 2], 2)
        assert nullspace(m) == Subspace(3, [[1, 0, 0]])

    def test_solve_with_a_zero_system(self):
        assert solve(Matrix.zeros(2, 2), {}) == [0, 0]
        assert solve(Matrix.zeros(2, 2), {1: 1}) is None


small_entries = st.integers(min_value=-5, max_value=5)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(Matrix.from_rows)
        )
    )


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_is_idempotent(m):
    red = rref(m).reduced
    assert rref(red).reduced == red


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rref(m).rank + nullspace(m).dim == m.cols


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(small_entries, min_size=n, max_size=n), max_size=3),
            st.lists(st.lists(small_entries, min_size=n, max_size=n), max_size=3),
        ).map(lambda t: (n, t[0], t[1]))
    )
)
def test_grassmann_identity(data):
    n, va, vb = data
    a = Subspace(n, va)
    b = Subspace(n, vb)
    assert a.sum(b).dim + a.intersection(b).dim == a.dim + b.dim


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(small_entries, min_size=4, max_size=4))
def test_coords_of_agrees_with_solve_inside_the_span(m, weights):
    s = Subspace(m.cols, m.data)
    v = [sum(w * row[j] for w, row in zip(weights, m.data)) for j in range(m.cols)]
    expected = solve(from_columns(s.basis), dict(enumerate(v))) if s.dim else []
    assert s.coords_of(v) == expected


# -- differential tests of the sparse kernel --------------------------------

BIG = 2**70

shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 7)),
    st.tuples(st.integers(1, 7), st.just(1)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
big_rationals = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(BIG // 2, BIG))


@st.composite
def rational_matrices(draw):
    """Sparse or dense rational matrices, with zero rows and columns forced in.

    Entries are either small or have numerators and denominators above
    2^64; a density of 0 gives the all-zero matrix.
    """
    r, c = draw(shapes)
    nonzero = draw(st.sampled_from([small_rationals, big_rationals]))
    density = draw(st.sampled_from([0, 1, 3, 4]))  # out of 4
    rows = [[draw(nonzero) if draw(st.integers(0, 3)) < density else Fraction(0)
             for _ in range(c)] for _ in range(r)]
    for i in draw(st.sets(st.integers(0, r - 1), max_size=r - 1)):
        rows[i] = [Fraction(0)] * c
    for j in draw(st.sets(st.integers(0, c - 1), max_size=c - 1)):
        for row in rows:
            row[j] = Fraction(0)
    return rows


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rref_matches_dense_gauss_jordan_and_sympy(rows):
    red, pivots, rk = rref(M(rows))
    want, want_pivots = dense_rref(rows)
    assert red.data == want
    assert pivots == want_pivots
    assert rk == len(pivots) == rank(M(rows))
    assert (red.data, pivots) == sympy_rref(rows)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_nullspace_matches_dense_gauss_jordan_and_sympy(rows):
    ker = nullspace(M(rows))
    assert ker.basis == dense_nullspace(rows)
    assert ker.basis == sympy_nullspace(rows)


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.lists(big_rationals, min_size=7, max_size=7))
def test_solve_matches_dense_gauss_jordan(rows, rhs):
    b = rhs[: len(rows)]
    red, pivots = dense_rref([row + [x] for row, x in zip(rows, b)])
    cols = len(rows[0])
    if cols in pivots:
        assert solve(M(rows), dict(enumerate(b))) is None
    else:
        want = [Fraction(0)] * cols
        for r, p in enumerate(pivots):
            want[p] = red[r][cols]
        assert solve(M(rows), dict(enumerate(b))) == want


@st.composite
def span_pairs(draw):
    """(n, S, T): spanning vectors of two subspaces of Q^n, T random, 0,
    the full space, S itself, or a subspace of S."""
    n = draw(st.integers(1, 6))
    vectors = st.lists(st.lists(small_rationals, min_size=n, max_size=n), max_size=n + 1)
    s = draw(vectors)
    kind = draw(st.sampled_from(["random", "zero", "full", "same", "inside"]))
    if kind == "random":
        t = draw(vectors)
    elif kind == "zero":
        t = draw(st.lists(st.just([Fraction(0)] * n), max_size=2))
    elif kind == "full":
        t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    elif kind == "same":
        t = s
    else:
        weights = draw(st.lists(small_rationals, min_size=len(s), max_size=len(s)))
        t = [[sum((w * row[j] for w, row in zip(weights, s)), Fraction(0))
              for j in range(n)]]
    return n, s, t


@settings(max_examples=150, deadline=None)
@given(span_pairs())
def test_intersection_matches_dense_gauss_jordan(data):
    n, s, t = data
    want = oracles.dense_intersection(s, t, n)
    a, b = Subspace(n, s), Subspace(n, t)
    assert a.intersection(b).basis == want
    assert b.intersection(a).basis == want
    assert a.intersection(a) == a


wide_rationals = st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**40))


@st.composite
def spans_and_probes(draw):
    """(n, spanning vectors, probe, member?): a rational span of Q^n, empty
    or with zero and repeated vectors, entries zero, small or with
    denominators up to 2^40; the probe is a combination of the vectors,
    or one plus 1/p at a free column of their RREF, which leaves the span."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), small_rationals, wide_rationals)
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))
    vectors += [[Fraction(0)] * n] * draw(st.integers(0, 1))
    if vectors:
        vectors += [vectors[i] for i in draw(st.lists(st.integers(0, len(vectors) - 1),
                                                      max_size=2))]
    weights = draw(st.lists(st.one_of(small_rationals, wide_rationals),
                            min_size=len(vectors), max_size=len(vectors)))
    probe = [sum((w * v[j] for w, v in zip(weights, vectors)), Fraction(0)) for j in range(n)]
    pivots = dense_rref(vectors)[1] if vectors else []
    free = [c for c in range(n) if c not in pivots]
    member = not free or draw(st.booleans())
    if not member:
        probe[draw(st.sampled_from(free))] += Fraction(1, draw(st.sampled_from([2, 3, 7, PRIME])))
    return n, vectors, probe, member


@settings(max_examples=200, deadline=None)
@given(spans_and_probes())
def test_membership_matches_dense_oracles(data):
    n, vectors, probe, member = data
    s = Subspace(n, vectors)
    red, pivots = dense_rref(vectors) if vectors else ([], [])
    assert s.basis == red[: len(pivots)] and s.pivots == pivots
    assert all(type(x) is Fraction and x for row in s.rows for x in row.values())
    # in the span iff appending the probe keeps the dense rank
    assert len(dense_rref(vectors + [probe])[1]) == len(pivots) + (not member)
    assert s.contains_vector(probe) is member
    assert s.coords_of(probe) == oracles.dense_coordinates(s.basis, probe)
    assert (s.coords_of(probe) is None) is (not member)
    assert s.contains(Subspace(n, [probe])) is member
    assert s.contains(Subspace(n, vectors + [probe])) is member
    assert s.contains(s) and s.contains(Subspace.zero(n))


nonzero_factors = st.builds(lambda sign, p, q: Fraction(sign * p, q),
                            st.sampled_from([1, -1]), st.integers(1, 6), st.integers(1, 4))


@st.composite
def repeated_row_matrices(draw):
    """Matrices whose rows repeat up to three base rows, each time times a
    nonzero rational of either sign, in any order.

    Base entries may be multiples of PRIME or one past one, so that some
    systems have a lower rank mod PRIME than over Q.
    """
    c = draw(st.integers(1, 6))
    entries = st.one_of(small_rationals,
                        st.sampled_from([PRIME, -PRIME, PRIME + 1, Fraction(1, PRIME)]))
    base = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=3))
    picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), nonzero_factors),
                          min_size=1, max_size=8))
    return [[f * x for x in base[i]] for i, f in picks]


@settings(max_examples=150, deadline=None)
@given(repeated_row_matrices(), st.lists(small_rationals, min_size=8, max_size=8))
def test_repeated_rows_match_dense_gauss_jordan_and_sympy(rows, rhs):
    assert nullspace(M(rows)).basis == dense_nullspace(rows) == sympy_nullspace(rows)
    red, pivots, _ = rref(M(rows))
    assert (red.data, pivots) == dense_rref(rows)
    b = rhs[: len(rows)]
    aug, aug_pivots = dense_rref([row + [x] for row, x in zip(rows, b)])
    cols = len(rows[0])
    if cols in aug_pivots:
        assert solve(M(rows), dict(enumerate(b))) is None
    else:
        want = [Fraction(0)] * cols
        for r, p in enumerate(aug_pivots):
            want[p] = aug[r][cols]
        assert solve(M(rows), dict(enumerate(b))) == want


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_sparse_pairs_and_dense_rows_give_the_same_kernel(rows):
    sparse = SparseMatrix(len(rows), len(rows[0]),
                          [[(c, x) for c, x in enumerate(row) if x] for row in rows])
    assert nullspace(sparse) == nullspace(M(rows))
    assert rank(sparse) == rank(M(rows))


# -- the in-place elimination loop against the copying one -------------------

integer_entries = st.one_of(st.integers(-6, 6), st.integers(-BIG, BIG),
                            st.sampled_from([PRIME, -PRIME, 2 * PRIME, PRIME + 1]))


@st.composite
def sparse_integer_rows(draw):
    """Sparse integer rows {column: int}, zeros left out, some of them
    empty, equal or multiples of PRIME in places."""
    cols = draw(st.integers(1, 8))
    row = st.dictionaries(st.integers(0, cols - 1), integer_entries.filter(bool),
                          max_size=cols)
    rows = draw(st.lists(row, min_size=1, max_size=10))
    rows += [dict(rows[i]) for i in draw(st.sets(st.integers(0, len(rows) - 1)))]
    return rows, cols


@settings(max_examples=200, deadline=None)
@given(sparse_integer_rows())
def test_echelon_matches_the_copying_loop_and_leaves_its_rows(data):
    # the same (pivots, done) as the copying loop, and the rows handed in
    # are left as they were
    rows, cols = data
    before = copy.deepcopy(rows)
    assert linalg._echelon(rows) == oracles.copying_echelon(rows, cols)
    assert rows == before


@settings(max_examples=200, deadline=None)
@given(sparse_integer_rows(), st.integers(0, 10))
def test_extend_keeps_gauss_jordan_rows_of_every_row_so_far(data, cut):
    # rows handed in two batches, as nullspace hands its sampled and then
    # its rejected rows: after each, every kept row is nonzero at its own
    # pivot and at no other, the kept rows span what the rows so far span,
    # the count returned is the rank gained, and the rows handed in stay
    rows, cols = data
    dense = lambda rs: [[r.get(c, 0) for c in range(cols)] for r in rs]
    before = copy.deepcopy(rows)
    pivots, done = [], []
    for so_far, batch in ((rows[:cut], rows[:cut]), (rows, rows[cut:])):
        rank = len(pivots)
        assert linalg._extend(pivots, done, batch, cols) == len(pivots) - rank
        for p, row in zip(pivots, done):
            assert row[p] and not set(row).intersection(pivots).difference([p])
        want, want_pivots = dense_rref(dense(so_far)) if so_far else ([], [])
        got, got_pivots = dense_rref(dense(done)) if done else ([], [])
        assert (got[:len(got_pivots)], got_pivots) == (want[:len(want_pivots)], want_pivots)
    assert rows == before


@pytest.mark.parametrize("rows", [
    [[PRIME, 1], [0, 1]],
    [[1, 1], [1, 1 + PRIME]],
    [[PRIME, 0, 1], [0, PRIME, 1], [1, 1, 0]],
])
def test_nullspace_leaves_its_rows_when_prime_divides_a_minor(rows, monkeypatch):
    # the rows nullspace reads, and every list handed to _echelon, are
    # unchanged once it returns
    handed = []
    real_distinct, real_echelon = linalg._distinct_rows, linalg._echelon

    def distinct_spy(data):
        out = real_distinct(data)
        handed.append((out, copy.deepcopy(out)))
        return out

    def echelon_spy(basis_rows):
        handed.append((basis_rows, copy.deepcopy(basis_rows)))
        return real_echelon(basis_rows)

    monkeypatch.setattr(linalg, "_distinct_rows", distinct_spy)
    monkeypatch.setattr(linalg, "_echelon", echelon_spy)
    assert nullspace(M(rows)).basis == dense_nullspace(rows)
    assert all(now == before for now, before in handed)


# -- singleton chains and the packed certificate ------------------------------

@st.composite
def singleton_chain_matrices(draw):
    """Sparse rational rows with a chain of singletons: row 0 has one
    nonzero, and each next chain row meets the last one's column and one
    new column, so each pivot leaves a row with one nonzero.  Random rows,
    repeated rows (some times a rational) and empty columns are mixed in."""
    cols = draw(st.integers(2, 9))
    empty = draw(st.sets(st.integers(0, cols - 1), max_size=cols - 1))
    live = [c for c in range(cols) if c not in empty]
    nonzero = st.one_of(small_rationals.filter(bool), big_rationals.filter(bool))
    chain = draw(st.permutations(live))[: draw(st.integers(1, len(live)))]
    rows = [{chain[0]: draw(nonzero)}]
    rows += [{a: draw(nonzero), b: draw(nonzero)} for a, b in zip(chain, chain[1:])]
    rows += [{c: draw(nonzero) for c in draw(st.sets(st.sampled_from(live), max_size=4))}
             for _ in range(draw(st.integers(0, 4)))]
    rows += [{c: f * x for c, x in rows[i].items()}
             for i, f in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                                 nonzero_factors), max_size=4))]
    rows = draw(st.permutations(rows))
    return [[row.get(c, Fraction(0)) for c in range(cols)] for row in rows]


@settings(max_examples=150, deadline=None)
@given(singleton_chain_matrices())
def test_nullspace_matches_dense_gauss_jordan_on_singleton_chains(rows):
    assert nullspace(M(rows)).basis == dense_nullspace(rows)


def _naive_rejected(rows, vectors):
    """Indices of the rows with a nonzero product with some vector, each
    product summed entry by entry."""
    return [i for i, row in enumerate(rows)
            if any(sum(row.get(c, 0) * x for c, x in v) for v in vectors)]


@st.composite
def packed_slot_systems(draw):
    """(rows, vectors, cols) of integers of both signs up to about 300 bits,
    with rows built so that one vector's slot cancels while the slots on
    either side of it sit at the width bound: every entry of the row and of
    the neighbouring vectors as large as their bits allow, each of one
    sign, so those products are the row's absolute sum times the largest
    vector entry."""
    cols = draw(st.integers(2, 6))
    bits = draw(st.integers(1, 300))
    top = 2 ** bits - 1
    entry = st.integers(-top, top)
    sparse = st.dictionaries(st.integers(0, cols - 1), entry.filter(bool), max_size=cols)
    rows = draw(st.lists(sparse, max_size=5))
    vectors = [list(v.items()) for v in draw(st.lists(sparse, max_size=4))]
    for _ in range(draw(st.integers(0, 2))):
        sign, vsign = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
        row = {c: sign * top for c in range(cols)}
        a, b = draw(st.permutations(range(cols)))[:2]
        at = draw(st.integers(0, len(vectors)))
        vectors[at:at] = [[(c, vsign * top) for c in range(cols)], [(a, top), (b, -top)],
                          [(c, -vsign * top) for c in range(cols)]]
        rows.append(row)
        rows.append({a: row[a], b: row[b]})  # also cancels in the middle slot
    return rows, vectors, cols


@settings(max_examples=300, deadline=None)
@given(packed_slot_systems())
def test_packed_certificate_matches_naive_products(system):
    rows, vectors, cols = system
    bits = max((sum(map(abs, row.values())) for row in rows), default=0).bit_length()
    got = list(linalg._rejected(rows, SparseMatrix(len(vectors), cols, vectors), bits))
    assert [i for i, _ in got] == _naive_rejected(rows, vectors)
    assert all(row is rows[i] for i, row in got)


def test_packed_certificate_at_the_width_bound_cancels_one_slot_only():
    # row . v1 = 0 exactly, while row . v0 and row . v2 are +-3 top^2, the
    # row's absolute sum times the largest vector entry: the slot bound
    top = 2 ** 300 - 1
    row = {0: top, 1: top, 2: top}
    bits = (3 * top).bit_length()
    vectors = [[(c, top) for c in range(3)], [(0, top), (1, -top)],
               [(c, -top) for c in range(3)]]
    middle = SparseMatrix(1, 3, vectors[1:2])
    assert [i for i, _ in linalg._rejected([row], middle, bits)] == []
    assert [i for i, _ in linalg._rejected([row], SparseMatrix(3, 3, vectors), bits)] == [0]
    assert [i for i, _ in linalg._rejected([{0: top, 1: top}, {2: 1}],
                                           SparseMatrix(3, 3, vectors), bits)] == [0, 1]
    # products 8 and -1: in 3-bit slots 8 carries into the next slot and
    # cancels the -1, a false zero; the certificate's slots are wider
    carry = SparseMatrix(2, 2, [[(0, 2), (1, 3)], [(0, 1), (1, -1)]])
    assert [i for i, _ in linalg._rejected([{0: 1, 1: 2}], carry, 2)] == [0]


def test_matrix_data_must_match_its_declared_shape():
    with pytest.raises(ValueError, match="does not match declared shape"):
        Matrix(2, 2, [[1]])


def test_matrix_sum_refuses_a_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix.identity(2) + Matrix.zeros(2, 3)
