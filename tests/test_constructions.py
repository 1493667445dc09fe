from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modext.algebra import LinearMap
from modext.blocks import blocks_of
from modext.constructions import (
    corner_basis,
    corner_module,
    corner_tau,
    lift,
    quotient_derivation,
    transport,
)
from modext.derivations import derivation_space, inner_derivation
from modext.extension import trivial_extension
from modext.linalg import Matrix, Subspace, unit_vec
from modext.reports import HypothesisError
from modext.samples import (
    dual_numbers,
    field_q,
    matrix_units,
    truncated_poly,
    upper_triangular_2,
    zero_product,
)

from oracles import apply_matrix, dense_rref
from cases import (
    corner_negative_cases,
    euler_matrix,
    lift_negative_cases,
    quotient_negative_cases,
    transport_negative_cases,
)


class TestLift:
    def test_eps_scaling_on_dual_numbers(self):
        a = dual_numbers()
        t = trivial_extension(a, a.self_bimodule())
        delta = LinearMap(a, t.module, Matrix.from_rows([[0, 0], [0, 1]]))
        res = lift(t, delta)
        assert res.recipe == "lift"
        assert res.verification.passed
        b = blocks_of(t, res.derivation)
        assert b.delta2.matrix == delta.matrix
        assert b.delta1.is_zero() and b.tau1.is_zero() and b.tau2.is_zero()

    def test_every_corpus_derivation_lifts(self, corpus_extensions):
        for name, a, u, t in corpus_extensions:
            for delta in derivation_space(a, u).basis:
                res = lift(t, delta)
                assert res.verification.passed, name
                assert blocks_of(t, res.derivation).delta2.matrix == delta.matrix


class TestTransport:
    def test_identity_conjugation_reproduces_delta(self):
        a = matrix_units(2)
        u = a.self_bimodule()
        t = trivial_extension(a, u)
        ident = LinearMap.identity(a)
        for delta in derivation_space(a, a.self_bimodule()).basis:
            res = transport(t, delta,
                            LinearMap(a, u, ident.matrix),
                            LinearMap(u, a, ident.matrix))
            assert res.verification.passed
            b = blocks_of(t, res.derivation)
            assert b.delta1.matrix == delta.matrix
            assert b.tau2.matrix == delta.matrix

    def test_scaled_inverse_pair(self):
        # phi = (1/2) id and psi = 2 id are module homs with phi o psi = id
        a = matrix_units(2)
        u = a.self_bimodule()
        t = trivial_extension(a, u)
        half = Matrix.from_rows(
            [[Fraction(1, 2) if i == j else 0 for j in range(4)] for i in range(4)]
        )
        twice = Matrix.from_rows(
            [[2 if i == j else 0 for j in range(4)] for i in range(4)]
        )
        delta = inner_derivation(a, a.self_bimodule(), unit_vec(4, 1))
        res = transport(t, LinearMap(a, a, delta.matrix),
                        LinearMap(a, u, half), LinearMap(u, a, twice))
        assert res.verification.passed
        # conjugation by scalars cancels, so tau equals delta
        assert blocks_of(t, res.derivation).tau2.matrix == delta.matrix

    def test_self_module_pairs_over_corpus(self, corpus_extensions):
        for name, a, u, t in corpus_extensions:
            if u.left != a.mul_tensor or u.right != a.mul_tensor:
                continue
            ident = Matrix.identity(a.dim)
            for delta in derivation_space(a, a.self_bimodule()).basis:
                res = transport(t, LinearMap(a, a, delta.matrix),
                                LinearMap(a, u, ident), LinearMap(u, a, ident))
                assert res.verification.passed, name


class TestQuotient:
    def test_triangle_mod_its_radical(self):
        a = upper_triangular_2()
        ideal = Subspace(3, [unit_vec(3, 1)])  # span{E12}
        for delta in derivation_space(a, a.self_bimodule()).basis:
            res = quotient_derivation(a, ideal, delta)
            assert res.recipe == "quotient"
            assert res.extension.module_dim == 2
            assert res.verification.passed

    def test_euler_derivation_descends(self):
        a = truncated_poly(3)
        euler = LinearMap(a, a, euler_matrix())
        for vectors in ([unit_vec(3, 2)], [unit_vec(3, 1), unit_vec(3, 2)]):
            ideal = Subspace(3, vectors)
            res = quotient_derivation(a, ideal, euler)
            assert res.verification.passed
            assert res.extension.module_dim == 3 - len(vectors)
            # tau is the diagonal scaling on the surviving powers of t
            b = blocks_of(res.extension, res.derivation)
            for j in range(res.extension.module_dim):
                assert b.tau2.matrix.data[j][j] == j

    def test_dual_numbers_mod_eps(self):
        a = dual_numbers()
        delta = LinearMap(a, a, Matrix.from_rows([[0, 0], [0, 1]]))
        res = quotient_derivation(a, Subspace(2, [unit_vec(2, 1)]),
                                  delta)
        assert res.verification.passed
        # everything interesting dies in the quotient
        assert blocks_of(res.extension, res.derivation).tau2.is_zero()


class TestCorner:
    def test_corner_basis_of_m2_e11(self):
        a = matrix_units(2)
        basis = corner_basis(a, unit_vec(4, 0))
        # M2 E11 = span{E11, E21}, two dimensions
        assert basis.dim == 2
        assert basis.contains_vector(unit_vec(4, 0))
        assert basis.contains_vector(unit_vec(4, 2))

    def test_corner_module_has_zero_right_action(self):
        a = matrix_units(2)
        u = corner_module(a, unit_vec(4, 0))
        for j in range(u.dim):
            for i in range(a.dim):
                assert u.right_act(unit_vec(u.dim, j), unit_vec(a.dim, i)) == [
                    0
                ] * u.dim

    def test_m2_corner_extension_is_six_dimensional(self):
        a = matrix_units(2)
        for delta in derivation_space(a, a.self_bimodule()).basis:
            res = corner_tau(a, unit_vec(4, 0), delta)
            assert res.extension.total.dim == 6
            assert res.verification.passed

    def test_unit_corner_reproduces_delta(self):
        # p = 1 gives Ap = A (zero right action) and tau = delta
        a = dual_numbers()
        delta = LinearMap(a, a, Matrix.from_rows([[0, 0], [0, 1]]))
        res = corner_tau(a, a.unit(), delta)
        assert res.extension.module_dim == 2
        assert blocks_of(res.extension, res.derivation).tau2.matrix == delta.matrix

    def test_triangle_corners(self):
        a = upper_triangular_2()
        for p in (unit_vec(3, 0), unit_vec(3, 2)):
            for delta in derivation_space(a, a.self_bimodule()).basis:
                res = corner_tau(a, p, delta)
                assert res.verification.passed

    def test_field_unit_corner(self):
        q = field_q()
        res = corner_tau(q, [1], LinearMap.zero(q, q))
        assert res.extension.total.dim == 2
        assert res.derivation.is_zero()


class TestNegativeCases:
    @pytest.mark.parametrize(
        "maker",
        [lift_negative_cases, transport_negative_cases,
         quotient_negative_cases, corner_negative_cases],
        ids=["lift", "transport", "quotient", "corner"],
    )
    def test_every_broken_hypothesis_is_rejected(self, maker):
        labels = []
        for label, thunk in maker():
            with pytest.raises(HypothesisError) as exc:
                thunk()
            assert exc.value.hypothesis, label
            labels.append(label)
        assert len(labels) >= 10
        assert len(set(labels)) == len(labels)

    def test_rejections_carry_witnesses_when_a_report_exists(self):
        a = dual_numbers()
        t = trivial_extension(a, a.self_bimodule())
        bad = LinearMap(a, t.module, Matrix.identity(2))
        with pytest.raises(HypothesisError) as exc:
            lift(t, bad)
        assert exc.value.report is not None
        assert exc.value.report.failures()[0].witness is not None

    def test_ideal_leak_reports_the_violating_vector(self):
        # on the zero-product algebra every map is a derivation and every
        # subspace is an ideal, so only the preservation check can fail
        from modext.samples import zero_product

        a = zero_product(2)
        ideal = Subspace(2, [unit_vec(2, 0)])
        swap = LinearMap(a, a, Matrix.from_rows([[0, 1], [1, 0]]))
        with pytest.raises(HypothesisError) as exc:
            quotient_derivation(a, ideal, swap)
        assert exc.value.hypothesis == "delta does not preserve the ideal"
        (_, w, img) = exc.value.report.failures()[0].witness
        assert w == [1, 0] and img == [0, 1]


rationals = st.one_of(st.just(Fraction(0)), st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**40)))


@st.composite
def ideals_and_maps(draw):
    """(n, I's spanning vectors, delta) on zero_product(n), where every
    subspace is an ideal and every map a derivation: delta random, or with
    its columns in I, so that delta(I) lies in I."""
    n = draw(st.integers(1, 5))
    vectors = draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                            min_size=1, max_size=n))
    if draw(st.booleans()):  # column j of delta: a combination of I's vectors
        weights = draw(st.lists(st.lists(rationals, min_size=len(vectors),
                                         max_size=len(vectors)), min_size=n, max_size=n))
        cols = [[sum((Fraction(w) * v[r] for w, v in zip(ws, vectors)), Fraction(0))
                 for r in range(n)] for ws in weights]
        delta = [[cols[c][r] for c in range(n)] for r in range(n)]
    else:
        delta = draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    return n, vectors, delta


@settings(max_examples=80, deadline=None)
@given(ideals_and_maps())
def test_ideal_leak_witness_is_the_first_echelon_row_that_leaks(data):
    """The witness is the first RREF row w of I with delta(w) outside I,
    both exact, as the dense oracle finds them."""
    n, vectors, rows = data
    a, ideal = zero_product(n), Subspace(n, vectors)
    red, pivots = dense_rref(vectors)
    basis = red[: len(pivots)]
    leaks = [(w, img) for w in basis for img in [apply_matrix(rows, w)]
             if len(dense_rref(basis + [img])[1]) > len(basis)]
    delta = LinearMap(a, a, Matrix.from_rows(rows))
    if not leaks:
        assert quotient_derivation(a, ideal, delta).verification.passed
        return
    with pytest.raises(HypothesisError) as exc:
        quotient_derivation(a, ideal, delta)
    assert exc.value.hypothesis == "delta does not preserve the ideal"
    witness = exc.value.report.failures()[0].witness
    assert witness == ((), *leaks[0])
    assert all(type(x) is Fraction for x in witness[1] + witness[2])


class TestCornerCoordinateLength:
    """An idempotent of the wrong length is rejected before any product."""

    def test_corner_module(self):
        with pytest.raises(ValueError, match="length 2, expected 4"):
            corner_module(matrix_units(2), [1, 0])

    def test_corner_basis(self):
        with pytest.raises(ValueError, match="length 2, expected 4"):
            corner_basis(matrix_units(2), [1, 0])
