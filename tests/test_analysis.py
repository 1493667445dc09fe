import random
import re
from fractions import Fraction
from math import gcd

import pytest

from modext.analysis import (
    Polynomial,
    _factor_over_q,
    center,
    find_surjective_left_hom,
    is_idempotent,
    is_nilpotent_subspace,
    is_nontrivial_idempotent,
    is_simple_prime,
    min_poly,
    poly_eval_in_algebra,
    radical,
    unitization,
)
from modext import analysis
from modext.algebra import Algebra, Bimodule, LinearMap, annihilator, is_module_hom
from modext.derivations import LeibnizSystem, derivation_space
from modext.extension import quotient_algebra, trivial_extension
from modext.linalg import Subspace, nullspace, rank, solve, unit_vec, zero_vec
from modext.samples import (
    column_module,
    cyclic_group_algebra,
    direct_sum,
    dual_numbers,
    field_q,
    matrix_units,
    q_plus_q,
    truncated_poly,
    upper_triangular_2,
    zero_product,
)

from families import basis_change, from_columns, self_extension, twin, upper_triangular
from oracles import ad_vectors, largest_nilpotent_ideal_dim, tensors_of


class TestCenter:
    def test_commutative_algebras_are_their_own_center(self):
        for a in (field_q(), dual_numbers(), q_plus_q(), truncated_poly(3)):
            assert center(a) == Subspace.full(a.dim)

    def test_m2_center_is_the_scalars(self):
        z = center(matrix_units(2))
        assert z.dim == 1
        assert z.contains_vector([1, 0, 0, 1])

    def test_triangle_center_is_the_scalars(self):
        z = center(upper_triangular_2())
        assert z.dim == 1
        assert z.contains_vector([1, 0, 1])  # E11 + E22

    @pytest.mark.parametrize("build", [
        lambda: matrix_units(3), lambda: upper_triangular(3), lambda: cyclic_group_algebra(4),
        lambda: zero_product(3), lambda: self_extension(matrix_units(2)),
        lambda: self_extension(upper_triangular(3)), lambda: _twin(matrix_units(2)),
        lambda: _twin(upper_triangular(3)), lambda: _twin(cyclic_group_algebra(4)),
    ], ids=["M3", "UT3", "Q[C4]", "zero_product(3)", "T(M2,M2)", "T(UT3,UT3)",
            "M2'", "UT3'", "Q[C4]'"])
    def test_is_the_nullspace_of_the_transposed_inner_map(self, build):
        a = build()
        assert center(a) == nullspace(from_columns(ad_vectors(*tensors_of(a, a.self_bimodule()))))


class TestRadical:
    def test_semisimple_examples(self):
        for a in (field_q(), q_plus_q(), matrix_units(2), matrix_units(3)):
            rep = radical(a)
            assert rep.is_semisimple
            assert rep.radical.dim == 0

    def test_dual_numbers_radical_is_eps(self):
        rep = radical(dual_numbers())
        assert not rep.is_semisimple
        assert rep.radical == Subspace(2, [unit_vec(2, 1)])

    @pytest.mark.parametrize("index", [1, 2])
    def test_nilpotent_subspace_of_the_wrong_ambient_dimension(self, index):
        # a subspace of Q^3 is not one of the dual numbers, whatever it spans
        s = Subspace(3, [unit_vec(3, index)])
        with pytest.raises(ValueError, match="ambient dimension does not match"):
            is_nilpotent_subspace(dual_numbers(), s)

    def test_triangle_radical_is_e12(self):
        rep = radical(upper_triangular_2())
        assert rep.radical == Subspace(3, [unit_vec(3, 1)])

    def test_truncated_poly_radical(self):
        rep = radical(truncated_poly(3))
        assert rep.radical.dim == 2  # span{t, t^2}
        assert rep.radical.contains_vector(unit_vec(3, 1))
        assert rep.radical.contains_vector(unit_vec(3, 2))

    def test_zero_product_is_its_own_radical(self):
        for n in (1, 2, 3):
            assert radical(zero_product(n)).radical.dim == n

    def test_matches_exhaustive_nilpotent_ideal_oracle(self, corpus_pairs):
        seen = set()
        for name, a, _ in corpus_pairs:
            key = id(a)
            if key in seen or a.dim > 4:
                continue
            seen.add(key)
            expect = largest_nilpotent_ideal_dim(
                [[list(row) for row in plane] for plane in a.mul_tensor]
            )
            assert radical(a).radical.dim == expect, name

    def test_extension_radical_contains_the_module_copy(self, corpus_extensions):
        for name, a, u, t in corpus_extensions:
            rad = radical(t.total).radical
            for j in range(u.dim):
                emb = t.pair(zero_vec(a.dim), unit_vec(u.dim, j))
                assert rad.contains_vector(emb), name

    def test_quotient_by_radical_is_semisimple(self, corpus_pairs):
        seen = set()
        for name, a, _ in corpus_pairs:
            if id(a) in seen:
                continue
            seen.add(id(a))
            rad = radical(a).radical
            q, _ = quotient_algebra(a, rad)
            if q.dim == 0:
                continue  # the whole algebra was radical
            assert radical(q).is_semisimple, name


def _twin(a, seed=3):
    """A seeded dense-basis twin of a; seed 3 gives every family below a
    common denominator other than 1, so the integer scaling is exercised."""
    p, q = basis_change(a.dim, seed)
    b = twin(a, p, q)
    assert b.integer_table[0] != 1
    return b


RADICAL_FAMILIES = (
    [("Q[t]/(t^%d)" % n, truncated_poly(n), n - 1) for n in range(2, 7)]
    + [("UT%d" % n, upper_triangular(n), n * (n - 1) // 2) for n in range(2, 6)]
    + [("M%d" % n, matrix_units(n), 0) for n in (2, 3)]
)
# T(A, A) for UT_n up to n = 4, M_n up to 3 and Q[t]/(t^n) up to 5
EXTENSION_FAMILIES = [f for f in RADICAL_FAMILIES if f[0] not in ("Q[t]/(t^6)", "UT5")]


class TestTheoremRadicals:
    """Radical dimensions that theorems give, on the sparse bases and on
    dense twins whose constants have a common denominator other than 1.

    rad Q[t]/(t^n) = (t), of dimension n - 1; rad UT_n is the strictly
    upper triangular part, n(n - 1)/2; M_n is simple.  In T(A, A) the
    copy of A is a square-zero ideal and T / (0, A) = A, so
    rad T(A, A) = rad A + (0, A), of dimension dim rad A + dim A.
    """

    @pytest.mark.parametrize("name, a, want", RADICAL_FAMILIES,
                             ids=[f[0] for f in RADICAL_FAMILIES])
    def test_dim_rad(self, name, a, want):
        for alg in (a, _twin(a)):
            rep = radical(alg)
            assert rep.radical.dim == want, name
            assert rep.is_semisimple == (want == 0)

    @pytest.mark.parametrize("name, a, want", EXTENSION_FAMILIES,
                             ids=[f[0] for f in EXTENSION_FAMILIES])
    def test_dim_rad_of_t_a_a(self, name, a, want):
        for alg in (a, _twin(a)):
            assert radical(self_extension(alg)).radical.dim == want + a.dim, name

    def test_radical_of_t_ut_n_is_the_strict_part_plus_the_module(self):
        a = upper_triangular(3)  # basis E_ij, i <= j, in row-major order
        units = [(i, j) for i in range(3) for j in range(i, 3)]
        strict = [k for k, (i, j) in enumerate(units) if i < j]
        want = Subspace(12, [unit_vec(12, k) for k in strict + list(range(6, 12))])
        assert radical(self_extension(a)).radical == want

    @pytest.mark.parametrize("build, commutative", [
        (lambda: truncated_poly(6), True),
        (lambda: cyclic_group_algebra(4), True),
        (lambda: direct_sum(truncated_poly(3), cyclic_group_algebra(2)), True),
        (lambda: self_extension(truncated_poly(4)), True),
        (lambda: self_extension(cyclic_group_algebra(3)), True),
        (lambda: _twin(truncated_poly(6)), True),
        (lambda: matrix_units(2), False),
    ], ids=["Q[t]/(t^6)", "Q[C4]", "Q[t]/(t^3)+Q[C2]", "T(Q[t]/(t^4))", "T(Q[C3])",
            "Q[t]/(t^6)'", "M2"])
    def test_derivations_of_a_commutative_algebra_map_into_the_radical(self, build,
                                                                       commutative):
        """The finite-dimensional form of Singer-Wermer (Math. Ann. 129,
        1955) and Thomas (Ann. of Math. 128, 1988): for commutative A,
        every D in Der(A) has D(A) in rad A.  M2, whose radical is 0 and
        whose inner derivations are not, is the non-commutative control."""
        a = build()
        rad = radical(a).radical
        images = [d(unit_vec(a.dim, s)) for d in derivation_space(a, a.self_bimodule()).basis
                  for s in range(a.dim)]
        assert all(map(rad.contains_vector, images)) == commutative


def _min_poly_by_solve(a, x):
    """The first power of x in the span of the powers before it, one
    ``solve`` per power, in the unitization if A has no unit."""
    alg, e = a, a.unit()
    if e is None:
        alg, e, x = unitization(a), unit_vec(a.dim + 1, 0), [0] + list(x)
    powers = [e]
    while True:
        nxt = alg.mul_vec(powers[-1], x)
        dep = solve(from_columns(powers), {k: c for k, c in enumerate(nxt) if c})
        if dep is not None:
            return Polynomial([-c for c in dep] + [1])
        powers.append(nxt)


class TestMinPoly:
    def test_unit_has_t_minus_one(self):
        for a in (field_q(), dual_numbers(), matrix_units(2)):
            assert min_poly(a, a.unit()) == Polynomial([-1, 1])

    def test_eps_squares_to_zero(self):
        assert min_poly(dual_numbers(), unit_vec(2, 1)) == Polynomial([0, 0, 1])

    def test_idempotent_has_t_squared_minus_t(self):
        a = matrix_units(2)
        assert min_poly(a, unit_vec(4, 0)) == Polynomial([0, -1, 1])

    def test_nonunital_algebra_goes_through_the_unitization(self):
        z = zero_product(2)
        assert min_poly(z, unit_vec(2, 0)) == Polynomial([0, 0, 1])

    def test_min_poly_annihilates_its_element(self, corpus_pairs):
        rng = random.Random(17)
        for name, a, _ in corpus_pairs[:12]:
            x = [Fraction(rng.randint(-3, 3)) for _ in range(a.dim)]
            p = min_poly(a, x)
            val = poly_eval_in_algebra(a, p, x)
            assert all(c == 0 for c in val), name

    @pytest.mark.parametrize("build, x", [
        (lambda: truncated_poly(12), unit_vec(12, 1)),
        (lambda: truncated_poly(12), [1, 1] + [0] * 10),
        (lambda: matrix_units(3), 11),
        (lambda: cyclic_group_algebra(5), 12),
        (lambda: zero_product(4), 13),
    ], ids=["Q[t]/(t^12) at t", "Q[t]/(t^12) at 1+t", "M3", "Q[C5]", "zero_product(4)"])
    def test_matches_a_solve_for_each_power(self, build, x):
        a = build()
        if isinstance(x, int):  # a seed
            rng = random.Random(x)
            x = [rng.randint(-3, 3) for _ in range(a.dim)]
        assert min_poly(a, x) == _min_poly_by_solve(a, x)

    def test_trailing_zero_coefficients_are_dropped(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1 and p == Polynomial([1, 2])
        assert p != [1, 2]  # a record equals only a record of its own class

    def test_coefficients_are_read_by_frac(self):
        # a float raises, as everywhere else in the package; a rational
        # string is read exactly
        with pytest.raises(TypeError, match="is a float"):
            Polynomial([0.1, 1])
        p = Polynomial(["1/2", 1])
        assert p.coefficients == [Fraction(1, 2), Fraction(1)]
        assert all(type(c) is Fraction for c in p.coefficients)

    def test_str_rendering(self):
        assert str(Polynomial([-1, 1])) == "t - 1"
        assert str(Polynomial([0, -1, 1])) == "t^2 - t"
        assert str(Polynomial([2, 0, 3])) == "3*t^2 + 2"


class TestUnitization:
    def test_adds_a_working_unit(self):
        z = zero_product(2)
        u = unitization(z)
        assert u.dim == 3
        assert u.unit() == [1, 0, 0]
        # old products survive on the embedded coordinates
        assert u.mul_vec([0, 1, 0], [0, 0, 1]) == zero_vec(3)

    def test_radical_unchanged_by_unitization(self):
        a = dual_numbers()
        assert radical(unitization(a)).radical.dim == radical(a).radical.dim


class TestIdempotents:
    def test_recognizes_matrix_unit_idempotents(self):
        a = matrix_units(2)
        assert is_idempotent(a, unit_vec(4, 0))
        assert is_idempotent(a, zero_vec(4))
        assert not is_idempotent(a, unit_vec(4, 1))
        assert is_nontrivial_idempotent(a, unit_vec(4, 0))
        assert not is_nontrivial_idempotent(a, zero_vec(4))

    def test_sum_of_orthogonal_idempotents(self):
        a = q_plus_q()
        assert is_idempotent(a, [1, 0])
        assert is_idempotent(a, [0, 1])
        assert is_idempotent(a, [1, 1])


class TestSimplePrime:
    def test_matrix_algebras_are_simple(self):
        for n in (2, 3):
            rep = is_simple_prime(matrix_units(n))
            assert rep.simple is True and rep.prime is True

    def test_field_is_simple(self):
        rep = is_simple_prime(field_q())
        assert rep.simple is True

    def test_q_plus_q_is_semisimple_but_not_simple(self):
        rep = is_simple_prime(q_plus_q())
        assert rep.simple is False and rep.prime is False
        assert rep.evidence["center_dim"] == 2

    def test_non_semisimple_algebras_are_not_prime(self):
        for a in (dual_numbers(), upper_triangular_2(), zero_product(2)):
            rep = is_simple_prime(a)
            assert rep.simple is False and rep.prime is False
            assert rep.evidence["reason"] == "radical is nonzero"

    def test_deterministic_under_fixed_seed(self):
        a = q_plus_q()
        r1 = is_simple_prime(a, seed=3)
        r2 = is_simple_prime(a, seed=3)
        assert r1.evidence == r2.evidence

    def test_q_plus_q_evidence_is_its_first_full_degree_probe(self):
        rep = is_simple_prime(q_plus_q())
        assert rep.evidence["min_poly"] == "t^2 - 7*t + 12"
        assert len(rep.evidence["factors"]) == 2

    @pytest.mark.parametrize("k", [10, 20])
    def test_a_split_probe_decides_a_sum_of_fields(self, k):
        # Q^k has a k-dimensional center; a probe of lower degree whose
        # minimal polynomial splits already shows a zero divisor
        a = field_q()
        for _ in range(k - 1):
            a = direct_sum(a, field_q())
        rep = is_simple_prime(a)
        assert (rep.simple, rep.prime) == (False, False)
        assert len(rep.evidence["factors"]) > 1

    def test_indeterminate_when_no_probe_decides(self, monkeypatch):
        # every weight 1 probes the unit of Q x Q: t - 1, one factor below dim Z = 2
        class Ones:
            def __init__(self, seed):
                pass

            def randint(self, lo, hi):
                return 1

        monkeypatch.setattr(analysis.random, "Random", Ones)
        rep = is_simple_prime(q_plus_q())
        assert (rep.simple, rep.prime) == (None, None)
        assert rep.evidence == {"reason": "all retries degenerate", "attempts": ["t - 1"] * 8}

    def test_zero_algebra_is_neither(self):
        # both notions need a nonzero ring; the probe would never reach dim Z = 0
        rep = is_simple_prime(Algebra([]))
        assert (rep.simple, rep.prime) == (False, False)
        assert rep.evidence == {"reason": "zero algebra"}


def _degree(factor: str) -> int:
    """Degree of a factor as is_simple_prime renders it ("t^2 - t + 1")."""
    powers = [int(k) for k in re.findall(r"t\^(\d+)", factor)]
    return max(powers, default=1 if "t" in factor else 0)


class TestCyclicGroupAlgebra:
    """Q[C_n] = Q[t]/(t^n - 1), the product of the fields Q(zeta_d), d | n."""

    CYCLOTOMIC = {
        1: "t - 1",
        2: "t + 1",
        3: "t^2 + t + 1",
        4: "t^2 + 1",
        5: "t^4 + t^3 + t^2 + t + 1",
        6: "t^2 - t + 1",
    }

    @staticmethod
    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    @staticmethod
    def phi(d):
        return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_separable_commutative_invariants(self, n):
        a = cyclic_group_algebra(n)
        assert radical(a).radical.dim == 0
        assert center(a).dim == n
        # commutative and separable: every derivation into A vanishes
        assert derivation_space(a, a.self_bimodule()).dim == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_irreducible_factor_per_divisor(self, n):
        rep = is_simple_prime(cyclic_group_algebra(n))
        assert rep.simple is (n == 1) and rep.prime is (n == 1)
        assert rep.evidence["center_dim"] == n
        factors = rep.evidence["factors"]
        assert all(mult == 1 for _, mult in factors)
        assert sorted(_degree(f) for f, _ in factors) == sorted(
            self.phi(d) for d in self.divisors(n)
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generator_factors_into_cyclotomic_polynomials(self, n):
        a = cyclic_group_algebra(n)
        poly = min_poly(a, unit_vec(n, 1 % n))  # g, which is 1 when n = 1
        assert str(poly) == ("t^%d - 1" % n if n > 1 else "t - 1")
        factors = _factor_over_q(poly)
        assert sorted(str(f) for f, _ in factors) == sorted(
            self.CYCLOTOMIC[d] for d in self.divisors(n)
        )
        assert all(mult == 1 for _, mult in factors)


class TestSurjectiveLeftHom:
    def test_identity_works_for_self_modules(self):
        a = matrix_units(2)
        f = find_surjective_left_hom(a, a.self_bimodule())
        assert f is not None
        assert rank(f.matrix) == 4
        asb = a.self_bimodule()
        assert is_module_hom(LinearMap(asb, asb, f.matrix), "left").passed

    def test_column_module_admits_one(self):
        a = matrix_units(2)
        u = column_module(2, a)
        f = find_surjective_left_hom(a, u)
        assert f is not None
        assert rank(f.matrix) == 2
        assert is_module_hom(LinearMap(a.self_bimodule(), u, f.matrix), "left").passed

    def test_module_bigger_than_algebra_is_refused(self):
        q = field_q()
        from modext.samples import zero_action_module

        assert find_surjective_left_hom(q, zero_action_module(q, 2)) is None

    def test_zero_action_module_has_no_surjective_hom(self):
        # any left hom must kill 1.u = 0, so f(a) = f(a.1)... on a unital
        # algebra with zero actions only the zero map is a left hom
        from modext.samples import zero_action_module

        a = dual_numbers()
        assert find_surjective_left_hom(a, zero_action_module(a, 1)) is None

    def test_none_when_every_left_hom_has_low_rank(self):
        # Q x Q on Q^2: e1 acts as the identity on the left, e2 and the
        # right action as zero; f(e2) = f(e2 e2) = e2 f(e2) = 0, so the
        # left homs are f(e1) in Q^2, a 2-dimensional space of rank-1 maps
        a = q_plus_q()
        left = [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]
        u = Bimodule(a, left, [[[0, 0]] * 2 for _ in range(2)])
        assert nullspace(LeibnizSystem(a, u).matrix).dim == 2
        assert find_surjective_left_hom(a, u) is None

    def test_found_homs_are_left_homs_across_the_corpus(self, corpus_pairs):
        for name, a, u in corpus_pairs:
            f = find_surjective_left_hom(a, u)
            if f is None:
                continue
            assert rank(f.matrix) == u.dim, name
            wrapped = LinearMap(a.self_bimodule(), u, f.matrix)
            assert is_module_hom(wrapped, "left").passed, name


class TestHypothesisAudit:
    def test_m2_column_module_instance(self):
        # unital simple algebra, faithful module, surjective left hom:
        # every structural hypothesis holds at once
        a = matrix_units(2)
        u = column_module(2, a)
        assert radical(a).is_semisimple
        assert annihilator(a, u).dim == 0
        assert find_surjective_left_hom(a, u) is not None

    def test_corner_instance_with_nontrivial_idempotent(self):
        from modext.constructions import corner_module

        a = matrix_units(2)
        p = unit_vec(4, 0)
        assert is_nontrivial_idempotent(a, p)
        rep = is_simple_prime(a)
        assert rep.prime is True
        u = corner_module(a, p)
        t = trivial_extension(a, u)
        assert t.total.dim == 6


class TestCoordinateLength:
    """Coordinates of the wrong length are rejected, naming both lengths."""

    @pytest.mark.parametrize("x, got", [([1], 1), ([1, 0, 5], 3)])
    def test_min_poly(self, x, got):
        with pytest.raises(ValueError, match="length %d, expected 2" % got):
            min_poly(dual_numbers(), x)

    def test_poly_eval_in_algebra(self):
        with pytest.raises(ValueError, match="length 1, expected 4"):
            poly_eval_in_algebra(matrix_units(2), Polynomial([0, 1]), [1])

    def test_is_idempotent(self):
        with pytest.raises(ValueError, match="length 1, expected 2"):
            is_idempotent(dual_numbers(), [1])
