import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from modext.algebra import (
    Algebra,
    Bimodule,
    Element,
    LinearMap,
    ValidationError,
    annihilator,
    is_module_hom,
)
from modext.analysis import is_idempotent, min_poly
from modext.blocks import inner_witness
from modext.constructions import corner_basis
from modext.derivations import inner_derivation
from modext.extension import ModuleExtension, ideal_check, norm_l1, trivial_extension
from modext.linalg import Matrix, Subspace, coordinates, solve, unit_vec, zero_vec
from modext.reports import Check, ConditionReport
from modext.samples import (
    column_module,
    dual_numbers,
    field_q,
    matrix_units,
    q_plus_q,
    truncated_poly,
    upper_triangular_2,
    zero_action_module,
    zero_product,
)

from families import basis_change, from_columns, left_mul_matrix, twin, upper_triangular
from oracles import (apply_matrix, coerced_table, dense_nullspace, dense_rref, left_act,
                     mul_vec, right_act, tensors_of)


def built_or_report(build, *args):
    """(build(*args), None), or (None, report) when the constructor rejects
    an axiom."""
    try:
        return build(*args), None
    except ValidationError as e:
        return None, e.report


def validate_algebra(mul):
    return built_or_report(Algebra, mul)


def validate_bimodule(algebra, left, right):
    return built_or_report(Bimodule, algebra, left, right)


class TestValidateAlgebra:
    def test_one_dimensional_idempotent(self):
        a, rep = validate_algebra([[[1]]])
        assert a is not None and rep is None

    def test_matrix_units_are_associative(self):
        a, rep = validate_algebra(matrix_units(2).mul_tensor)
        assert a is not None

    def test_non_associative_rejected_with_witness(self):
        # e1 e1 = e2, e2 e1 = e1: (e1 e1) e1 = e1 but e1 (e1 e1) = 0
        mul_t = [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]
        a, rep = validate_algebra(mul_t)
        assert a is None
        (fail,) = rep.failures()
        assert fail.witness[0] == (0, 0, 0)
        lhs, rhs = fail.witness[1], fail.witness[2]
        assert lhs != rhs

    def test_constructor_raises(self):
        with pytest.raises(ValidationError):
            Algebra([[[0, 1], [0, 0]], [[1, 0], [0, 0]]])


class TestValidateBimodule:
    def test_self_module_always_valid(self):
        a = matrix_units(2)
        u, rep = validate_bimodule(a, a.mul_tensor, a.mul_tensor)
        assert u is not None

    def test_column_module_with_zero_right_action(self):
        # the corner-style module: left matrix action, right action zero
        u = column_module(2)
        assert u.dim == 2

    def test_broken_left_action_rejected_with_named_axiom(self):
        a = matrix_units(2)
        left = [[[1 if k == j else 0 for k in range(2)] for j in range(2)]
                for _ in range(4)]  # every basis element acts as identity
        right = [[[0, 0] for _ in range(4)] for _ in range(2)]
        u, rep = validate_bimodule(a, left, right)
        assert u is None
        assert rep.failures()[0].name == "(ab)u = a(bu)"


def _m2_with_e12_e21_equal_to_one():
    """M2's constants with E12 E21 = E11 + E22 in place of E11."""
    t = [[list(x) for x in row] for row in matrix_units(2).mul_tensor]
    t[1][2] = [1, 0, 0, 1]
    return t


def _identity_left(m, n):
    """Each of m basis elements acting as the identity on Q^n from the left."""
    return [[[int(k == j) for k in range(n)] for j in range(n)] for _ in range(m)]


def _identity_right(n, m):
    """Each of m basis elements acting as the identity on Q^n from the right."""
    return [[[int(k == j) for k in range(n)] for _ in range(m)] for j in range(n)]


def _zero_action(outer, inner, dim):
    return [[[0] * dim for _ in range(inner)] for _ in range(outer)]


def _over(tensor, den):
    """Every constant of the tensor divided by den."""
    return [[[Fraction(x) / den for x in entry] for entry in plane] for plane in tensor]


def _m2_with_e12_e21_over_6():
    """M2's constants with E12 E21 = E11 / 2 + E22 / 3 in place of E11."""
    t = [[list(x) for x in row] for row in matrix_units(2).mul_tensor]
    t[1][2] = [Fraction(1, 2), 0, 0, Fraction(1, 3)]
    return t


def naive_first_associativity_failure(mul):
    """((i, j, k), (e_i e_j) e_k, e_i (e_j e_k)) at the first failing triple."""
    n = len(mul)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ei, ej, ek = (unit_vec(n, s) for s in (i, j, k))
                lhs = mul_vec(mul, mul_vec(mul, ei, ej), ek)
                rhs = mul_vec(mul, ei, mul_vec(mul, ej, ek))
                if lhs != rhs:
                    return (i, j, k), lhs, rhs
    return None


def naive_first_bimodule_failure(mul, left, right):
    """(identity, witness) at the first failure, in the order (i, j, t) and,
    at each triple, (ab)u = a(bu), u(ab) = (ua)b, (au)b = a(ub)."""
    m, n = len(mul), len(right)
    for i in range(m):
        for j in range(m):
            ei, ej = unit_vec(m, i), unit_vec(m, j)
            ab = mul_vec(mul, ei, ej)
            for t in range(n):
                u = unit_vec(n, t)
                sides = [
                    ("(ab)u = a(bu)", (i, j, t), left_act(left, ab, u),
                     left_act(left, ei, left_act(left, ej, u))),
                    ("u(ab) = (ua)b", (t, i, j), right_act(right, u, ab),
                     right_act(right, right_act(right, u, ei), ej)),
                    ("(au)b = a(ub)", (i, t, j), right_act(right, left_act(left, ei, u), ej),
                     left_act(left, ei, right_act(right, u, ej))),
                ]
                for name, indices, lhs, rhs in sides:
                    if lhs != rhs:
                        return name, (indices, lhs, rhs)
    return None


class TestFirstWitness:
    """The exact first failing triple and both sides, for associativity and
    for each bimodule identity, checked against the naive evaluation, on
    integer constants and on constants with a common denominator other
    than 1, whose integer sides carry the square of that denominator."""

    @pytest.mark.parametrize("mul_t, want", [
        # (E11 E12) E21 = E11 + E22, but E11 (E12 E21) = E11
        (_m2_with_e12_e21_equal_to_one(), ((0, 1, 2), [1, 0, 0, 1], [1, 0, 0, 0])),
        # (E11 E12) E21 = E11 / 2 + E22 / 3, but E11 (E12 E21) = E11 / 2: denominator 6
        (_m2_with_e12_e21_over_6(),
         ((0, 1, 2), [Fraction(1, 2), 0, 0, Fraction(1, 3)], [Fraction(1, 2), 0, 0, 0])),
        # every constant of the first case halved: each side is a quarter of its sides
        (_over(_m2_with_e12_e21_equal_to_one(), 2),
         ((0, 1, 2), [Fraction(1, 4), 0, 0, Fraction(1, 4)], [Fraction(1, 4), 0, 0, 0])),
    ], ids=["integer", "over-6", "halved"])
    def test_associativity_beyond_the_first_triple(self, mul_t, want):
        _, rep = validate_algebra(mul_t)
        (fail,) = rep.failures()
        assert fail.witness == want
        assert naive_first_associativity_failure(mul_t) == want

    @pytest.mark.parametrize("algebra, left, right, name, want", [
        # M2 acting as the identity from the left: (E11 E21) u0 = 0, E11 (E21 u0) = u0
        (matrix_units(2), _identity_left(4, 2), _zero_action(2, 4, 2),
         "(ab)u = a(bu)", ((0, 2, 0), [0, 0], [1, 0])),
        # ... and from the right: u0 (E11 E21) = 0, (u0 E11) E21 = u0
        (matrix_units(2), _zero_action(4, 2, 2), _identity_right(2, 4),
         "u(ab) = (ua)b", ((0, 0, 2), [0, 0], [1, 0])),
        # Q on Q^2 by two idempotents that do not commute: 1 . u1 = u1 and
        # u1 . 1 = u0 + u1, so (1 u1) 1 = u0 + u1 but 1 (u1 1) = u1
        (field_q(), [[[0, 0], [0, 1]]], [[[0, 0]], [[1, 1]]],
         "(au)b = a(ub)", ((0, 1, 0), [1, 1], [0, 1])),
        # the same three with a joint denominator other than 1: M2's constants
        # over 2 and the left action over 3, (E11 E11) u0 = u0 / 6 but
        # E11 (E11 u0) = u0 / 9
        (Algebra(_over(matrix_units(2).mul_tensor, 2)), _over(_identity_left(4, 2), 3),
         _zero_action(2, 4, 2),
         "(ab)u = a(bu)", ((0, 0, 0), [Fraction(1, 6), 0], [Fraction(1, 9), 0])),
        # M2's constants over 3 and the right action over 2: u0 (E11 E11) = u0 / 6
        # but (u0 E11) E11 = u0 / 4
        (Algebra(_over(matrix_units(2).mul_tensor, 3)), _zero_action(4, 2, 2),
         _over(_identity_right(2, 4), 2),
         "u(ab) = (ua)b", ((0, 0, 0), [Fraction(1, 6), 0], [Fraction(1, 4), 0])),
        # Q on the basis e = 1/2 (e e = e / 2), the actions of the integer case
        # halved: (e u1) e = (u0 + u1) / 4 but e (u1 e) = u1 / 4
        (Algebra([[[Fraction(1, 2)]]]), _over([[[0, 0], [0, 1]]], 2),
         _over([[[0, 0]], [[1, 1]]], 2),
         "(au)b = a(ub)", ((0, 1, 0), [Fraction(1, 4), Fraction(1, 4)], [0, Fraction(1, 4)])),
    ], ids=["(ab)u", "u(ab)", "(au)b", "(ab)u-over-6", "u(ab)-over-6", "(au)b-over-2"])
    def test_each_bimodule_identity(self, algebra, left, right, name, want):
        _, rep = validate_bimodule(algebra, left, right)
        (fail,) = rep.failures()
        assert (fail.name, fail.witness) == (name, want)
        assert naive_first_bimodule_failure(algebra.mul_tensor, left, right) == (name, want)


def test_first_witness_on_perturbed_corpus_tensors(corpus_pairs):
    """One entry of a corpus algebra's or bimodule's tensor is shifted; the
    first failure the constructor reports (identity, triple and both sides)
    is the naive first failure, and every identity fails somewhere."""
    rng = random.Random(8)
    failed = {}
    for _ in range(400):
        _, a, u = rng.choice(corpus_pairs)
        tensors = {"mul": a.mul_tensor, "left": u.left, "right": u.right}
        which = rng.choice(sorted(tensors))
        t = [[list(entry) for entry in plane] for plane in tensors[which]]
        if not (t and t[0] and t[0][0]):
            continue
        entry = rng.choice(rng.choice(t))
        entry[rng.randrange(len(entry))] += rng.choice([-2, -1, 1, Fraction(1, 2)])
        if which == "mul":
            _, rep = validate_algebra(t)
            want = naive_first_associativity_failure(t)
            want = want and ("associativity", want)
        else:
            left, right = (t, u.right) if which == "left" else (u.left, t)
            _, rep = validate_bimodule(a, left, right)
            want = naive_first_bimodule_failure(a.mul_tensor, left, right)
        got = None if rep is None else (rep.failures()[0].name, rep.failures()[0].witness)
        assert got == want
        if want:
            failed[want[0]] = failed.get(want[0], 0) + 1
    assert sorted(failed) == sorted(["associativity", "(ab)u = a(bu)",
                                     "u(ab) = (ua)b", "(au)b = a(ub)"]), failed


def _perturbed_twins():
    """Dense-basis twins of M2, UT3 and Q[t]/(t^4): every product dense,
    with a common denominator of the constants other than 1."""
    out = []
    for a in (matrix_units(2), upper_triangular(3), truncated_poly(4)):
        b = twin(a, *basis_change(a.dim, 5))
        assert b.integer_table[0] != 1
        out.append(b)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_packed_axioms_on_a_perturbed_dense_twin(seed):
    """One constant of a dense twin's product, left or right action is
    shifted by a small or a 90-bit rational; associativity and the
    bimodule axioms, summed as packed ints, give the verdict and the first
    witness (identity, triple and both sides) of the per-triple unpacked
    evaluation."""
    rng = random.Random(seed)
    b = rng.choice(_perturbed_twins())
    which = rng.choice(["mul", "left", "right"])
    t = [[list(entry) for entry in plane] for plane in b.mul_tensor]
    entry = rng.choice(rng.choice(t))
    entry[rng.randrange(b.dim)] += rng.choice([Fraction(1, 7), Fraction(-3),
                                               Fraction(2 ** 90 + 1, 3 ** 40)])
    if which == "mul":
        _, rep = validate_algebra(t)
        want = naive_first_associativity_failure(t)
        want = want and ("associativity", want)
    else:
        left, right = (t, b.mul_tensor) if which == "left" else (b.mul_tensor, t)
        _, rep = validate_bimodule(b, left, right)
        want = naive_first_bimodule_failure(b.mul_tensor, left, right)
    assert want is not None
    assert (rep.failures()[0].name, rep.failures()[0].witness) == want


def _readers():
    """{name: (read, dim)}: each function that takes a caller's coordinates,
    as read(x) with x in the argument under test, on carriers where it
    returns x itself (norm_l1 its l1 norm), and the length x must have."""
    a = dual_numbers()
    u, t = a.self_bimodule(), trivial_extension(a, a.self_bimodule())
    one = [1, 0]
    return {
        "mul_vec": (lambda x: a.mul_vec(x, one), 2),
        "mul_vec, right factor": (lambda x: a.mul_vec(one, x), 2),
        "left_act": (lambda x: u.left_act(x, one), 2),
        "left_act, module side": (lambda x: u.left_act(one, x), 2),
        "right_act": (lambda x: u.right_act(x, one), 2),
        "right_act, algebra side": (lambda x: u.right_act(one, x), 2),
        "LinearMap.__call__": (lambda x: LinearMap.identity(a)(x), 2),
        "split": (lambda x: sum(t.split(x), []), 4),
        "norm_l1": (norm_l1, 2),
    }


@pytest.mark.parametrize("build", [
    lambda: Algebra([[[0.1]]]),
    lambda: Bimodule(field_q(), [[[0.1]]], [[[1]]]),
    lambda: Matrix(1, 1, [[0.1]]),
    lambda: coordinates(1, [0.1]),
    lambda: solve(Matrix.identity(1), {0: 0.1}),
] + [lambda read=read, n=n: read([0.1] + [1] * (n - 1)) for read, n in _readers().values()],
    ids=["Algebra", "Bimodule", "Matrix", "coordinates", "solve"] + list(_readers()))
def test_floats_raise_type_error_naming_the_value(build):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match=r"0\.1 is a float"):
        build()


@pytest.mark.parametrize("name", list(_readers()))
def test_rational_strings_are_read_exactly(name):
    read, n = _readers()[name]
    got = read(["1/2", "-3"] + ["0"] * (n - 2))
    if name == "norm_l1":
        assert got == Fraction(7, 2)
    else:
        assert got == [Fraction(1, 2), Fraction(-3)] + [0] * (n - 2)
        assert all(type(c) is Fraction for c in got)


def _entry_points():
    """{name: (read, n)}: every entry point that reads a caller's vector x
    of length n through ``coordinates``, as read(x): the readers above but
    ``norm_l1`` (which has no length to check), ``coordinates`` itself and
    the ``Subspace`` constructor and probes."""
    a, full = dual_numbers(), Subspace.full(2)
    out = {name: r for name, r in _readers().items() if name != "norm_l1"}
    out.update({
        "coordinates": (lambda x: coordinates(2, x), 2),
        "Element": (lambda x: Element(a, x).coords, 2),
        "pair": (lambda x: trivial_extension(a, a.self_bimodule()).pair(x, [0, 0]), 2),
        "inner_derivation": (lambda x: inner_derivation(a, a.self_bimodule(), x), 2),
        "min_poly": (lambda x: min_poly(a, x), 2),
        "is_idempotent": (lambda x: is_idempotent(a, x), 2),
        "corner_basis": (lambda x: corner_basis(a, x), 2),
        "Subspace": (lambda x: Subspace(2, [x]), 2),
        "contains_vector": (full.contains_vector, 2),
        "coords_of": (full.coords_of, 2),
    })
    return out


@pytest.mark.parametrize("name", list(_entry_points()))
def test_one_reader_at_every_entry_point(name):
    """One length message, floats refused, rational strings read exactly;
    ``Subspace.full(2).contains_vector([1])`` once had a message of its own."""
    read, n = _entry_points()[name]
    for length in (n - 1, n + 1):
        with pytest.raises(ValueError, match="^coordinate vector has length %d, expected %d$"
                           % (length, n)):
            read([1] * length)
    with pytest.raises(TypeError, match=r"0\.1 is a float"):
        read([0.1] + [1] * (n - 1))
    assert read(["1/2", "-3"] + ["0"] * (n - 2)) == read([Fraction(1, 2), -3] + [0] * (n - 2))


@pytest.mark.parametrize("x, kind", [
    ({0: 1, 1: 2}, "dict"), (MappingProxyType({0: 1, 1: 2}), "mappingproxy"),
    ("11", "str"), (b"\x01\x02", "bytes"),
], ids=["dict", "mappingproxy", "str", "bytes"])
def test_a_string_or_a_mapping_is_not_a_vector(x, kind):
    """Read as a vector, a mapping gave its keys and a string its
    characters: coordinates(2, {0: 1, 1: 2}) was {1: 1}."""
    a = dual_numbers()
    for read in (lambda: coordinates(2, x), lambda: a.mul_vec(x, [0, 1]),
                 lambda: a.mul_vec([0, 1], x), lambda: Subspace(2, [x])):
        with pytest.raises(TypeError, match="not a %s$" % kind):
            read()


def test_solve_reads_its_right_side_as_nonzeros():
    m = Matrix.identity(2)
    assert solve(m, {0: "1/2", 1: "-3"}) == [Fraction(1, 2), -3]
    assert solve(m, {1: 0}) == [0, 0]  # an explicit zero is read as none
    with pytest.raises(TypeError, match=r"0\.1 is a float"):
        solve(m, {1: 0.1})
    for key in (2, -1, "0", 0.0, True):
        with pytest.raises(ValueError, match=r"outside range\(2\)"):
            solve(m, {key: 1})


def _typed(table):
    return [[[(k, type(c), c) for k, c in entries] for entries in plane] for plane in table]


class TestDenseTensorEntries:
    """A dense tensor's entries: the int 0 is skipped unread, every other
    entry is coerced by ``frac`` and kept when nonzero, so the sparse
    tables are those of coercing every entry first."""

    ZEROS = [0, Fraction(0), "0", False]

    @staticmethod
    def _idempotent_and_null(one, zero):
        """Q e0 + Q e1 with e0 e0 = one e0 and every other product zero."""
        return [[[one, zero], [zero, zero]], [[zero, zero], [zero, zero]]]

    @pytest.mark.parametrize("zero", ZEROS, ids=repr)
    def test_zeros_of_every_type_are_dropped(self, zero):
        a = Algebra(self._idempotent_and_null(1, zero))
        assert _typed(a.mul_table) == [[[(0, Fraction, 1)], []], [[], []]]
        u = Bimodule(field_q(), [[[1, zero], [zero, 1]]], [[[1, zero]], [[zero, 1]]])
        assert _typed(u.left_table) == [[[(0, Fraction, 1)], [(1, Fraction, 1)]]]
        assert _typed(u.right_table) == [[[(0, Fraction, 1)]], [[(1, Fraction, 1)]]]

    def test_a_rational_string_is_stored_as_a_fraction(self):
        # e e = e/2 acting on Q by 1/2 from both sides
        a = Algebra([[["1/2"]]])
        u = Bimodule(a, [[["1/2"]]], [[["1/2"]]])
        for table in (a.mul_table, u.left_table, u.right_table):
            assert _typed(table) == [[[(0, Fraction, Fraction(1, 2))]]]

    @pytest.mark.parametrize("x", [0.0, 0.5])
    def test_a_float_raises_even_when_zero(self, x):
        with pytest.raises(TypeError, match="%r is a float" % x):
            Algebra(self._idempotent_and_null(1, x))
        with pytest.raises(TypeError, match="%r is a float" % x):
            Bimodule(field_q(), [[[1, x], [0, 1]]], [[[1, 0]], [[0, 1]]])

    def test_every_sample_table_is_the_coerce_first_table(self, monkeypatch):
        from modext import algebra, samples

        seen = []
        real = algebra._table

        def spy(t, *shape):
            seen.append((t, real(t, *shape)))
            return seen[-1][1]

        monkeypatch.setattr(algebra, "_table", spy)
        samples.corpus()
        for n in (2, 3, 4):
            samples.truncated_poly(n + 2), samples.matrix_units(n)
            samples.cyclic_group_algebra(n), samples.column_module(n)
        widest = max((t for t, _ in seen), key=len)
        mixed = [[[x if i % 3 else Fraction(x) if j % 2 else str(x) for i, x in enumerate(e)]
                  for j, e in enumerate(plane)] for plane in widest]
        Algebra(mixed)  # the widest sample tensor with Fraction and string entries
        assert len(seen) > 30
        for t, table in seen:
            assert _typed(table) == _typed(coerced_table(t))


class TestProducts:
    def test_unit_multiplication(self):
        a = matrix_units(2)
        e = a.unit()
        x = [1, 2, 3, 4]
        assert a.mul_vec(e, x) == x
        assert a.mul_vec(x, e) == x

    def test_matrix_unit_product(self):
        a = matrix_units(2)
        e12, e21, e11 = unit_vec(4, 1), unit_vec(4, 2), unit_vec(4, 0)
        assert a.mul_vec(e12, e21) == e11

    def test_zero_annihilates(self):
        a = dual_numbers()
        assert a.mul_vec(zero_vec(2), [3, 5]) == zero_vec(2)


class TestProductCoordinateLength:
    """Products, actions and ``split`` refuse coordinates of the wrong
    length with the message ``coordinates`` gives, on either argument."""

    def test_mul_vec(self):
        a = dual_numbers()
        with pytest.raises(ValueError, match="has length 1, expected 2"):
            a.mul_vec([1], [1])
        with pytest.raises(ValueError, match="has length 3, expected 2"):
            a.mul_vec([1, 0, 1], [1, 0, 1])
        with pytest.raises(ValueError, match="has length 3, expected 2"):
            a.mul_vec([1, 0], [1, 0, 1])

    def test_left_act(self):
        u = column_module(2)  # dimension 2 over M2, of dimension 4
        with pytest.raises(ValueError, match="has length 1, expected 4"):
            u.left_act([1], [1, 0])
        with pytest.raises(ValueError, match="has length 3, expected 2"):
            u.left_act([1, 0, 0, 0], [1, 0, 0])

    def test_right_act(self):
        u = column_module(2)
        with pytest.raises(ValueError, match="has length 3, expected 2"):
            u.right_act([1, 0, 0], [1, 0, 0, 0])
        with pytest.raises(ValueError, match="has length 3, expected 4"):
            u.right_act([1, 0], [1, 0, 0])

    def test_split(self):
        a = dual_numbers()
        with pytest.raises(ValueError, match="has length 3, expected 4"):
            trivial_extension(a, a.self_bimodule()).split([1, 0, 1])


class TestAnnihilator:
    def test_zero_actions_annihilated_by_everything(self):
        a = dual_numbers()
        ann = annihilator(a, zero_action_module(a, 2))
        assert ann == Subspace.full(2)
        assert annihilator(a, zero_action_module(a, 0)) == Subspace.full(2)

    def test_column_module_is_left_faithful(self):
        a = matrix_units(2)
        assert annihilator(a, column_module(2, a)).dim == 0

    def test_unital_self_module_faithful(self):
        a = upper_triangular_2()
        assert annihilator(a, a.self_bimodule()).dim == 0

    def test_is_two_sided_ideal(self):
        # closed under multiplication by every basis element
        a = upper_triangular_2()
        u = column_module(2, matrix_units(2))
        a2 = matrix_units(2)
        ann = annihilator(a2, zero_action_module(a2, 1))
        for i in range(a2.dim):
            for v in ann.basis:
                assert ann.contains_vector(a2.mul_vec(unit_vec(a2.dim, i), v))
                assert ann.contains_vector(a2.mul_vec(v, unit_vec(a2.dim, i)))


def _dense_action_rows(u):
    """Rows of x -> (x u_j, u_j x) in the coordinates of x, from the dense
    tensors: for each j and coordinate k, of x u_j and then of u_j x."""
    _, left, right = tensors_of(u.algebra, u)
    m, n = u.algebra.dim, u.dim
    return [row for j in range(n) for k in range(n)
            for row in ([left[s][j][k] for s in range(m)],
                        [right[j][s][k] for s in range(m)])]


def test_annihilator_matches_dense_oracle(corpus_pairs):
    for name, a, u in corpus_pairs:
        assert annihilator(a, u).basis == dense_nullspace(_dense_action_rows(u)), name


def test_unit_matches_dense_oracle(corpus_pairs):
    # e x = x = x e on the basis: the action rows of A on itself, augmented
    # by the coordinates of the basis element they must reproduce
    for name, a, _ in corpus_pairs:
        n = a.dim
        rhs = [Fraction(int(k == i)) for i in range(n) for k in range(n) for _ in range(2)]
        rows = [row + [b] for row, b in zip(_dense_action_rows(a.self_bimodule()), rhs)]
        red, pivots = dense_rref(rows)
        want = None
        if n not in pivots:
            want = zero_vec(n)
            for r, p in enumerate(pivots):
                want[p] = red[r][n]
        assert a.unit() == want, name


def naive_hom_witnesses(m, left, right):
    """[left witness, right witness] of the module-hom identities for the
    matrix m on the bimodule with action tensors left and right: the first
    failing pair (i, j) and both sides f(e_i u_j), e_i f(u_j), or f(u_j
    e_i), f(u_j) e_i, by direct evaluation, or None where all pairs hold."""
    n = len(m)
    want = []
    for side in ("left", "right"):
        witness = None
        for i in range(len(left)):
            for j in range(n):
                ei, uj = unit_vec(len(left), i), unit_vec(n, j)
                if side == "left":
                    lhs = apply_matrix(m, left_act(left, ei, uj))
                    rhs = left_act(left, ei, apply_matrix(m, uj))
                else:
                    lhs = apply_matrix(m, right_act(right, uj, ei))
                    rhs = right_act(right, apply_matrix(m, uj), ei)
                if lhs != rhs and witness is None:
                    witness = ((i, j), lhs, rhs)
        want.append(witness)
    return want


class TestModuleHom:
    def test_identity_is_a_hom_everywhere(self):
        for a in (dual_numbers(), matrix_units(2), zero_product(2)):
            u = a.self_bimodule()
            f = LinearMap.identity(u)
            assert is_module_hom(f, "both").passed

    def test_zero_map_is_a_hom(self):
        a = matrix_units(2)
        u = a.self_bimodule()
        assert is_module_hom(LinearMap.zero(u, u), "both").passed

    def test_left_multiplication_is_right_hom_only(self):
        a = matrix_units(2)
        u = a.self_bimodule()
        f = LinearMap(u, u, left_mul_matrix(a, unit_vec(4, 0)))  # u -> E11 u
        assert is_module_hom(f, "right").passed
        rep = is_module_hom(f, "left")
        assert not rep.passed
        assert rep.failures()[0].witness is not None


    @pytest.mark.parametrize("r, s, left, right, den", [
        # f = identity + 3 E_rs on M2 as a bimodule over itself
        (0, 0, ((1, 2), [4, 0, 0, 0], [1, 0, 0, 0]), ((1, 0), [0, 1, 0, 0], [0, 4, 0, 0]), 1),
        (2, 2, ((1, 2), [1, 0, 0, 0], [4, 0, 0, 0]), ((1, 2), [0, 0, 0, 1], [0, 0, 0, 4]), 1),
        (3, 3, ((1, 3), [0, 1, 0, 0], [0, 4, 0, 0]), ((1, 2), [0, 0, 0, 4], [0, 0, 0, 1]), 1),
        # M2's constants over den and f = identity + (3 / den) E_rs: the integer
        # sides carry f's denominator times the source's and the target's
        (0, 0, ((1, 2), [Fraction(5, 4), 0, 0, 0], [Fraction(1, 2), 0, 0, 0]),
         ((1, 0), [0, Fraction(1, 2), 0, 0], [0, Fraction(5, 4), 0, 0]), 2),
        (2, 2, ((1, 2), [Fraction(1, 3), 0, 0, 0], [Fraction(2, 3), 0, 0, 0]),
         ((1, 2), [0, 0, 0, Fraction(1, 3)], [0, 0, 0, Fraction(2, 3)]), 3),
    ], ids=["0-0-left0-right0", "2-2-left1-right1", "3-3-left2-right2", "0-0-over-2",
            "2-2-over-3"])
    def test_first_failing_pair_and_both_sides_are_pinned(self, r, s, left, right, den):
        a = Algebra(_over(matrix_units(2).mul_tensor, den))
        u = a.self_bimodule()
        m = [[int(i == j) for j in range(4)] for i in range(4)]
        m[r][s] += Fraction(3, den)
        f = LinearMap(u, u, Matrix.from_rows(m))
        assert naive_hom_witnesses(m, u.left, u.right) == [left, right]
        rep = is_module_hom(f, "both")
        assert [c.name for c in rep.checks] == ["f(au) = a f(u)", "f(ua) = f(u) a"]
        assert [c.witness for c in rep.checks] == [left, right]
        assert [c.witness for c in is_module_hom(f, "left").checks] == [left]
        assert [c.witness for c in is_module_hom(f, "right").checks] == [right]


    def test_witness_agrees_with_naive_evaluation(self):
        # M2 on the basis E11 + E12, E12 - E21, E21 + 2 E22, E22: action
        # constants of either sign and above 1
        cols = [[1, 1, 0, 0], [0, 1, -1, 0], [0, 0, 1, 2], [0, 0, 0, 1]]
        m2 = matrix_units(2)
        p = from_columns(cols)
        a = Algebra([[solve(p, dict(enumerate(m2.mul_vec(x, y)))) for y in cols] for x in cols])
        u = a.self_bimodule()
        n, left, right = u.dim, u.left, u.right
        rng = random.Random(7)
        failing = 0
        for _ in range(40):
            m = [[int(i == j) for j in range(n)] for i in range(n)]
            m[rng.randrange(n)][rng.randrange(n)] += rng.choice([-2, 1, 3])
            f = LinearMap(u, u, Matrix.from_rows(m))
            want = naive_hom_witnesses(m, left, right)
            failing += want != [None, None]
            assert [c.witness for c in is_module_hom(f, "both").checks] == want
        assert failing > 20


class TestUnit:
    def test_matrix_algebra_unit(self):
        a = matrix_units(2)
        assert a.unit() == [1, 0, 0, 1]

    def test_zero_product_has_no_unit(self):
        assert zero_product(2).unit() is None

    def test_dual_numbers_unit(self):
        assert dual_numbers().unit() == [1, 0]

    def test_q_plus_q_unit(self):
        assert q_plus_q().unit() == [1, 1]


def test_self_bimodule_is_built_once(corpus_pairs):
    from modext.extension import trivial_extension

    a = corpus_pairs[-1][1]  # M2
    total = trivial_extension(a, a.self_bimodule()).total
    for alg in (a, total):
        u = alg.self_bimodule()
        assert u is alg.self_bimodule()
        assert u.left_table is u.right_table is alg.mul_table
        assert (u.algebra, u.left, u.right) == (alg, alg.mul_tensor, alg.mul_tensor)
        # the integer tables too: A's table, not scaled a second time
        den, table = alg.integer_table
        assert u.integer_tables[0] == den
        assert all(t is table for t in u.integer_tables[1])
        assert len(u.integer_tables[1]) == 3


def test_associativity_independent_oracle(corpus_pairs):
    # re-check every corpus algebra with the naive tensor-level oracle
    from oracles import mul_vec as oracle_mul

    for name, a, _ in corpus_pairs:
        n, mul = a.dim, a.mul_tensor
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ei, ej, ek = (unit_vec(n, s) for s in (i, j, k))
                    lhs = oracle_mul(mul, oracle_mul(mul, ei, ej), ek)
                    rhs = oracle_mul(mul, ei, oracle_mul(mul, ej, ek))
                    assert lhs == rhs, (name, i, j, k)


def _q_and_a_zero_module():
    q = field_q()
    return trivial_extension(q, zero_action_module(q, 1))


@pytest.mark.parametrize("call, message", [
    (lambda: Algebra([[[0, 0]], [[0, 0]]]), "tensor shape mismatch"),
    (lambda: Algebra([[[0, 0]]]), "tensor shape mismatch"),
    (lambda: Algebra([[[0]]], basis_names=["a", "b"]), "basis name count"),
    (lambda: Bimodule(field_q(), [], []), "left tensor first axis"),
    (lambda: annihilator(field_q(), zero_action_module(dual_numbers(), 1)),
     "bimodule is not over the given algebra"),
    (lambda: is_module_hom(LinearMap.identity(column_module(2)), side="middle"),
     "side must be left, right or both"),
    (lambda: is_module_hom(LinearMap.identity(field_q())), "requires bimodule source and target"),
    (lambda: is_module_hom(LinearMap(zero_action_module(field_q(), 1),
                                     zero_action_module(field_q(), 1), Matrix.from_rows([[1]]))),
     "different algebras"),
    (lambda: inner_witness(_q_and_a_zero_module(), LinearMap.identity(field_q())),
     "map is not square"),
    (lambda: ModuleExtension(field_q(), zero_action_module(field_q(), 1)),
     "module is not over the given base algebra"),
    (lambda: ideal_check(field_q(), Subspace.full(2)), "subspace ambient dimension"),
], ids=["table planes", "table entries", "basis names", "bimodule left axis",
        "annihilator algebra", "module hom side", "module hom carriers",
        "module hom algebras", "witness map shape", "extension module", "ideal ambient"])
def test_argument_checks_raise_value_error(call, message):
    # each check of the Python API's arguments, before any work is done
    with pytest.raises(ValueError, match=message):
        call()


def test_elements_are_equal_on_one_carrier_only():
    # the coordinates are read exactly, so "1" and 1 agree; the carrier
    # is compared by identity, so a twin of the same dimension does not
    a, b = q_plus_q(), q_plus_q()
    assert Element(a, ["1", 0]) == Element(a, [1, 0])
    assert Element(a, [1, 0]) != Element(b, [1, 0])
    assert Element(a, [1, 0]) != [1, 0]


def test_a_report_with_a_failed_check_is_false():
    rep = ConditionReport("demo")
    rep.add("holds", True)
    assert rep
    rep.add("fails", False, witness=((0,), [1], [0]))
    assert not rep and rep.failures() == [rep.checks[1]]


def test_first_records_the_first_witness_and_stops():
    drawn = []

    def failures():
        for k in range(3):
            drawn.append(k)
            yield (k,), [k], [0]

    rep = ConditionReport("demo").first("fails", failures())
    assert rep.checks == [Check("fails", False, ((0,), [0], [0]))] and drawn == [0]
    rep = ConditionReport("demo").first("holds", [], note="0 identities")
    assert rep.checks == [Check("holds", True, None, "0 identities")]
