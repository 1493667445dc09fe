"""LinearMap's stored form: its sparse columns, with the dense matrix a view.

Every map the program returns holds only the nonzero entries of its
columns, and no entry point reads a map's dense view on the way: with
``LinearMap.matrix`` and dense ``Matrix`` arithmetic patched to raise,
they all still run on the corpus.  The shape guards that read a map's
dimensions, and the zero-dimensional carriers, are pinned here too.
"""

from fractions import Fraction

import pytest

from modext import algebra, analysis, blocks, derivations, linalg
from modext.algebra import Algebra, LinearMap, is_module_hom
from modext.analysis import (center, find_surjective_left_hom, is_nontrivial_idempotent,
                             is_simple_prime, min_poly, radical)
from modext.blocks import (assemble, blocks_of, check_block_conditions, inner_witness,
                           split_d1_d2)
from modext.constructions import corner_tau, lift, quotient_derivation, transport
from modext.derivations import derivation_space, inner_derivation, inner_space, is_derivation
from modext.extension import quotient_algebra, quotient_bimodule, trivial_extension
from modext.linalg import Matrix, Subspace, unit_vec
from modext.samples import (
    dual_numbers,
    field_q,
    matrix_units,
    q_plus_q,
    truncated_poly,
    zero_action_module,
)

from families import upper_triangular


class TestShapeGuards:
    def test_matrix_must_match_the_carriers(self):
        a = dual_numbers()
        for rows, cols in ((2, 1), (1, 2), (3, 2), (2, 3)):
            with pytest.raises(ValueError, match="matrix shape does not match carriers"):
                LinearMap(a, a, Matrix.zeros(rows, cols))

    def test_is_derivation_wants_a_map_from_a_to_u(self):
        a, q = dual_numbers(), field_q()
        u = zero_action_module(a, 1)
        for f in (LinearMap.zero(a, a), LinearMap.zero(q, u), LinearMap.zero(u, a)):
            with pytest.raises(ValueError, match="map shape does not match A -> U"):
                is_derivation(a, u, f)

    def test_blocks_of_wants_a_square_map_on_t(self):
        a = dual_numbers()
        t = trivial_extension(a, zero_action_module(a, 1))
        for f in (LinearMap.zero(a, a), LinearMap.zero(t.total, a),
                  LinearMap.zero(a, t.total)):
            with pytest.raises(ValueError, match="map is not square of dimension dim A"):
                blocks_of(t, f)

    def test_transport_rejects_phi_or_psi_of_the_wrong_shape(self):
        a, q = dual_numbers(), field_q()
        u = a.self_bimodule()
        t = trivial_extension(a, u)
        delta, ident = LinearMap.zero(a, a), LinearMap.identity(a)
        for phi, psi in ((LinearMap.zero(q, u), ident), (LinearMap.zero(a, q), ident),
                         (ident, LinearMap.zero(u, q)), (ident, LinearMap.zero(q, a))):
            with pytest.raises(ValueError, match="shape"):
                transport(t, delta, phi, psi)

    def test_transport_onto_a_smaller_module(self):
        # U = (Q x Q) / (Q x 0): phi the projection, psi its section onto 0 x Q
        a = q_plus_q()
        u, phi = quotient_bimodule(a, Subspace(2, [unit_vec(2, 0)]))
        psi = LinearMap(u, a, Matrix.from_rows([[0], [1]]))
        delta = LinearMap.zero(a, a)
        assert transport(trivial_extension(a, u), delta, phi, psi).derivation.is_zero()
        with pytest.raises(ValueError, match="shape"):
            transport(trivial_extension(a, u), delta, psi, phi)


def _program_maps(corpus_extensions):
    """(label, map) for each map the entry points return on the corpus; the
    checks (is_derivation, is_module_hom, check_block_conditions and
    inner_witness) run on those maps along the way."""
    out = []
    seen = set()
    for name, a, u, t in corpus_extensions:
        tsb = t.total.self_bimodule()
        der = derivation_space(a, u).basis
        der_t = derivation_space(t.total, tsb).basis
        out += [(name + ": Der", d) for d in der] + [(name + ": Der(T)", d) for d in der_t]
        out.append((name + ": inner", inner_derivation(a, u, range(1, u.dim + 1))))
        for d in der_t[:4]:
            assert is_derivation(t.total, tsb, d).passed, name
            b = blocks_of(t, d)
            assert check_block_conditions(t, b).passed, name
            out += [(name + ": block", x) for x in b]
            out.append((name + ": assemble", assemble(t, b)))
            out += [(name + ": split", x) for x in split_d1_d2(t, d)]
            inner_witness(t, d)
        out += [(name + ": lift", lift(t, delta).derivation) for delta in der]
        hom = find_surjective_left_hom(a, u)
        if hom is not None:
            out.append((name + ": surjective left hom", hom))
        if id(a) in seen:
            continue
        seen.add(id(a))
        asb = a.self_bimodule()
        der_a = derivation_space(a, asb).basis
        ident = LinearMap.identity(a)
        t_self = trivial_extension(a, asb)
        out += [(name + ": transport", transport(t_self, delta, ident, ident).derivation)
                for delta in der_a]
        for ideal in (Subspace.zero(a.dim), Subspace.full(a.dim), radical(a).radical):
            _, proj = quotient_bimodule(a, ideal)
            assert is_module_hom(proj).passed, name
            out.append((name + ": projection", proj))
            for delta in der_a:
                out.append((name + ": quotient",
                            quotient_derivation(a, ideal, delta).derivation))
        for p in (unit_vec(a.dim, i) for i in range(a.dim)):
            if is_nontrivial_idempotent(a, p):
                out += [(name + ": corner", corner_tau(a, p, delta).derivation)
                        for delta in der_a]
    return out


def _refuse(*args, **kwargs):
    raise AssertionError("the program read a dense matrix")


class TestStoredForm:
    def test_program_maps_hold_only_their_nonzero_columns(self, corpus_extensions):
        maps = _program_maps(corpus_extensions)
        assert len({label.split(": ")[1] for label, _ in maps}) == 12
        for label, f in maps:
            assert len(f.columns) == f.source.dim, label
            for col in f.columns:
                assert all(type(x) is Fraction and x for x in col.values()), label
                assert all(0 <= r < f.target.dim for r in col), label
            assert LinearMap(f.source, f.target, f.matrix) == f, label

    def test_no_entry_point_reads_a_dense_matrix(self, corpus_extensions, monkeypatch):
        monkeypatch.setattr(LinearMap, "matrix", property(_refuse))
        monkeypatch.setattr(Matrix, "__add__", _refuse)
        assert _program_maps(corpus_extensions)

    def test_no_dense_matrix_is_built(self, monkeypatch):
        """The entry points build no ``Matrix``: it is only the boundary
        form of io, ``LinearMap(..., Matrix)``, ``.matrix`` and ``rref``.
        The unit is the one caller of ``solve``, and hands it its right
        side as its 2 dim A nonzeros only."""
        steps = []  # (name, algebra A, the extension T(A, A))
        for name, a in (("UT2", upper_triangular(2)), ("M2", matrix_units(2))):
            t = trivial_extension(a, a.self_bimodule())
            steps += [(name, a, t), ("T(%s,%s)" % (name, name), t.total,
                                     trivial_extension(t.total, t.total.self_bimodule()))]
        built = []
        real = Matrix.__init__
        monkeypatch.setattr(Matrix, "__init__", lambda m, *args: built.append(m) or real(m, *args))
        counts, sides, current = {}, [], [None]  # sides: (label, b) per solve call

        def spy(m, b):
            sides.append((current[0], b))
            return linalg.solve(m, b)

        monkeypatch.setattr(algebra, "solve", spy)

        def run(label, call):
            before = len(built)
            current[0] = label
            out = call()
            counts[label] = counts.get(label, 0) + len(built) - before
            return out

        for name, a, t in steps:
            asb, tsb = a.self_bimodule(), t.total.self_bimodule()
            x = list(range(1, a.dim + 1))
            run((name, "unit"), a.unit)
            der = run((name, "derivation_space"), lambda: derivation_space(a, asb)).basis
            run((name, "inner_space"), lambda: inner_space(a, asb))
            run((name, "center"), lambda: center(a))
            rad = run((name, "radical"), lambda: radical(a)).radical
            run((name, "is_simple_prime"), lambda: is_simple_prime(a))
            run((name, "mul_vec"), lambda: a.mul_vec(x, x))
            run((name, "min_poly"), lambda: min_poly(a, x))
            run((name, "Subspace"), lambda: Subspace(a.dim, [x, x, [0] * a.dim]))
            run((name, "__call__"), lambda: der[0](x))
            ad = run((name, "inner_derivation"), lambda: inner_derivation(t.total, tsb, x + x))
            for d in derivation_space(t.total, tsb).basis[:3] + [ad]:
                run((name, "is_derivation"), lambda: is_derivation(t.total, tsb, d))
                run((name, "check_block_conditions"),
                    lambda: check_block_conditions(t, blocks_of(t, d)))
                run((name, "split_d1_d2"), lambda: split_d1_d2(t, d))
                run((name, "inner_witness"), lambda: inner_witness(t, d))
            ident = LinearMap.identity(a)
            run((name, "lift"), lambda: lift(t, der[0]))
            run((name, "transport"), lambda: transport(t, der[0], ident, ident))
            run((name, "quotient"), lambda: quotient_derivation(a, rad, der[0]))
            run((name, "corner_tau"), lambda: corner_tau(a, unit_vec(a.dim, 0), der[0]))
        assert {k: n for k, n in counts.items() if n} == {}
        assert len(counts) == 4 * 19
        assert {label[1] for label, _ in sides} == {"unit"}
        assert not any(hasattr(module, "solve") for module in (analysis, blocks, derivations))
        for (name, step), b in sides:
            assert type(b) is dict and all(b.values()), (name, step)
            if step == "unit":
                dim = next(a.dim for n, a, _ in steps if n == name)
                assert len(b) == 2 * dim, name

    def test_the_map_keeps_no_reference_to_a_matrix(self):
        a = matrix_units(2)
        m = Matrix.identity(4)
        f = LinearMap(a, a, m)
        m.data[0][0] = Fraction(7)
        assert f.matrix == Matrix.identity(4)
        f.matrix.data[1][2] = Fraction(5)
        assert f.matrix == Matrix.identity(4)
        assert f == LinearMap.identity(a)
        with pytest.raises(AttributeError):
            f.matrix = m

    def test_equality_compares_the_entries_and_the_target(self):
        a, q = dual_numbers(), field_q()
        f = LinearMap(a, a, Matrix.from_rows([[0, 1], [0, 0]]))
        assert f == LinearMap(a, a, Matrix.from_rows([[0, 1], [0, 0]]))
        assert f != LinearMap(a, a, Matrix.from_rows([[0, 1], [0, 1]]))
        assert LinearMap.zero(q, a) != LinearMap.zero(q, q)
        assert f(unit_vec(2, 1)) == [1, 0] and f(unit_vec(2, 0)) == [0, 0]
        with pytest.raises(ValueError, match="has length 1, expected 2"):
            f([1])


class TestZeroDimensionalCarriers:
    def _extensions(self):
        zero = Algebra([])
        a = truncated_poly(2)
        yield trivial_extension(a, zero_action_module(a, 0))  # T(A, 0)
        yield trivial_extension(zero, zero_action_module(zero, 0))  # T(0, 0)
        yield trivial_extension(zero, zero.self_bimodule())

    def test_blocks_checks_and_recipes(self):
        for t in self._extensions():
            m, n = t.base_dim, t.module_dim
            for d in derivation_space(t.total, t.total.self_bimodule()).basis + [
                    LinearMap.zero(t.total, t.total)]:
                b = blocks_of(t, d)
                assert assemble(t, b) == d
                assert (b.tau1.source.dim, b.tau1.target.dim) == (n, m)
                assert check_block_conditions(t, b).passed
                d1, d2 = split_d1_d2(t, d)
                assert d1 == assemble(t, b._replace(delta2=None))
            assert inner_witness(t, LinearMap.zero(t.total, t.total)) is not None
            delta = LinearMap.zero(t.base, t.module)
            assert lift(t, delta).derivation.is_zero()
            assert t.total.dim == m + n

    def test_the_quotient_by_a_itself(self):
        for a in (truncated_poly(3), matrix_units(2)):
            full = Subspace.full(a.dim)
            quotient, proj = quotient_bimodule(a, full)
            assert quotient.dim == 0 and proj.is_zero() and proj.source.dim == a.dim
            assert quotient_algebra(a, full)[1] == Matrix.zeros(0, a.dim)
            for delta in derivation_space(a, a.self_bimodule()).basis:
                res = quotient_derivation(a, full, delta)
                assert blocks_of(res.extension, res.derivation).delta1 == delta
                assert res.extension.module_dim == 0
