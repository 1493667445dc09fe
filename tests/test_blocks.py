import random
import sys
from fractions import Fraction

import pytest

from modext.algebra import LinearMap
from modext.blocks import (
    BlockDecomposition,
    assemble,
    blocks_of,
    check_block_conditions,
    inner_witness,
    split_d1_d2,
)
import modext.derivations as derivations
from modext.analysis import center
from modext.constructions import lift
from modext.derivations import inner_derivation, is_derivation
from modext.extension import trivial_extension
from modext.linalg import Matrix, SparseMatrix, solve, unit_vec, zero_vec
from modext.reports import HypothesisError
from modext.samples import (cyclic_group_algebra, dual_numbers, field_q, matrix_units,
                            truncated_poly)

from families import basis_change, row_major, twin, upper_triangular
from oracles import leibniz_holds, leibniz_rows


def rand_blocks(rng, t, lo=-3, hi=3):
    m, n = t.base_dim, t.module_dim
    r = lambda rows, cols: Matrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )
    return BlockDecomposition(
        delta1=LinearMap(t.base, t.base, r(m, m)),
        tau1=LinearMap(t.module, t.base, r(m, n)),
        delta2=LinearMap(t.base, t.module, r(n, m)),
        tau2=LinearMap(t.module, t.module, r(n, n)),
    )


def single_entry(r, c):
    m = Matrix.zeros(4, 4)
    m.data[r][c] = Fraction(1)
    return m


# tau1 = right multiplication by E12 on M2: a left but not a right module map
RIGHT_MUL_E12 = Matrix.from_rows([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]])

# id: (condition, nonzero blocks on T(M2, M2), its witness (indices, lhs, rhs))
PINNED_WITNESSES = {
    "C1": ("C1", {"delta1": Matrix.identity(4)}, ((0, 0), [1, 0, 0, 0], [2, 0, 0, 0])),
    "C2": ("C2", {"delta2": Matrix.identity(4)}, ((0, 0), [1, 0, 0, 0], [2, 0, 0, 0])),
    "C3": ("C3", {"tau2": single_entry(0, 1)}, ((1, 3), [1, 0, 0, 0], [0, 0, 0, 0])),
    # A index first: the pair (e_0, u_1), though u_0 e_1 fails too
    "C4": ("C4", {"tau2": single_entry(0, 1)}, ((0, 1), [0, 0, 0, 0], [1, 0, 0, 0])),
    "C5-right-only": (
        "C5", {"tau1": RIGHT_MUL_E12}, ((0, 0), [0, 1, 0, 0], [0, 0, 0, 0])),
    # the left failure (1, 3) is reported before the right failure (1, 0)
    "C5-left-first": (
        "C5", {"tau1": single_entry(0, 1)}, ((1, 3), [1, 0, 0, 0], [0, 0, 0, 0])),
    "C6": ("C6", {"tau1": Matrix.identity(4)}, ((0, 0), [2, 0, 0, 0], [0, 0, 0, 0])),
    "C6-off-diagonal": (
        "C6", {"tau1": single_entry(0, 1)}, ((0, 1), [1, 0, 0, 0], [0, 0, 0, 0])),
}


class TestRoundTrip:
    def test_identity_splits_into_identity_blocks(self):
        a = dual_numbers()
        t = trivial_extension(a, a.self_bimodule())
        b = blocks_of(t, LinearMap.identity(t.total))
        assert b.delta1.matrix == Matrix.identity(2)
        assert b.tau2.matrix == Matrix.identity(2)
        assert b.tau1.is_zero() and b.delta2.is_zero()

    def test_blocks_of_assemble_is_identity(self, corpus_extensions):
        rng = random.Random(2)
        for name, a, u, t in corpus_extensions[:8]:
            b = rand_blocks(rng, t)
            back = blocks_of(t, assemble(t, b))
            assert back.delta1 == b.delta1 and back.tau1 == b.tau1
            assert back.delta2 == b.delta2 and back.tau2 == b.tau2

    def test_assemble_identity_blocks(self):
        a = matrix_units(2)
        t = trivial_extension(a, a.self_bimodule())
        b = BlockDecomposition(
            LinearMap.identity(a),
            LinearMap.zero(t.module, a),
            LinearMap.zero(a, t.module),
            LinearMap.identity(t.module),
        )
        assert assemble(t, b).matrix == Matrix.identity(8)

    def test_blocks_of_the_wrong_shape_are_refused(self):
        # at a 2 + 2 split, a 2 x 3 delta1 beside a 2 x 1 tau1 still makes
        # rows of 4, and a 3 x 2 delta1 beside a 2 x 2 tau1 loses a row to zip
        a, q, cubic = dual_numbers(), field_q(), truncated_poly(3)
        t = trivial_extension(a, a.self_bimodule())
        ones = lambda rows, cols: Matrix.from_rows([[1] * cols for _ in range(rows)])
        width = BlockDecomposition(delta1=LinearMap(cubic, a, ones(2, 3)),
                                   tau1=LinearMap(q, a, ones(2, 1)))
        rows = BlockDecomposition(delta1=LinearMap(a, cubic, ones(3, 2)),
                                  tau1=LinearMap(t.module, a, ones(2, 2)))
        for b, message in ((width, "delta1 is 2 x 3, not 2 x 2"),
                           (rows, "delta1 is 3 x 2, not 2 x 2")):
            with pytest.raises(ValueError, match=message):
                assemble(t, b)
            with pytest.raises(ValueError, match=message):
                check_block_conditions(t, b)
        with pytest.raises(ValueError, match="tau2 is 1 x 1, not 2 x 2"):
            assemble(t, BlockDecomposition(tau2=LinearMap.identity(q)))

    def test_inner_derivation_block_shapes(self):
        # ad_{(b,v)} has delta1 = ad_b, tau1 = 0,
        # delta2: a -> av - va, tau2: u -> ub - bu
        a = matrix_units(2)
        u = a.self_bimodule()
        t = trivial_extension(a, u)
        b_el, v_el = unit_vec(4, 1), unit_vec(4, 2)
        d = inner_derivation(t.total, t.total.self_bimodule(), t.pair(b_el, v_el))
        blocks = blocks_of(t, d)
        assert blocks.tau1.is_zero()
        assert blocks.delta1.matrix == inner_derivation(a, u, b_el).matrix
        for i in range(4):
            ei = unit_vec(4, i)
            av_va = [
                p - q
                for p, q in zip(
                    u.left_act(ei, v_el), u.right_act(v_el, ei)
                )
            ]
            assert blocks.delta2(ei) == av_va
            ub_bu = [
                p - q
                for p, q in zip(
                    u.right_act(ei, b_el), u.left_act(b_el, ei)
                )
            ]
            assert blocks.tau2(ei) == ub_bu


class TestConditions:
    def test_zero_blocks_pass(self, corpus_extensions):
        for name, a, u, t in corpus_extensions:
            b = blocks_of(t, LinearMap.zero(t.total, t.total))
            assert check_block_conditions(t, b).passed, name

    def test_der_basis_blocks_pass(self, corpus_der_t):
        for name, a, u, t, der in corpus_der_t:
            for d in der.basis:
                b = blocks_of(t, d)
                assert check_block_conditions(t, b).passed, name

    def test_identity_delta1_fails_c1_with_witness(self):
        a = matrix_units(2)
        t = trivial_extension(a, a.self_bimodule())
        b = BlockDecomposition(
            LinearMap.identity(a),
            LinearMap.zero(t.module, a),
            LinearMap.zero(a, t.module),
            LinearMap.zero(t.module, t.module),
        )
        rep = check_block_conditions(t, b)
        fails = rep.failures()
        assert any(c.name.startswith("C1") for c in fails)
        c1 = next(c for c in fails if c.name.startswith("C1"))
        assert c1.witness[0] == (0, 0)

    @pytest.mark.parametrize("condition, nonzero, witness",
                             list(PINNED_WITNESSES.values()), ids=list(PINNED_WITNESSES))
    def test_pinned_witness(self, condition, nonzero, witness):
        a = matrix_units(2)
        t = trivial_extension(a, a.self_bimodule())
        carriers = {"delta1": (a, a), "tau1": (t.module, a),
                    "delta2": (a, t.module), "tau2": (t.module, t.module)}
        b = BlockDecomposition(**{
            name: LinearMap(src, tgt, nonzero[name]) if name in nonzero
            else LinearMap.zero(src, tgt)
            for name, (src, tgt) in carriers.items()
        })
        rep = check_block_conditions(t, b)
        check = next(c for c in rep.checks if c.name.startswith(condition))
        assert not check.passed
        assert check.witness == witness

    def test_alternative_reading_is_recorded(self):
        a = dual_numbers()
        t = trivial_extension(a, a.self_bimodule())
        rep = check_block_conditions(t, blocks_of(t, LinearMap.zero(t.total, t.total)))
        names = [c.name for c in rep.checks]
        assert any("delta2 coupling" in n for n in names)

    def test_equivalence_against_naive_leibniz(self, corpus_extensions):
        rng = random.Random(13)
        for name, a, u, t in corpus_extensions:
            tot = t.total
            mul = tot.mul_tensor
            for _ in range(8):
                b = rand_blocks(rng, t)
                d = assemble(t, b)
                oracle = leibniz_holds(mul, mul, mul, d.matrix.data)
                assert check_block_conditions(t, b).passed == oracle, name


class TestSplit:
    def test_delta2_free_derivation_splits_trivially(self):
        a = matrix_units(2)
        u = a.self_bimodule()
        t = trivial_extension(a, u)
        d = inner_derivation(t.total, t.total.self_bimodule(),
                             t.pair(unit_vec(4, 1), zero_vec(4)))
        d = LinearMap(t.total, t.total, d.matrix)
        d1, d2 = split_d1_d2(t, d)
        assert d2.is_zero()
        assert d1.matrix == d.matrix

    def test_both_parts_are_derivations_and_sum(self, corpus_der_t):
        for name, a, u, t, der in corpus_der_t:
            tsb = t.total.self_bimodule()
            for d in der.basis:
                d1, d2 = split_d1_d2(t, d)
                assert is_derivation(t.total, tsb, d1).passed, name
                assert is_derivation(t.total, tsb, d2).passed, name
                assert d1.matrix + d2.matrix == d.matrix, name

    def test_non_derivation_rejected(self):
        a = matrix_units(2)
        t = trivial_extension(a, a.self_bimodule())
        with pytest.raises(HypothesisError):
            split_d1_d2(t, LinearMap.identity(t.total))


class TestInnerWitness:
    def test_zero_map_has_the_zero_witness(self):
        a = dual_numbers()
        t = trivial_extension(a, a.self_bimodule())
        w = inner_witness(t, LinearMap.zero(t.total, t.total))
        assert w is not None
        b, v = w
        assert b.is_zero() and v.is_zero()

    def test_constructed_inner_derivations_recover_a_witness(self, corpus_extensions):
        rng = random.Random(23)
        for name, a, u, t in corpus_extensions:
            tsb = t.total.self_bimodule()
            for _ in range(3):
                x = [rng.randint(-4, 4) for _ in range(t.total.dim)]
                d = inner_derivation(t.total, tsb, x)
                w = inner_witness(t, LinearMap(t.total, t.total, d.matrix))
                assert w is not None, name
                b, v = w
                recovered = inner_derivation(t.total, tsb, t.pair(b.coords, v.coords))
                assert recovered.matrix == d.matrix, name

    def test_lift_on_commutative_extension_is_not_inner(self):
        # T(dual, dual) is commutative, so its only inner derivation is 0;
        # the lift of eps-scaling has nonzero delta2 and cannot be inner
        a = dual_numbers()
        t = trivial_extension(a, a.self_bimodule())
        delta2 = Matrix.from_rows([[0, 0], [0, 1]])  # 1 -> 0, eps -> eps
        d = Matrix.zeros(4, 4)
        for i in range(2):
            for j in range(2):
                d.data[2 + i][j] = delta2.data[i][j]
        dmap = LinearMap(t.total, t.total, d)
        assert is_derivation(t.total, t.total.self_bimodule(), dmap).passed
        assert not dmap.is_zero()
        assert inner_witness(t, dmap) is None

    def test_agrees_with_membership_on_der_basis(self, corpus_der_t):
        from modext.derivations import inner_space

        for name, a, u, t, der in corpus_der_t:
            tsb = t.total.self_bimodule()
            inn = inner_space(t.total, tsb)
            for d in der.basis:
                w = inner_witness(t, d)
                member = inn.contains_vector(row_major(d.matrix))
                assert (w is not None) == member, name

    def test_non_derivation_rejected(self):
        # no witness solves S x = D, so the Leibniz check runs and refuses D
        a = matrix_units(2)
        t = trivial_extension(a, a.self_bimodule())
        with pytest.raises(HypothesisError) as exc:
            inner_witness(t, LinearMap.identity(t.total))
        assert not exc.value.report.passed

    def test_wrong_solution_is_rejected(self):
        # a candidate that does not reproduce D fails the certificate: D is
        # a derivation, so the Leibniz check passes and no witness is given
        a = matrix_units(2)
        t = trivial_extension(a, a.self_bimodule())
        tsb = t.total.self_bimodule()
        d = inner_derivation(t.total, tsb, unit_vec(t.total.dim, 1))
        kept = derivations._inner(t.total, tsb)
        # E12 is not central, so shifting every preimage by it changes ad
        shifted = [{**x, 1: x.get(1, 0) + 1} for x in kept.preimages]
        tsb._inner = kept._replace(preimages=shifted)
        assert inner_witness(t, d) is None
        tsb._inner = kept
        assert inner_witness(t, d) is not None

    @pytest.mark.parametrize("build", [
        lambda: matrix_units(2), lambda: matrix_units(3), lambda: matrix_units(4),
        lambda: upper_triangular(3), lambda: upper_triangular(4),
        lambda: cyclic_group_algebra(4), lambda: truncated_poly(12),
        lambda: twin(matrix_units(2), *basis_change(4, 3)),
        lambda: twin(matrix_units(3), *basis_change(9, 3)),
        lambda: twin(upper_triangular(3), *basis_change(6, 3)),
        lambda: twin(upper_triangular(4), *basis_change(10, 3)),
        lambda: twin(cyclic_group_algebra(4), *basis_change(4, 3)),
    ], ids=["M2", "M3", "M4", "UT3", "UT4", "Q[C4]", "Q[t]/(t^12)",
            "M2'", "M3'", "UT3'", "UT4'", "Q[C4]'"])
    def test_substitutes_back_and_is_zero_at_the_center_pivots(self, build):
        # on every Der basis map of T, a witness exists exactly when solve
        # finds one on the transposed inner map; its ad is D, and of the
        # witnesses it is the one that is zero at the center's pivots
        a = build()
        t = trivial_extension(a, a.self_bimodule())
        tsb = t.total.self_bimodule()
        n = t.total.dim
        # T's ad columns, which test_inner_derivation_is_the_naive_commutator checks
        columns = derivations._inner(t.total, tsb).columns
        transposed = SparseMatrix(n, n * n, [c.items() for c in columns]).transpose()
        pivots = center(t.total).pivots
        outer = 0
        for d in derivations.derivation_space(t.total, tsb).basis:
            entries = {r * n + s: x for s, col in enumerate(d.columns) for r, x in col.items()}
            w = inner_witness(t, d)
            if solve(transposed, entries) is None:
                assert w is None
                outer += 1
            else:
                x = w[0].coords + w[1].coords
                assert inner_derivation(t.total, tsb, x) == d
                assert [x[p] for p in pivots] == [0] * len(pivots)
                assert [type(c) for c in x] == [Fraction] * n
        assert outer > 0  # the grading (a, u) -> (0, u) is outer, so H1(T(A, A)) > 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_grading_derivation_of_t_mn_mn_has_no_witness(self, n):
        # (a, u) -> (0, u) is a derivation on T(M_n, M_n), and outer
        a = matrix_units(n)
        t = trivial_extension(a, a.self_bimodule())
        d = assemble(t, BlockDecomposition(tau2=LinearMap.identity(t.module)))
        assert is_derivation(t.total, t.total.self_bimodule(), d).passed
        assert inner_witness(t, d) is None


def _comparable(out):
    """A report as its checks, a construction result as its report and map,
    a map as its matrix and an element as its coordinates."""
    if hasattr(out, "checks"):
        return [(c.name, c.passed, c.witness, c.note) for c in out.checks]
    if hasattr(out, "verification"):
        return _comparable(out.verification), out.derivation.matrix
    if isinstance(out, tuple):
        return tuple(map(_comparable, out))
    return getattr(out, "matrix", getattr(out, "coords", out))


def _outcome(f, *args):
    """What f(*args) returned, or the HypothesisError it raised, comparably."""
    try:
        return _comparable(f(*args))
    except HypothesisError as e:
        return "HypothesisError", str(e), _comparable(e.report)


class TestChecksBuildNoSystem:
    def test_reports_unchanged_with_the_system_builders_raising(self, monkeypatch):
        # every check reads the terms of the identity, never the Leibniz
        # system: with its builders patched to raise in every modext module
        # that holds them, the reports are the same
        calls = []
        for a in (dual_numbers(), matrix_units(2)):
            u = a.self_bimodule()
            t = trivial_extension(a, u)
            tot, tsb = t.total, t.total.self_bimodule()
            ident = LinearMap.identity(tot)
            # the lift of a derivation A -> U; not inner for the dual numbers
            delta = derivations.derivation_space(a, u).basis[-1]
            lifted = assemble(t, BlockDecomposition(delta2=delta))
            calls += [
                (is_derivation, a, u, delta),
                (is_derivation, a, u, LinearMap.identity(a)),
                (is_derivation, tot, tsb, lifted),
                (is_derivation, tot, tsb, ident),
                (check_block_conditions, t, blocks_of(t, lifted)),
                (check_block_conditions, t, blocks_of(t, ident)),
                (split_d1_d2, t, lifted),
                (split_d1_d2, t, ident),
                (inner_witness, t, lifted),
                (inner_witness, t, ident),
                (lift, t, delta),
                (lift, t, LinearMap.identity(a)),
            ]
        before = [_outcome(*call) for call in calls]
        assert before[8] is None  # inner_witness of the dual numbers' lift

        def refuse(*args, **kwargs):
            raise AssertionError("a check built the Leibniz system")

        for original in (leibniz_rows, derivations.LeibnizSystem):
            for modname, mod in list(sys.modules.items()):
                if modname == "modext" or modname.startswith("modext."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, key, refuse)
        with pytest.raises(AssertionError, match="built the Leibniz system"):
            derivations.derivation_space(dual_numbers(), dual_numbers().self_bimodule())
        assert [_outcome(*call) for call in calls] == before
