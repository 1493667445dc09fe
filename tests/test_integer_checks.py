"""The identity checks run in integers and agree with rational evaluation.

``is_derivation``, ``check_block_conditions``, ``is_module_hom`` and
``ideal_check`` scale the map (or the subspace's basis rows) by one
common denominator and each structure's sparse tables by theirs, and
compare integer sides; a failure's witness is those integer sides
divided by the scale they carry.  Here the structures are dense-basis
twins, whose constants have a common denominator other than 1, and the
maps carry rational entries of several denominators, so a check that
scaled only one side, or dropped a denominator, would give another
verdict or witness.  Every verdict and
witness is compared with direct rational evaluation (``tests/oracles``).
The same comparison runs on modules other than A itself (a corner
module with a zero right action, a quotient bimodule, a module whose
constants have another denominator than its algebra's) and on sparse
maps (every unit map, maps with whole zero columns), where most basis
pairs have no term at all.  The radical's re-verification is checked
the same way, and shown to raise on a subspace that is not a nilpotent
ideal.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from modext import analysis
from modext.algebra import Bimodule, LinearMap, is_module_hom
from modext.analysis import is_nilpotent_subspace, radical
from modext.blocks import BLOCK_TABLE, C6, blocks_of, check_block_conditions
from modext.constructions import corner_basis, corner_module
from modext.derivations import derivation_space, inner_derivation, is_derivation
from modext.extension import ideal_check, quotient_bimodule, trivial_extension
from modext.linalg import Matrix, Subspace, unit_vec
from modext.samples import matrix_units, truncated_poly

from families import basis_change, from_row_major, row_major, twin, upper_triangular
from oracles import (
    apply_matrix,
    dense_rref,
    leibniz_first_failure,
    leibniz_pair_sides,
    left_act,
    mul_vec,
    right_act,
)

RATIONALS = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(3), Fraction(-1, 6)]


def _twins():
    """Dense-basis twins of M2, UT3 and Q[t]/(t^4), each with a common
    denominator of its constants other than 1."""
    out = []
    for name, a in (("M2", matrix_units(2)), ("UT3", upper_triangular(3)),
                    ("Q[t]/(t^4)", truncated_poly(4))):
        p, q = basis_change(a.dim, 3)
        b = twin(a, p, q)
        assert b.integer_table[0] != 1, name
        out.append((name + "'", b))
    return out


TWINS = _twins()
IDS = [name for name, _ in TWINS]


def _perturbed(rng, flat, count):
    """flat plus rational entries at count random positions."""
    flat = list(flat)
    for _ in range(count):
        flat[rng.randrange(len(flat))] += rng.choice(RATIONALS)
    return flat


def _maps(rng, alg, mod):
    """Derivations with rational entries of several denominators (an inner
    one at a rational point, unless it is zero, and a rational combination
    of the Der basis), each also perturbed at one and at two entries."""
    n, m = mod.dim, alg.dim
    basis = [row_major(d.matrix) for d in derivation_space(alg, mod).basis]
    weights = [rng.choice(RATIONALS) for _ in basis]
    combination = [sum(w * v[k] for w, v in zip(weights, basis)) for k in range(n * m)]
    inner = inner_derivation(alg, mod, [rng.choice(RATIONALS) for _ in range(n)])
    out = []
    for flat in ([row_major(inner.matrix)] if not inner.is_zero() else []) + [combination]:
        assert any(Fraction(x).denominator > 1 for x in flat)
        for count in (0, 1, 2):
            out.append(from_row_major(n, m, _perturbed(rng, flat, count)))
    return out


def _dense_in_span(basis, v):
    """Is v in the span of the independent vectors basis?  By the dense
    Gauss-Jordan rank of basis and v."""
    return len(dense_rref(basis + [v])[1]) == len(basis)


@pytest.mark.parametrize("name, a", TWINS, ids=IDS)
class TestLeibnizInIntegers:
    def test_is_derivation_matches_the_oracle(self, name, a):
        rng = random.Random(11)
        t = trivial_extension(a, a.self_bimodule())
        verdicts = set()
        for alg, mod in ((a, a.self_bimodule()), (t.total, t.total.self_bimodule())):
            mul, left, right = alg.mul_tensor, mod.left, mod.right
            for d in _maps(rng, alg, mod):
                rep = is_derivation(alg, mod, LinearMap(alg, mod, d))
                want = leibniz_first_failure(mul, left, right, d.data)
                assert rep.passed == (want is None), name
                if want is not None:
                    assert rep.failures()[0].witness == want, name
                verdicts.add(rep.passed)
        assert verdicts == {True, False}

    def test_block_conditions_match_dense_evaluation(self, name, a):
        rng = random.Random(13)
        t = trivial_extension(a, a.self_bimodule())
        tsb = t.total.self_bimodule()
        verdicts = set()
        for d in _maps(rng, t.total, tsb):
            rep = check_block_conditions(t, blocks_of(t, LinearMap(t.total, t.total, d)))
            want = _block_witnesses(t, d.data)
            got = {c.name: c.witness for c in rep.checks if not c.informational}
            assert got == {c: want.get(c) for c in dict.fromkeys(BLOCK_TABLE.values())}, name
            verdicts.add(rep.passed)
        assert verdicts == {True, False}


def _block_witnesses(t, d):
    """{condition: witness} of the failing conditions, by dense rational
    evaluation of the Leibniz identity on T at every basis pair, taken
    A index first (x in A before x in U), the sides cut to the block of
    the coordinate, C6 with its sides swapped."""
    m = t.base_dim
    mul = t.total.mul_tensor

    def indices(pair):
        x, y = pair
        i, j = x - m * (x >= m), y - m * (y >= m)
        return (j, i) if x >= m > y else (i, j)

    pairs = sorted(product(range(t.total.dim), repeat=2),
                   key=lambda p: (p[0] >= m, indices(p)))
    out = {}
    for x, y in pairs:
        lhs, rhs = leibniz_pair_sides(mul, mul, mul, d, x, y)
        for in_u, part in ((False, slice(0, m)), (True, slice(m, None))):
            name = BLOCK_TABLE.get((x >= m, y >= m, in_u))
            if lhs[part] != rhs[part] and name not in out:
                sides = (rhs[part], lhs[part]) if name == C6 else (lhs[part], rhs[part])
                out[name] = (indices((x, y)),) + sides
    return out


def _rescaled(u, weights):
    """U on the basis g_k = weights[k] u_k: e_i g_j = sum_k (w_j / w_k)
    l[i][j][k] g_k, and likewise on the right."""
    n, ul, ur = u.dim, u.left, u.right
    left = [[[ul[i][j][k] * weights[j] / weights[k] for k in range(n)]
             for j in range(n)] for i in range(u.algebra.dim)]
    right = [[[ur[j][i][k] * weights[j] / weights[k] for k in range(n)]
              for i in range(u.algebra.dim)] for j in range(n)]
    return Bimodule(u.algebra, left, right)


def _module_hom_witnesses(f, m):
    """[left witness, right witness] of the first failing pair (i, j), by
    dense rational evaluation of f(e_i u_j) = e_i f(u_j) and
    f(u_j e_i) = f(u_j) e_i; None where the identity holds."""
    src, tgt = f.source, f.target
    (sl, sr), (tl, tr) = (src.left, src.right), (tgt.left, tgt.right)
    out = []
    for side in ("left", "right"):
        witness = None
        for i, j in product(range(m), range(src.dim)):
            ei, uj = unit_vec(m, i), unit_vec(src.dim, j)
            if side == "left":
                lhs = apply_matrix(f.matrix.data, left_act(sl, ei, uj))
                rhs = left_act(tl, ei, apply_matrix(f.matrix.data, uj))
            else:
                lhs = apply_matrix(f.matrix.data, right_act(sr, uj, ei))
                rhs = right_act(tr, apply_matrix(f.matrix.data, uj), ei)
            if lhs != rhs:
                witness = ((i, j), lhs, rhs)
                break
        out.append(witness)
    return out


@pytest.mark.parametrize("name, a", TWINS, ids=IDS)
def test_module_hom_matches_dense_evaluation(name, a):
    # u -> g_k = w_k u_k is a module isomorphism between bimodules whose
    # constants have different common denominators
    rng = random.Random(17)
    u = a.self_bimodule()
    weights = [rng.choice(RATIONALS) for _ in range(u.dim)]
    g = _rescaled(u, weights)
    assert u.integer_tables[0] != g.integer_tables[0], name
    verdicts = set()
    iso = [[Fraction(int(i == j)) / weights[j] for j in range(u.dim)] for i in range(u.dim)]
    inverse = [[Fraction(int(i == j)) * weights[j] for j in range(u.dim)] for i in range(u.dim)]
    for src, tgt, rows in ((u, g, iso), (g, u, inverse)):
        for count in (0, 0, 1, 1, 2):
            flat = _perturbed(rng, [x for row in rows for x in row], count)
            f = LinearMap(src, tgt, from_row_major(u.dim, u.dim, flat))
            rep = is_module_hom(f, "both")
            want = _module_hom_witnesses(f, a.dim)
            assert [c.witness for c in rep.checks] == want, name
            assert [c.passed for c in rep.checks] == [w is None for w in want], name
            verdicts.add(rep.passed)
    assert verdicts == {True, False}


def _other_modules():
    """(name, algebra, module, [homs out of or into the module]) for
    modules over the twins other than A itself: the corner module A p
    (zero right action) with its inclusion into A, a left hom only; the
    quotient A/I by the square of the radical with its projection; and A
    on a rescaled basis, whose constants have another denominator than
    its algebra's, with the rescaling isomorphism."""
    (m2, a), (ut3, b), (poly, c) = TWINS
    out = []
    # E11 of M2 and E33 of UT3 in the twins' coordinates
    for name, alg, source, index in ((m2, a, matrix_units(2), 0),
                                     (ut3, b, upper_triangular(3), 5)):
        p = apply_matrix(basis_change(source.dim, 3)[1].data, unit_vec(source.dim, index))
        corner = corner_module(alg, p)
        basis = corner_basis(alg, p).basis
        inclusion = Matrix(alg.dim, corner.dim, [list(row) for row in zip(*basis)])
        homs = [LinearMap(corner, alg.self_bimodule(), inclusion)]
        out.append((name + " A p", alg, corner, homs))
    for name, alg in ((ut3, b), (poly, c)):
        rad = radical(alg).radical.basis
        square = Subspace(alg.dim, [alg.mul_vec(v, w) for v in rad for w in rad])
        quotient, proj = quotient_bimodule(alg, square)
        out.append((name + " A/I", alg, quotient, [proj]))
    u = b.self_bimodule()
    weights = [RATIONALS[k % len(RATIONALS)] for k in range(u.dim)]
    g = _rescaled(u, weights)
    assert g.integer_tables[0] != b.integer_table[0]
    iso = [[Fraction(int(i == j)) / weights[j] for j in range(u.dim)] for i in range(u.dim)]
    out.append((ut3 + " rescaled", b, g, [LinearMap(u, g, Matrix(u.dim, u.dim, iso))]))
    return out


OTHER = _other_modules()
OTHER_IDS = [name for name, *_ in OTHER]


def _check_derivation(alg, mod, d):
    """is_derivation on d agrees with the oracle; its verdict."""
    rep = is_derivation(alg, mod, LinearMap(alg, mod, d))
    want = leibniz_first_failure(alg.mul_tensor, mod.left, mod.right, d.data)
    assert rep.passed == (want is None)
    if want is not None:
        assert rep.failures()[0].witness == want
    return rep.passed


def _check_blocks(t, d):
    """check_block_conditions on d agrees with dense evaluation; its verdict."""
    rep = check_block_conditions(t, blocks_of(t, LinearMap(t.total, t.total, d)))
    want = _block_witnesses(t, d.data)
    got = {c.name: c.witness for c in rep.checks if not c.informational}
    assert got == {c: want.get(c) for c in dict.fromkeys(BLOCK_TABLE.values())}
    return rep.passed


def _check_module_hom(f):
    """is_module_hom on f agrees with dense evaluation; its verdicts."""
    rep = is_module_hom(f, "both")
    want = _module_hom_witnesses(f, f.source.algebra.dim)
    assert [c.witness for c in rep.checks] == want
    assert [c.passed for c in rep.checks] == [w is None for w in want]
    return tuple(c.passed for c in rep.checks)


def _zero_columns(rng, d):
    """d with a random nonempty set of its columns zeroed, and d with all
    but one of its columns zeroed."""
    cols = rng.sample(range(d.cols), rng.randint(1, d.cols))
    keep = rng.randrange(d.cols)
    return [Matrix(d.rows, d.cols, [[0 if j in cols else x for j, x in enumerate(row)]
                                    for row in d.data]),
            Matrix(d.rows, d.cols, [[x if j == keep else 0 for j, x in enumerate(row)]
                                    for row in d.data])]


@pytest.mark.parametrize("name, a, u, homs", OTHER, ids=OTHER_IDS)
def test_checks_on_other_modules_match_dense_evaluation(name, a, u, homs):
    rng = random.Random(23)
    t = trivial_extension(a, u)
    tsb = t.total.self_bimodule()
    verdicts = set()
    for d in _maps(rng, a, u):
        for e in [d] + _zero_columns(rng, d):
            verdicts.add(_check_derivation(a, u, e))
    for d in _maps(rng, t.total, tsb):
        for e in [d] + _zero_columns(rng, d):
            passed = _check_derivation(t.total, tsb, e)
            assert _check_blocks(t, e) == passed
            verdicts.add(passed)
    assert verdicts == {True, False}, name
    hom_verdicts = set()
    for f in homs:
        for count in (0, 1, 2):
            flat = _perturbed(rng, row_major(f.matrix), count)
            g = from_row_major(f.matrix.rows, f.matrix.cols, flat)
            for e in [g] + _zero_columns(rng, g):
                hom_verdicts.add(_check_module_hom(LinearMap(f.source, f.target, e)))
    assert {True, False} <= {x for v in hom_verdicts for x in v}, name


@pytest.mark.parametrize("name, a", TWINS[:1], ids=IDS[:1])
def test_every_unit_map_matches_dense_evaluation(name, a):
    # E_ts has one nonzero entry: most basis pairs have no term at all
    t = trivial_extension(a, a.self_bimodule())
    for alg in (a, t.total):
        mod = alg.self_bimodule()
        for r, s in product(range(alg.dim), repeat=2):
            e = from_row_major(alg.dim, alg.dim, unit_vec(alg.dim**2, r * alg.dim + s))
            passed = _check_derivation(alg, mod, e)
            if alg is t.total:
                assert _check_blocks(t, e) == passed
            _check_module_hom(LinearMap(mod, mod, e))
    assert _check_derivation(a, a.self_bimodule(), Matrix.zeros(a.dim, a.dim))


def test_is_derivation_rejects_a_module_over_another_algebra():
    a, other = matrix_units(2), matrix_units(2)
    u = other.self_bimodule()
    with pytest.raises(ValueError, match="module is not over the given algebra"):
        is_derivation(a, u, LinearMap(a, u, Matrix.zeros(u.dim, a.dim)))


def _ideal_witnesses(a, s):
    """[A.s witness, s.A witness]: the first (i, w) in (i, basis) order
    whose product leaves s, by dense products and ranks; None if none."""
    out, mul = [], a.mul_tensor
    for left in (True, False):
        witness = None
        for i, w in product(range(a.dim), s.basis):
            ei = unit_vec(a.dim, i)
            prod = mul_vec(mul, ei, w) if left else mul_vec(mul, w, ei)
            if not _dense_in_span(s.basis, prod):
                witness = ((i,), w, prod)
                break
        out.append(witness)
    return out


def _dense_nilpotent(a, s):
    """Does some power of s vanish?  Each power is the RREF of the dense
    products of the last one with s; one that repeats never vanishes."""
    power, mul = s.basis, a.mul_tensor
    for _ in range(a.dim + 1):
        prods = [p for v in power for w in s.basis if any(p := mul_vec(mul, v, w))]
        if not prods:
            return True
        reduced, pivots = dense_rref(prods)
        if reduced[: len(pivots)] == power:
            return False
        power = reduced[: len(pivots)]
    return False


def _ideal_generated(a, v):
    """The two-sided ideal generated by v, closed under dense products."""
    s, mul = Subspace(a.dim, [v]), a.mul_tensor
    while True:
        units = [unit_vec(a.dim, i) for i in range(a.dim)]
        vectors = s.basis + [mul_vec(mul, x, y) for w in s.basis
                             for e in units for x, y in ((e, w), (w, e))]
        bigger = Subspace(a.dim, vectors)
        if bigger == s:
            return s
        s = bigger


def _subspaces(rng, a):
    """The radical, its square, the whole algebra, an ideal generated by a
    rational point of the radical, and random spans of rational vectors
    and of products (some of them ideals, some not)."""
    rad = radical(a).radical.basis
    out = [radical(a).radical, Subspace.full(a.dim)]
    for k in (1, 2, 3):
        vectors = [[rng.choice(RATIONALS + [0, 0, 0]) for _ in range(a.dim)] for _ in range(k)]
        out.append(Subspace(a.dim, vectors))
    if rad:
        mul = a.mul_tensor
        square = [mul_vec(mul, v, w) for v in rad for w in rad]
        out.append(Subspace(a.dim, square))
        out.append(Subspace(a.dim, square + [rad[0]]))
        c = rng.choice(RATIONALS)
        out.append(_ideal_generated(a, [c * x + y for x, y in zip(rad[0], rad[-1])]))
    return out


@pytest.mark.parametrize("name, a", TWINS, ids=IDS)
def test_ideal_check_and_nilpotency_match_dense_evaluation(name, a):
    rng = random.Random(19)
    t = trivial_extension(a, a.self_bimodule()).total
    verdicts = set()
    for alg in (a, t):
        for s in _subspaces(rng, alg):
            rep = ideal_check(alg, s)
            want = _ideal_witnesses(alg, s)
            assert [c.witness for c in rep.checks] == want, name
            assert [c.passed for c in rep.checks] == [w is None for w in want], name
            assert is_nilpotent_subspace(alg, s) == _dense_nilpotent(alg, s), name
            verdicts.add((rep.passed, is_nilpotent_subspace(alg, s)))
    assert {(True, True), (True, False), (False, False)} <= verdicts


class TestRadicalReverification:
    """radical re-checks its answer; a trace-row kernel that is not a
    nilpotent two-sided ideal raises."""

    @pytest.mark.parametrize("name, a", TWINS, ids=IDS)
    def test_an_ideal_that_is_not_nilpotent_raises(self, name, a, monkeypatch):
        # A itself is a two-sided ideal, and never nilpotent when unital
        monkeypatch.setattr(analysis, "nullspace", lambda m: Subspace.full(a.dim))
        with pytest.raises(AssertionError, match="not nilpotent"):
            radical(a)

    def test_a_subspace_that_is_not_an_ideal_raises(self, monkeypatch):
        a = TWINS[0][1]  # M2' is simple: a line is no ideal
        line = Subspace(a.dim, [unit_vec(a.dim, 0)])
        monkeypatch.setattr(analysis, "nullspace", lambda m: line)
        with pytest.raises(AssertionError, match="not a two-sided ideal"):
            radical(a)
