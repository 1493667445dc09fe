"""Stock algebras and bimodules used throughout the tests and examples.

Everything is desk scale (dimension at most four), which is enough to
exercise every identity in the toolkit: a simple algebra (matrix
units), commutative algebras with and without nilpotents, the
separable group algebras Q[C_n], a non-commutative non-semisimple
algebra (upper triangular), and the degenerate zero-product algebras.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Algebra, Bimodule, block_table


def _zero_tensor(d1, d2, d3):
    return [[[Fraction(0)] * d3 for _ in range(d2)] for _ in range(d1)]


def field_q() -> Algebra:
    """Q itself: one basis element squaring to itself."""
    return Algebra([[[1]]], basis_names=["1"])


def zero_product(n: int) -> Algebra:
    """n-dimensional algebra with all products zero."""
    return Algebra(_zero_tensor(n, n, n), basis_names=["z%d" % i for i in range(n)])


def dual_numbers() -> Algebra:
    """Q[eps]/(eps^2), basis (1, eps)."""
    mul = _zero_tensor(2, 2, 2)
    mul[0][0][0] = Fraction(1)
    mul[0][1][1] = Fraction(1)
    mul[1][0][1] = Fraction(1)
    return Algebra(mul, basis_names=["1", "eps"])


def truncated_poly(n: int) -> Algebra:
    """Q[t]/(t^n), basis (1, t, ..., t^(n-1))."""
    mul = _zero_tensor(n, n, n)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                mul[i][j][i + j] = Fraction(1)
    return Algebra(mul, basis_names=["t^%d" % i for i in range(n)])


def matrix_units(n: int) -> Algebra:
    """M_n(Q) on the matrix-unit basis E_ij (row-major index i*n + j)."""
    d = n * n
    mul = _zero_tensor(d, d, d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        mul[i * n + j][k * n + l][i * n + l] = Fraction(1)
    names = ["E%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    return Algebra(mul, basis_names=names)


def cyclic_group_algebra(n: int) -> Algebra:
    """Q[C_n], basis (g^0, ..., g^(n-1)) with g^i g^j = g^((i+j) mod n)."""
    mul = _zero_tensor(n, n, n)
    for i in range(n):
        for j in range(n):
            mul[i][j][(i + j) % n] = Fraction(1)
    return Algebra(mul, basis_names=["g^%d" % i for i in range(n)])


def upper_triangular_2() -> Algebra:
    """2x2 upper triangular matrices, basis (E11, E12, E22)."""
    # products of matrix units restricted to the triangle
    mul = _zero_tensor(3, 3, 3)
    mul[0][0][0] = Fraction(1)  # E11 E11 = E11
    mul[0][1][1] = Fraction(1)  # E11 E12 = E12
    mul[1][2][1] = Fraction(1)  # E12 E22 = E12
    mul[2][2][2] = Fraction(1)  # E22 E22 = E22
    return Algebra(mul, basis_names=["E11", "E12", "E22"])


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Block-diagonal sum of two algebras; associative because both are,
    so it is built without the re-check."""
    m = a.dim
    mul = block_table(m + b.dim, [(a.mul_table, (0, 0, 0)), (b.mul_table, (m, m, m))])
    names = ["l:%s" % s for s in a.basis_names] + ["r:%s" % s for s in b.basis_names]
    return Algebra(mul, basis_names=names, _skip_check=True)


def q_plus_q() -> Algebra:
    """Q x Q with componentwise product; semisimple but not simple."""
    return direct_sum(field_q(), field_q())


def zero_action_module(a: Algebra, dim: int) -> Bimodule:
    """Bimodule with both actions zero."""
    return Bimodule(
        a,
        _zero_tensor(a.dim, dim, dim),
        _zero_tensor(dim, a.dim, dim),
        basis_names=["v%d" % i for i in range(dim)],
    )


def left_regular_module(a: Algebra) -> Bimodule:
    """A acting on itself by multiplication on the left, zero on the right."""
    return Bimodule(
        a,
        a.mul_tensor,
        _zero_tensor(a.dim, a.dim, a.dim),
        basis_names=list(a.basis_names),
    )


def right_regular_module(a: Algebra) -> Bimodule:
    """A acting on itself by multiplication on the right, zero on the left."""
    return Bimodule(
        a,
        _zero_tensor(a.dim, a.dim, a.dim),
        a.mul_tensor,
        basis_names=list(a.basis_names),
    )


def column_module(n: int, algebra: Algebra = None) -> Bimodule:
    """Q^n as column vectors over M_n(Q), with the right action zero."""
    a = algebra if algebra is not None else matrix_units(n)
    d = n * n
    left = _zero_tensor(d, n, n)
    for i in range(n):
        for j in range(n):
            # E_ij . v_k = delta_jk v_i
            left[i * n + j][j][i] = Fraction(1)
    right = _zero_tensor(n, d, n)
    return Bimodule(a, left, right, basis_names=["v%d" % i for i in range(n)])


def corpus():
    """Named (algebra, bimodule) pairs covering the test surface.

    Dimensions are capped at four on each side; the list includes self
    modules, zero-action modules, one-sided regular modules, corner and
    quotient modules.
    """
    from .constructions import corner_module
    from .extension import quotient_bimodule
    from .linalg import Subspace, unit_vec

    pairs = []

    def add(name, a, u):
        pairs.append((name, a, u))

    q = field_q()
    add("Q self", q, q.self_bimodule())
    add("Q zero-action", q, zero_action_module(q, 1))
    add("Q zero-action dim2", q, zero_action_module(q, 2))

    dual = dual_numbers()
    add("dual self", dual, dual.self_bimodule())
    add("dual zero-action", dual, zero_action_module(dual, 2))
    add("dual left-regular", dual, left_regular_module(dual))
    add("dual right-regular", dual, right_regular_module(dual))

    qq = q_plus_q()
    add("QxQ self", qq, qq.self_bimodule())
    add("QxQ zero-action", qq, zero_action_module(qq, 1))
    ideal = Subspace(2, [unit_vec(2, 0)])
    quot, _ = quotient_bimodule(qq, ideal)
    add("QxQ mod first factor", qq, quot)

    for n in (1, 2, 3):
        z = zero_product(n)
        add("zero-product %d self" % n, z, z.self_bimodule())

    t3 = truncated_poly(3)
    add("Q[t]/t^3 self", t3, t3.self_bimodule())
    add("Q[t]/t^3 left-regular", t3, left_regular_module(t3))

    ut = upper_triangular_2()
    add("upper-triangular self", ut, ut.self_bimodule())
    ut_ideal = Subspace(3, [unit_vec(3, 1)])  # span{E12}
    ut_quot, _ = quotient_bimodule(ut, ut_ideal)
    add("upper-triangular mod E12", ut, ut_quot)
    add("upper-triangular corner E11", ut, corner_module(ut, unit_vec(3, 0)))
    add("upper-triangular left-regular", ut, left_regular_module(ut))

    m2 = matrix_units(2)
    add("M2 self", m2, m2.self_bimodule())
    add("M2 column module", m2, column_module(2, m2))
    add("M2 corner E11", m2, corner_module(m2, unit_vec(4, 0)))
    add("M2 zero-action", m2, zero_action_module(m2, 2))
    add("M2 right-regular", m2, right_regular_module(m2))

    return pairs
