"""Theorem families past the dim <= 4 corpus, each pinned by exact answers.

The CI workflow also runs each test on its own under ``timeout 30``: the
time limit catches fill-in blow-ups, a return to the Leibniz rows at all
pairs, and a return to D's entries as the unknowns.
"""

import pytest

from modext.algebra import LinearMap
from modext.analysis import center
from modext.blocks import BlockDecomposition, assemble, inner_witness
from modext.derivations import derivation_space, inner_derivation, inner_space
from modext.extension import trivial_extension
from modext.samples import column_module, matrix_units, truncated_poly

from families import basis_change, self_extension, twin, upper_triangular


def test_der_t_of_truncated_poly_30():
    """dim Der T(Q[t]/(t^30)) = 3n - 2 = 88."""
    a = truncated_poly(30)
    t = trivial_extension(a, a.self_bimodule()).total
    dim = derivation_space(t, t.self_bimodule()).dim
    assert dim == 88, dim


def test_der_inn_center_and_witnesses_of_t_m7_m7():
    """dim Der T(M7,M7) = 2n^2 - 1 = 97, dim Inn = 2n^2 - 2 = 96, H1 = 1,
    dim Z(T) = 2; the grading (a,u) -> (0,u) is outer and ad_x is
    witnessed."""
    a = matrix_units(7)
    ext = trivial_extension(a, a.self_bimodule())
    t = ext.total
    dim = derivation_space(t, t.self_bimodule()).dim
    inn = inner_space(t, t.self_bimodule()).dim
    z = center(t).dim
    assert dim == 97, dim
    assert inn == 96, inn
    assert dim - inn == 1, dim - inn
    assert z == 2, z
    grading = assemble(ext, BlockDecomposition(tau2=LinearMap.identity(ext.module)))
    assert inner_witness(ext, grading) is None
    d = inner_derivation(t, t.self_bimodule(), [i % 5 - 2 for i in range(t.dim)])
    b, v = inner_witness(ext, d)
    assert inner_derivation(t, t.self_bimodule(), ext.pair(b.coords, v.coords)) == d


def test_der_inn_of_dense_t_ut4():
    """T(UT4, UT4) on a dense basis (seed 3 of ``families.basis_change``):
    dim Der = n(n + 1) - 1 = 19, dim Inn = 18, H1 = 1, and Inn lies in Der.
    Solving for all 400 entries of D, in place of its 60 values on the
    generators, took about 43 s on a 2-vCPU VM."""
    t = self_extension(upper_triangular(4))
    dense = twin(t, *basis_change(t.dim, seed=3))
    u = dense.self_bimodule()
    der, inn = derivation_space(dense, u), inner_space(dense, u)
    assert (der.dim, inn.dim, der.dim - inn.dim) == (19, 18, 1)
    assert der.kernel.contains(inn)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_column_module_of_m_n(n):
    """T(M_n, Q^n), Q^n the column vectors with the right action zero:
    dim Der(M_n, Q^n) = n and H1 = 0, each derivation a -> a D(1) =
    ad_{D(1)}; dim Der T = dim Inn T = n^2 + n, so H1(T) = 0; and
    Z(T) = 0, T having no unit, as (0, u)(1, 0) = 0."""
    a = matrix_units(n)
    u = column_module(n, a)
    der = derivation_space(a, u)
    assert der.dim == n, der.dim
    assert inner_space(a, u).dim == n
    assert all(inner_derivation(a, u, d(a.unit())) == d for d in der.basis)
    ext = trivial_extension(a, u)
    t = ext.total
    dim = derivation_space(t, t.self_bimodule()).dim
    assert dim == inner_space(t, t.self_bimodule()).dim == n * n + n, dim
    assert center(t).dim == 0
    assert t.unit() is None
    u1, one = ext.pair([0] * (n * n), [1] + [0] * (n - 1)), ext.pair(a.unit(), [0] * n)
    assert not any(t.mul_vec(u1, one))
