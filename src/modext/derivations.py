"""Derivation spaces as nullspaces of the Leibniz linear system.

A linear map D: A -> U is a derivation when D(ab) = a D(b) + D(a) b.  On
basis pairs this is a linear system in the entries of D's matrix; the
derivation space is its exact nullspace.  Inner derivations are the
image of U under x -> (a -> a x - x a).

Row order of the Leibniz system is lexicographic in (i, j, k); columns
are D's matrix entries in row-major order.  Both are fixed so computed
bases are canonical.
"""

from __future__ import annotations

from typing import List

from .algebra import Algebra, Bimodule, Element, LinearMap
from .linalg import (
    Matrix,
    Subspace,
    nullspace,
    unit_vec,
    vec_add,
    vec_sub,
    zero_vec,
)
from .reports import ConditionReport


class LeibnizSystem:
    """The linear system expressing the derivation identity.

    Unknowns are the entries d[t][s] of D's (u.dim x a.dim) matrix; row
    (i, j, k) states that coordinate k of D(e_i e_j) - e_i D(e_j)
    - D(e_i) e_j vanishes.
    """

    def __init__(self, algebra: Algebra, module: Bimodule):
        if module.algebra is not algebra:
            raise ValueError("module is not over the given algebra")
        self.algebra = algebra
        self.module = module
        m, n = algebra.dim, module.dim
        rows = []
        for i in range(m):
            for j in range(m):
                c_ij = algebra.mul_tensor[i][j]
                for k in range(n):
                    row = zero_vec(m * n)
                    # D(e_i e_j)_k = sum_s c[i][j][s] d[k][s]
                    for s in range(m):
                        row[k * m + s] += c_ij[s]
                    # (e_i D(e_j))_k = sum_t l[i][t][k] d[t][j]
                    for t in range(n):
                        row[t * m + j] -= module.left[i][t][k]
                    # (D(e_i) e_j)_k = sum_t r[t][j][k] d[t][i]
                    for t in range(n):
                        row[t * m + i] -= module.right[t][j][k]
                    rows.append(row)
        self.matrix = (
            Matrix.from_rows(rows) if rows else Matrix.zeros(0, m * n)
        )


class DerivationSpace:
    """Canonical basis of Der(A, U)."""

    def __init__(self, system: LeibnizSystem, basis: List[LinearMap]):
        self.system = system
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def as_subspace(self) -> Subspace:
        """The space of flattened derivation matrices inside Q^(n*m)."""
        m = self.system.algebra.dim * self.system.module.dim
        return Subspace.from_vectors(m, [d.matrix.flatten() for d in self.basis])

    def __repr__(self):
        return "DerivationSpace(dim=%d)" % self.dim


def is_derivation(a: Algebra, u: Bimodule, f: LinearMap) -> ConditionReport:
    """Check D(e_i e_j) = e_i D(e_j) + D(e_i) e_j on all basis pairs."""
    if f.matrix.rows != u.dim or f.matrix.cols != a.dim:
        raise ValueError("map shape does not match A -> U")
    rep = ConditionReport("Leibniz identity")
    for i in range(a.dim):
        di = f.matrix.col(i)
        for j in range(a.dim):
            lhs = f.matrix.apply(a.mul_basis(i, j))
            rhs = vec_add(
                u.left_act(unit_vec(a.dim, i), f.matrix.col(j)),
                u.right_act(di, unit_vec(a.dim, j)),
            )
            if lhs != rhs:
                rep.add("D(ab) = aD(b) + D(a)b", False, witness=((i, j), lhs, rhs))
                return rep
    rep.add("D(ab) = aD(b) + D(a)b", True, note="%d pairs" % a.dim**2)
    return rep


def derivation_space(a: Algebra, u: Bimodule) -> DerivationSpace:
    """All derivations A -> U, as the nullspace of the Leibniz system.

    Certificate: each basis vector k has zero residual S k on the system
    S that was solved, checked over the nonzeros of each row.
    """
    system = LeibnizSystem(a, u)
    ker = nullspace(system.matrix)
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in system.matrix.data]
    for k in ker.basis:
        if any(sum(x * k[j] for j, x in row) for row in rows):
            raise AssertionError("nullspace vector has a nonzero Leibniz residual")
    basis = [LinearMap(a, u, Matrix.unflatten(u.dim, a.dim, k)) for k in ker.basis]
    return DerivationSpace(system, basis)


def inner_derivation(a: Algebra, u: Bimodule, x) -> LinearMap:
    """The inner derivation b -> b x - x b for a module element x."""
    coords = x.coords if isinstance(x, Element) else list(x)
    if len(coords) != u.dim:
        raise ValueError("element length does not match module dimension")
    cols = [
        vec_sub(
            u.left_act(unit_vec(a.dim, i), coords),
            u.right_act(coords, unit_vec(a.dim, i)),
        )
        for i in range(a.dim)
    ]
    matrix = Matrix.from_rows(
        [[cols[i][k] for i in range(a.dim)] for k in range(u.dim)]
    )
    return LinearMap(a, u, matrix)


def inner_space(a: Algebra, u: Bimodule) -> Subspace:
    """Image of x -> id_x inside flattened Hom(A, U) coordinates."""
    vectors = [
        inner_derivation(a, u, unit_vec(u.dim, j)).matrix.flatten()
        for j in range(u.dim)
    ]
    return Subspace.from_vectors(a.dim * u.dim, vectors)


def h1_dimension(a: Algebra, u: Bimodule) -> int:
    """dim Der(A,U) - dim Inn(A,U)."""
    return derivation_space(a, u).dim - inner_space(a, u).dim
