"""Trivial (module) extension algebras T(A,U) and quotient bimodules.

T(A,U) is A + U with the product (a,u)(b,v) = (ab, av + ub); the copy of
U becomes a square-zero two-sided ideal.  T(A,U) is associative exactly
when A is and U satisfies the bimodule axioms, and A/I (as an algebra or
as an A-bimodule) inherits its axioms from A once I is checked to be an
ideal, so these structures are built from validated parts without the
constructors' re-check.  Ideal membership is decided in integers by the
certificate that ``nullspace`` checks its kernel with: a product lies
in I iff it is orthogonal to the integer kernel of I's echelon basis;
the same kernel rows, rational, are the projection A -> A/I.
Coordinates on the total algebra are the A coordinates followed by the
U coordinates, read and written through ``pair`` and ``split``, so the
coordinate l1 norm splits as ||(a,u)|| = ||a|| + ||u|| by construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import List, Tuple

from .algebra import Algebra, Bimodule, LinearMap, _extension_table, _product, _sum_sparse
from .linalg import (Matrix, SparseMatrix, Subspace, Vector, _dense, _integer_row,
                     _kernel_vectors, _over, _rejected, coordinates)
from .reports import ConditionReport, require


class ModuleExtension:
    """The algebra T(A,U), with the coordinate maps ``pair`` and ``split``."""

    def __init__(self, base: Algebra, module: Bimodule):
        if module.algebra is not base:
            raise ValueError("module is not over the given base algebra")
        self.base = base
        self.module = module
        mul = _extension_table(base.mul_table, module.left_table, module.right_table)
        names = ["a:%s" % s for s in base.basis_names] + [
            "u:%s" % s for s in module.basis_names
        ]
        # associative because A is and U is an A-bimodule
        self.total = Algebra(mul, basis_names=names, _skip_check=True)

    @property
    def base_dim(self) -> int:
        return self.base.dim

    @property
    def module_dim(self) -> int:
        return self.module.dim

    def pair(self, a: Vector, u: Vector) -> Vector:
        """Total coordinates of (a, u)."""
        return (_dense(coordinates(self.base_dim, a), self.base_dim)
                + _dense(coordinates(self.module_dim, u), self.module_dim))

    def split(self, x: Vector) -> Tuple[Vector, Vector]:
        """The components (a, u) of total coordinates."""
        x = _dense(coordinates(self.total.dim, x), self.total.dim)
        return x[:self.base_dim], x[self.base_dim:]

    def __repr__(self):
        return "ModuleExtension(A dim=%d, U dim=%d)" % (
            self.base_dim,
            self.module_dim,
        )


def trivial_extension(a: Algebra, u: Bimodule) -> ModuleExtension:
    """Build T(A,U) from a validated algebra and bimodule."""
    return ModuleExtension(a, u)


def norm_l1(coords: Vector) -> Fraction:
    """Coordinate l1 norm; on T(A,U) it equals ||a|| + ||u|| exactly.  No
    carrier, so coords is read by ``coordinates`` at its own length."""
    return sum(map(abs, coordinates(len(coords), coords).values()), Fraction(0))


def submultiplicativity_constant(a: Algebra) -> Fraction:
    """Least C with ||xy|| <= C ||x|| ||y|| for the coordinate l1 norm.

    C = max over basis pairs (i,j) of sum_k |c[i][j][k]|; the maximum is
    attained at some basis pair, so the bound is sharp.
    """
    return max((sum((abs(c) for _, c in entries), Fraction(0))
                for plane in a.mul_table for entries in plane), default=Fraction(0))


def ideal_check(a: Algebra, s: Subspace) -> ConditionReport:
    """Is the subspace a two-sided ideal?  A.s and s.A checked on basis
    generators, with the escaping product as witness.  The products are
    formed in integers from the sparse table, on the basis rows times
    their denominators, up to the first that escapes.  A product lies in s
    iff it has zero product with every vector of the integer kernel of
    those rows, the check that certifies each ``nullspace``; the witness
    is the first product that does not, i first, divided by A's
    denominator times the row's."""
    if s.ambient_dim != a.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    rep = ConditionReport("two-sided ideal")
    den, table = a.integer_table
    rows = [_integer_row(w.items()) for w in s.rows]
    kernel = _kernel_vectors(s.pivots, s.rows, a.dim)
    # a product's absolute sum is at most w's times the largest of some e_j e_k
    bits = (max((sum(abs(c) for _, c in e) for plane in table for e in plane), default=0)
            * max((sum(map(abs, row.values())) for _, row in rows), default=0)).bit_length()
    cells = list(product(range(a.dim), zip(s.rows, rows)))
    for name, left in (("A.s in s", True), ("s.A in s", False)):
        prods = (_product(table, {i: 1}, row) if left else _product(table, row, {i: 1})
                 for i, (_, (_, row)) in cells)
        rep.first(name, (((i,), _dense(w, a.dim), _over(_dense(prod, a.dim), den * wden))
                         for r, prod in _rejected(prods, kernel, bits)
                         for i, (w, (wden, _)) in [cells[r]]))
    return rep


def quotient_algebra(a: Algebra, ideal: Subspace) -> Tuple[Algebra, Matrix]:
    """The algebra A/I with its (dim A/I x dim A) projection matrix, on the
    basis of ``quotient_bimodule``."""
    complement, quotient, proj = _quotient(a, ideal)
    # (e_c + I)(e_d + I) is e_c acting on the bimodule A/I, c in the complement
    mul = [quotient.left_table[c] for c in complement]
    return Algebra(mul, basis_names=quotient.basis_names, _skip_check=True), proj.matrix


def quotient_bimodule(a: Algebra, ideal: Subspace) -> Tuple[Bimodule, LinearMap]:
    """The A-bimodule A/I with its canonical projection.  A/I has the basis
    e_c + I for the non-pivot columns c of I's echelon basis (pivot-greedy,
    so reproducible bit for bit); the projection's rows in it are that
    basis's complement rows."""
    return _quotient(a, ideal)[1:]


def _quotient(a: Algebra, ideal: Subspace) -> Tuple[List[int], Bimodule, LinearMap]:
    """The coset columns of quotient_bimodule, A/I and the projection."""
    require(ideal_check(a, ideal), "subspace is not a two-sided ideal")
    m = a.dim
    rows = {v[0][0]: {k: Fraction(x, v[0][1]) for k, x in v}  # the projection's rows
            for v in _kernel_vectors(ideal.pivots, ideal.rows, m).data}
    complement = list(rows)
    images = [dict(col) for col in SparseMatrix(len(rows), m, [
        row.items() for row in rows.values()]).transpose().data]  # and its columns
    # e_i e_c + I: the constants of e_i e_c pushed through the projection
    push = lambda entries: sorted(_sum_sparse(entries, images).items())
    left = [[push(a.mul_table[i][c]) for c in complement] for i in range(m)]
    right = [[push(a.mul_table[c][i]) for i in range(m)] for c in complement]
    names = [a.basis_names[c] + "+I" for c in complement]
    quotient = Bimodule(a, left, right, basis_names=names, _skip_check=True)
    return complement, quotient, LinearMap._from_columns(a.self_bimodule(), quotient, images)
