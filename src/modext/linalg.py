"""Exact dense linear algebra over the rationals.

Everything here is built on ``fractions.Fraction``: no floats, no
tolerances.  Matrices are small and dense (target dimensions are in the
low tens), so plain Gauss-Jordan elimination is all we need.  All
canonical forms are reduced row echelon, so equal objects compare equal
entry by entry.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

Vector = list  # list[Fraction]


def frac(x) -> Fraction:
    """Coerce ints / strings / Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vector:
    return [frac(x) for x in entries]


def zero_vec(n: int) -> Vector:
    return [Fraction(0)] * n


def unit_vec(n: int, i: int) -> Vector:
    v = zero_vec(n)
    v[i] = Fraction(1)
    return v


def vec_add(u: Vector, v: Vector) -> Vector:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Vector, v: Vector) -> Vector:
    return [a - b for a, b in zip(u, v)]


def vec_scale(c, v: Vector) -> Vector:
    c = frac(c)
    return [c * a for a in v]


def is_zero_vec(v: Vector) -> bool:
    return all(a == 0 for a in v)


class Matrix:
    """Dense rational matrix, row-major, immutable by convention."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("matrix data does not match declared shape")
        self.rows = rows
        self.cols = cols
        self.data = [[frac(x) for x in row] for row in data]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self.data))))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            [vec_add(a, b) for a, b in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            [vec_sub(a, b) for a, b in zip(self.data, other.data)],
        )

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        return Matrix(self.rows, self.cols, [vec_scale(c, r) for r in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = Matrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            for k, a in enumerate(row):
                if a == 0:
                    continue
                orow = other.data[k]
                dst = out.data[i]
                for j in range(other.cols):
                    dst[j] += a * orow[j]
        return out

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return [
            sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in self.data
        ]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def row(self, i: int) -> Vector:
        return list(self.data[i])

    def col(self, j: int) -> Vector:
        return [self.data[i][j] for i in range(self.rows)]

    def flatten(self) -> Vector:
        """Row-major entry vector."""
        return [x for row in self.data for x in row]

    @classmethod
    def unflatten(cls, rows: int, cols: int, entries: Sequence) -> "Matrix":
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        return cls(
            rows, cols, [entries[i * cols : (i + 1) * cols] for i in range(rows)]
        )

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.data)

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        return "Matrix(%d, %d, %r)" % (self.rows, self.cols, self.data)


class RrefResult(NamedTuple):
    reduced: Matrix
    pivots: list
    rank: int


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form, with pivot columns and rank."""
    a = [list(row) for row in m.data]
    rows, cols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return RrefResult(Matrix(rows, cols, a), pivots, len(pivots))


def rank(m: Matrix) -> int:
    return rref(m).rank


def nullspace(m: Matrix) -> "Subspace":
    """Canonical basis of the right kernel {x : m x = 0}."""
    red, pivots, rk = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = zero_vec(m.cols)
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red.data[r][f]
        basis.append(v)
    return Subspace.from_vectors(m.cols, basis)


def solve(m: Matrix, b: Vector) -> Optional[Vector]:
    """One solution of m x = b (free variables zeroed), or None."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    aug = Matrix(m.rows, m.cols + 1, [row + [bi] for row, bi in zip(m.data, b)])
    red, pivots, rk = rref(aug)
    if m.cols in pivots:
        return None
    x = zero_vec(m.cols)
    for r, p in enumerate(pivots):
        x[p] = red.data[r][m.cols]
    return x


class Subspace:
    """Subspace of Q^n with a canonical (reduced echelon) basis.

    The basis is stored as the nonzero rows of the RREF of the spanning
    vectors, so two equal subspaces have identical representations and
    ``==`` is entrywise comparison.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Sequence[Vector]):
        self.ambient_dim = ambient_dim
        self.basis = [list(v) for v in basis]
        # the pivot column of each basis row
        self.pivots = [next(i for i, x in enumerate(v) if x != 0) for v in self.basis]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Vector]) -> "Subspace":
        vectors = [vec(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        if not vectors:
            return cls(ambient_dim, [])
        red, pivots, rk = rref(Matrix.from_rows(vectors))
        return cls(ambient_dim, [red.row(i) for i in range(rk)])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(
            ambient_dim, [unit_vec(ambient_dim, i) for i in range(ambient_dim)]
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(map(tuple, self.basis))))

    def contains_vector(self, v: Vector) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return is_zero_vec(self.reduce(v))

    def reduce(self, v: Vector) -> Vector:
        """Residue of v after subtracting its projection onto the basis.

        Because the basis is in RREF, zeroing each pivot coordinate in
        turn yields the canonical coset representative.
        """
        v = list(v)
        for p, row in zip(self.pivots, self.basis):
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def coords_of(self, v: Vector) -> Optional[Vector]:
        """Coefficients of v in this basis, or None if v is outside.

        In RREF each basis row is 1 at its own pivot and 0 at the others,
        so the coefficients of a vector in the span are its pivot entries.
        """
        if not self.contains_vector(v):
            return None
        return [frac(v[p]) for p in self.pivots]

    def contains(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(self.contains_vector(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace.from_vectors(self.ambient_dim, self.basis + other.basis)

    def intersection(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # x in both spaces: x = A^T s = B^T t; kernel of [A^T | -B^T].
        at = Matrix.from_rows(self.basis).transpose()
        bt = Matrix.from_rows(other.basis).transpose()
        stacked = Matrix(
            self.ambient_dim,
            self.dim + other.dim,
            [at.data[i] + [-x for x in bt.data[i]] for i in range(self.ambient_dim)],
        )
        ker = nullspace(stacked)
        vectors = [at.apply(k[: self.dim]) for k in ker.basis]
        return Subspace.from_vectors(self.ambient_dim, vectors)

    def _same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)
