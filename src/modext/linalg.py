"""Exact linear algebra over the rationals: ``fractions.Fraction`` and
Python ints, no floats, no tolerances.

Vectors are dense lists at the boundary, and ``Matrix`` is the dense
boundary record of a map: it does no arithmetic but ``+``.  Every
vector a caller hands the package is read once, by ``coordinates``: its
length checked, its entries coerced by ``frac``, its nonzeros
{index: Fraction} handed on.  ``Subspace(n, vectors)`` spans what it
reads; ``solve`` takes its right side as those nonzeros {row: value}
and augments only their rows.  The systems solved are very sparse, so
there is one elimination loop, ``_echelon``, on sparse rows: a
``Matrix`` hands it ``enumerate`` of each row, a ``SparseMatrix`` its
stored nonzeros.  The package builds sparse rows only: the Leibniz
rows, the inner map's tagged ad columns (``derivations._inner``), and,
each reduced by ``_cancel``, the word span of ``derivations.generators``,
the words of ``derivations.LeibnizSystem``, with their tags, and the
tagged powers of ``analysis.min_poly``.  Each row is read once as a
primitive integer row, first entry positive, and empty and repeated
rows are dropped (the Leibniz system of T(M3, M3) has 641 rows, 123 of
them distinct).  The loop pivots left to right, each column in turn on
its sparsest live row, and cancels by ``a*row - b*pivot`` with a, b
reduced by their gcd, the row kept primitive (Bareiss, Math. Comp. 22,
1968), in place, in the loop's own copy of the rows.

``nullspace`` eliminates the ``cols`` sparsest distinct rows, as
``rref``, ``rank``, ``solve`` and ``Subspace`` eliminate theirs, and
keeps their Gauss-Jordan rows in integers.  It certifies the kernel
read off those rows by a zero integer residual on every distinct row
(Dixon, Numer. Math. 40, 1982); a rejected row's remainder against them
becomes a new pivot row.  The certificate packs the kernel vectors'
entries at a column into one int, vector j in signed slot j of S bits
(Kronecker substitution): S = the bits of the largest sum of a row's
absolute values + those of the largest vector entry + 2.  Each slot of
a row's packed sum then lies below 2^(S-2) in absolute value, so the
highest nonzero slot outweighs all below it, and the sum is 0 exactly
when every slot is.  Rationals come back only at the end of ``_rref``,
one division per entry by its row's pivot.  The reduced row echelon
form is unique, so the rows and pivot order the kernel picks never
show: every canonical basis is the one plain Gauss-Jordan gives, and
its free columns give its complement, a kernel basis
(``_kernel_vectors``).  A ``Subspace`` keeps only its
sparse RREF rows, as ``_rref`` returns them.
"""

from __future__ import annotations

from collections import abc, defaultdict
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

Vector = list  # list[Fraction]

_ZERO = Fraction(0)  # the one zero that zero_vec shares, skipped by identity


def frac(x) -> Fraction:
    """Coerce ints / strings / Fractions to Fraction; a float raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("%r is a float; give an int, a Fraction or a rational string" % x)
    return Fraction(x)


def coordinates(n: int, x) -> dict:
    """The nonzero coordinates {index: Fraction} of a caller's vector x of
    length n, each entry coerced by ``frac``; a string, bytes or a mapping,
    whose characters or keys would be read as entries, raises TypeError."""
    if isinstance(x, (str, bytes, abc.Mapping)):
        raise TypeError("a vector is a sequence of entries, not a %s" % type(x).__name__)
    if len(x) != n:
        raise ValueError("coordinate vector has length %d, expected %d" % (len(x), n))
    return {i: c for i, c in enumerate(map(frac, x)) if c}


def zero_vec(n: int) -> Vector:
    return [_ZERO] * n


def unit_vec(n: int, i: int) -> Vector:
    v = zero_vec(n)
    v[i] = Fraction(1)
    return v


class Matrix:
    """The dense boundary record: a rational matrix, row-major, immutable
    by convention, as io, ``LinearMap`` and ``rref`` hand it over."""

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
        return cls(rows, cols, [zero_vec(cols) for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [unit_vec(n, i) for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(
            self.rows,
            self.cols,
            [[x + y for x, y in zip(a, b)] for a, b in zip(self.data, other.data)],
        )

    def pairs(self):
        """Each row as (column, value) pairs, the form ``_echelon`` reads."""
        return map(enumerate, self.data)

    def __repr__(self):
        return "Matrix(%d, %d, %r)" % (self.rows, self.cols, self.data)


class SparseMatrix(NamedTuple):
    """A matrix kept as its rows of (column, value) pairs, zeros left out."""

    rows: int
    cols: int
    data: list

    def pairs(self):
        return self.data

    def transpose(self) -> "SparseMatrix":
        out = [[] for _ in range(self.cols)]
        for r, row in enumerate(self.data):
            for c, x in row:
                out[c].append((r, x))
        return SparseMatrix(self.cols, self.rows, out)


class RrefResult(NamedTuple):
    reduced: Matrix
    pivots: list
    rank: int


def _integer_row(pairs: Iterable) -> tuple:
    """(den, {index: int}): one common denominator of the nonzero values
    of (index, value) pairs, and those values times it; (1, the values as
    they are) if all are ints."""
    row = {c: x for c, x in pairs if x is not _ZERO and x}
    if all(type(x) is int for x in row.values()):
        return 1, row
    den = lcm(*{x.denominator for x in row.values()})
    return den, {c: x.numerator * (den // x.denominator) for c, x in row.items()}


def _over(ints: Iterable[int], den: int) -> Vector:
    """The ints divided by den, as exact coordinates; a zero stays the
    shared zero."""
    return [Fraction(x, den) if x else _ZERO for x in ints]


def _distinct_rows(data: Iterable[Iterable]) -> list:
    """Primitive integer rows {column: int}, positive in their first
    column: one per nonzero row of data (rows of (column, value) pairs) up
    to a rational factor, in order of first appearance."""
    distinct = {}
    for row in filter(None, data):  # an empty sparse row has no pairs
        _, out = _integer_row(row)
        if out:
            g = gcd(*out.values()) * (1 if out[min(out)] > 0 else -1)
            if g != 1:
                out = {c: x // g for c, x in out.items()}
            distinct.setdefault(frozenset(out.items()), out)
    return list(distinct.values())


def _cancel(row: dict, prow: dict, c: int):
    """row <- primitive a*row - b*prow in place, with a, b chosen to clear
    column c: (the columns that became nonzero, the columns that became
    zero)."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    if a != 1:
        for k, x in row.items():
            row[k] = a * x
    gained, lost = [], []
    for k, y in prow.items():
        if k not in row:
            row[k] = -b * y
            gained.append(k)
        elif x := row[k] - b * y:
            row[k] = x
        else:
            del row[k]
            lost.append(k)
    if (g := gcd(*row.values())) > 1:
        for k, x in row.items():
            row[k] = x // g
    return gained, lost


def _echelon(rows: list):
    """Forward elimination, left to right: (pivots, done).  Each column
    in turn that a live row meets is pivots[j]: its live row with the
    fewest nonzeros, lowest index on ties, clears it from the other live
    rows by ``_cancel`` and ends as done[j].  The rows handed in stay as
    they are: the loop cancels in a copy.  Only the columns the rows touch
    are indexed: a cancel moves nonzeros among those columns only."""
    rows = [dict(row) for row in rows]
    where = defaultdict(set)  # touched column -> live rows nonzero there
    for i, row in enumerate(rows):
        for c in row:
            where[c].add(i)
    pivots, done = [], []
    for c in sorted(where):
        if not where[c]:
            continue
        p = min(where[c], key=lambda i: (len(rows[i]), i))
        prow, rows[p] = rows[p], {}
        for k in prow:
            where[k].discard(p)
        live, where[c] = where[c], set()  # every live row leaves column c
        for i in live:
            gained, lost = _cancel(rows[i], prow, c)
            for k in lost:
                where[k].discard(i)
            for k in gained:
                where[k].add(i)
        pivots.append(c)
        done.append(prow)
    return pivots, done


def _extend(pivots: list, done: list, rows: list, cols: int) -> int:
    """Grow integer Gauss-Jordan rows done (each nonzero at its own pivot
    only) and their pivots in place by the rows' remainders against done,
    eliminated by ``_echelon``: the number of pivots added."""
    at, start = dict(zip(pivots, done)), len(done)
    if at:
        rows = [dict(row) for row in rows]
        for row in rows:
            for c in [c for c in row if c in at]:
                _cancel(row, at[c], c)
    new, rows = _echelon(rows)
    pivots += new
    done += rows
    holders = SparseMatrix(len(done), cols, [row.items() for row in done]).transpose().data
    for j in range(len(done) - 1, start - 1, -1):  # adds free columns only
        for i, _ in holders[pivots[j]]:
            if i != j:
                _cancel(done[i], done[j], pivots[j])
    return len(new)


def _rref(rows: list, cols: int):
    """Pivot columns and rows {column: Fraction} of the RREF of integer
    rows, left to right: ``_extend``'s rows over their pivot entries."""
    pivots, done = [], []
    _extend(pivots, done, rows, cols)
    return pivots, [{k: Fraction(x, row[c]) for k, x in row.items()}
                    for c, row in zip(pivots, done)]


def _dense(row: dict, cols: int) -> Vector:
    out = zero_vec(cols)
    for c, x in row.items():
        out[c] = x
    return out


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form, with pivot columns and rank."""
    pivots, rows = _rref(_distinct_rows(m.pairs()), m.cols)
    dense = [_dense(row, m.cols) for row in rows]
    dense += [zero_vec(m.cols) for _ in range(m.rows - len(rows))]
    return RrefResult(Matrix(m.rows, m.cols, dense), pivots, len(pivots))


def rank(m: Matrix) -> int:
    return len(_echelon(_distinct_rows(m.pairs()))[0])


def _kernel_vectors(pivots: list, rows: list, cols: int) -> SparseMatrix:
    """Primitive integer vectors spanning the kernel of Gauss-Jordan rows
    {column: value}, read by ``_integer_row``: for each free column f in
    turn, l e_f minus l/d times each row's f entry at its pivot, d its
    pivot entry and l the lcm of those d, over its gcd.  Vector f starts
    at (f, x); over x, it is row f of the projection onto the free columns."""
    rows = [_integer_row(row.items())[1] for row in rows]
    ds = [row[p] for p, row in zip(pivots, rows)]
    holders = SparseMatrix(len(rows), cols, [row.items() for row in rows]).transpose().data
    vectors = []
    for f in sorted(set(range(cols)).difference(pivots)):
        l = lcm(*(ds[i] for i, _ in holders[f]))
        v = [(f, l)] + [(pivots[i], -x * (l // ds[i])) for i, x in holders[f]]
        g = gcd(*(x for _, x in v))
        vectors.append([(k, x // g) for k, x in v])
    return SparseMatrix(len(vectors), cols, vectors)


def _packed(lists: Iterable, width: int) -> list:
    """Each list of (slot, int) pairs as one int, the int at slot k times
    2^(width k): signed slots of width bits (Kronecker substitution)."""
    return [sum(x << width * k for k, x in pairs) if pairs else 0 for pairs in lists]


def _rejected(rows: Iterable, vectors: SparseMatrix, bits: int):
    """(index, row) for each integer row {column: int}, the absolute values
    of its entries summing below 2^bits, with a nonzero product with some
    integer row of vectors: in order, lazily, each a packed sum over the
    row's nonzeros (see the module docstring)."""
    width = bits + 2 + max((abs(x).bit_length() for row in vectors.data for _, x in row),
                           default=0)
    packed = _packed(vectors.transpose().data, width)
    for i, row in enumerate(rows):
        total = 0
        for c, a in row.items():
            total += a * packed[c]
        if total:
            yield i, row


def nullspace(m) -> "Subspace":
    """Canonical basis of the right kernel {x : m x = 0} of a Matrix or
    SparseMatrix.

    The kernel of the m.cols sparsest distinct rows holds ker m; it is
    returned once every distinct row has zero product with it, in
    integers.  The rows it rejects extend the eliminated ones; if they add
    no pivot, it was wrong.
    """
    rows = _distinct_rows(m.pairs())
    bits = max((sum(map(abs, row.values())) for row in rows), default=0).bit_length()
    pivots, done, new = [], [], sorted(rows, key=len)[: m.cols]
    while True:
        if not _extend(pivots, done, new, m.cols) and new:
            raise AssertionError("nullspace vector has a nonzero residual")
        kernel = _kernel_vectors(pivots, done, m.cols)
        if not (new := [row for _, row in _rejected(rows, kernel, bits)]):
            return Subspace.row_space(kernel)


def solve(m, b: dict) -> Optional[Vector]:
    """One solution of m x = b (free variables zeroed), or None, for a
    Matrix or SparseMatrix m and the right side's nonzeros b {row: value},
    each coerced by ``frac``; only those rows are augmented."""
    if outside := [r for r in b if type(r) is not int or not 0 <= r < m.rows]:
        raise ValueError("right-hand side rows %r are outside range(%d)" % (outside, m.rows))
    b = {r: frac(x) for r, x in b.items()}
    aug = (chain(row, ((m.cols, b[r]),)) if r in b else row for r, row in enumerate(m.pairs()))
    pivots, rows = _rref(_distinct_rows(aug), m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    x = zero_vec(m.cols)
    for p, row in zip(pivots, rows):
        x[p] = row.get(m.cols, _ZERO)
    return x


class Subspace:
    """Subspace of Q^n, held only as the sparse rows {column: Fraction} of
    its reduced row echelon form and their pivot columns.  The RREF is
    unique, so ``==`` compares rows; membership is a zero product with the
    integer complement rows, the test that certifies each ``nullspace``.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, vectors: Sequence[Vector]):
        """The span of any vectors, each read by ``coordinates``: their
        canonical RREF rows."""
        self.ambient_dim = ambient_dim
        self.pivots, self.rows = _rref(_distinct_rows(
            coordinates(ambient_dim, v).items() for v in vectors), ambient_dim)

    @classmethod
    def row_space(cls, m) -> "Subspace":
        """The span of the rows of a Matrix or SparseMatrix: ``_rref``'s rows."""
        return cls._reduced(m.cols, *_rref(_distinct_rows(m.pairs()), m.cols))

    @classmethod
    def _reduced(cls, ambient_dim: int, pivots: list, rows: list) -> "Subspace":
        """The span of RREF rows {column: Fraction} with these pivots, kept as they are."""
        s = cls.__new__(cls)
        s.ambient_dim, s.pivots, s.rows = ambient_dim, pivots, rows
        return s

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [unit_vec(ambient_dim, i) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    basis = property(lambda self: [_dense(row, self.ambient_dim) for row in self.rows],
                     doc="The rows as dense vectors: a read-only view, built when read.")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def _outside(self, rows: Sequence[dict]):
        """Lazily, the index of each sparse row {column: value} outside the
        subspace: its integer form has a nonzero product with some integer
        complement row (``_kernel_vectors``), tested by ``_rejected``."""
        ints = [_integer_row(row.items())[1] for row in rows]
        bits = max((sum(map(abs, row.values())) for row in ints), default=0).bit_length()
        kernel = _kernel_vectors(self.pivots, self.rows, self.ambient_dim)
        return (i for i, _ in _rejected(ints, kernel, bits))

    def contains_vector(self, v: Vector) -> bool:
        return self.coords_of(v) is not None

    def coords_of(self, v: Vector) -> Optional[Vector]:
        """Coefficients of v in this basis, or None if v is outside; v is
        read once, by ``coordinates``.

        In RREF each basis row is 1 at its own pivot and 0 at the others,
        so the coefficients of a vector in the span are its pivot entries.
        """
        x = coordinates(self.ambient_dim, v)
        if next(self._outside([x]), None) is not None:
            return None
        return [x.get(p, _ZERO) for p in self.pivots]

    def contains(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return next(self._outside(other.rows), None) is None

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        rows = [row.items() for row in self.rows + other.rows]
        return Subspace.row_space(SparseMatrix(len(rows), self.ambient_dim, rows))

    def intersection(self, other: "Subspace") -> "Subspace":
        """S ∩ T = (S^⊥ + T^⊥)^⊥: the kernel of both complements' integer rows."""
        self._same_ambient(other)
        n = self.ambient_dim
        rows = [row for s in (self, other) for row in _kernel_vectors(s.pivots, s.rows, n).data]
        return nullspace(SparseMatrix(len(rows), n, rows))

    def _same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)
