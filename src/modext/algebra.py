"""Structure-constant algebras, bimodules, and maps between them.

An algebra is given by a rank-3 rational tensor ``mul`` on a chosen
basis: e_i e_j = sum_k mul[i][j][k] e_k.  A bimodule over it carries two
such tensors for the left and right actions.  The constructors store
each only as a sparse table [i][j] -> [(k, c)] of its nonzero constants,
in ascending k (an int 0 skipped, any other entry coerced by ``frac``),
which products, actions and axiom checks read; ``mul_tensor``, ``left``
and ``right`` are dense views built when read.
They verify associativity and the bimodule axioms eagerly, so any
constructed value is a genuine algebra / bimodule; a violation raises
ValidationError with the report.  The four identities are associativity
of one table, evaluated by ``_associativity_failures``: A's, or T(A,U)'s
at the triples with one index in U, where it is the bimodule axioms.
Structures derived from validated parts (T(A,U), the unitization, direct
sums, A/I, the corner A p) hold their axioms by construction; their
builders hand in tables with the private ``_skip_check`` instead of
verifying them again.

A caller's coordinate vector is read once, by ``linalg.coordinates`` at
its carrier's dimension: length checked, entries coerced by ``frac``,
nonzeros handed on.  A ``LinearMap`` is held as its sparse columns and
applied by summing them over those nonzeros; ``derivations._ad_columns``
holds the inner map as its ad columns.  ``Algebra.unit`` hands ``solve``
only the 2 dim nonzeros of its right side.

Identities are checked in integers: each structure keeps its sparse
tables times one common denominator of the constants
(``integer_table``, ``integer_tables``), built with the structure, next
to the rational tables and before the axiom check reads them.  An identity
homogeneous in the constants and in the map it checks holds on those
integer tables, with the map scaled to integers, exactly when on the
rational ones.  Each check sums the two sides once, in integers; a
failing check's witness is those integer sides divided by the scale the
check already knows (den^2 for the axioms, the tables' denominator
times the map's, and so on), so no identity is evaluated twice.  A
bimodule acting by its algebra's own table, as the self-bimodule does,
takes that table's integers instead of scaling it again.  The axiom
checks pack one table, A's or T(A,U)'s, each product vector into one
int, coordinate k in signed slot k of S bits (Kronecker substitution), S
= twice the bits of the largest constant + bit_length(the most constants
at one pair) + 2: each side's slots lie below 2^(S-2) in absolute value,
so two packed sides are equal exactly when every slot is.  A failing
triple's sides are unpacked for its witness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Optional, Sequence, Union

from .linalg import (
    Matrix,
    SparseMatrix,
    Subspace,
    Vector,
    _dense,
    _over,
    _packed,
    coordinates,
    frac,
    nullspace,
    solve,
    zero_vec,
)
from .reports import ConditionReport

_UNSOLVED = object()  # Algebra.unit before its first solve


class ValidationError(ValueError):
    """Raised when a structure-constant tensor violates an axiom."""

    def __init__(self, report: ConditionReport):
        self.report = report
        first = report.failures()[0] if report.failures() else None
        msg = report.title
        if first is not None:
            msg += ": %s witness=%r" % (first.name, first.witness)
        super().__init__(msg)


def _table(t, d1: int, d2: int, d3: int) -> list:
    """The sparse table [i][j] -> [(k, c)] of a d1 x d2 x d3 tensor's
    nonzero constants, each but an int 0 coerced before the zero test."""
    if len(t) != d1 or any(len(plane) != d2 for plane in t):
        raise ValueError("tensor shape mismatch")
    out = []
    for plane in t:
        row = []
        for entry in plane:
            if len(entry) != d3:
                raise ValueError("tensor shape mismatch")
            row.append([(k, c) for k, x in enumerate(entry) if x or type(x) is not int
                        for c in (frac(x),) if c])
        out.append(row)
    return out


def _view(table: str) -> property:
    """A read-only dense view of the named sparse table, built when read."""
    return property(lambda self: [[_dense(dict(entries), self.dim) for entries in plane]
                                  for plane in getattr(self, table)])


def _product(table, x: dict, y: dict) -> dict:
    """x y for sparse coordinates {index: value}, summed over the nonzero
    entries of x and y and the constants of the sparse table only."""
    out = {}
    for i, xi in x.items():
        plane = table[i]
        for j, yj in y.items():
            if entries := plane[j]:
                xy = xi * yj
                for k, c in entries:
                    out[k] = out.get(k, 0) + xy * c
    return {k: v for k, v in out.items() if v}


def _integer_tables(*tables) -> tuple:
    """(den, tables): one common denominator of the sparse tables'
    constants, and the tables times it.  An identity homogeneous in the
    constants, as each axiom and the Leibniz identity are, holds on these
    integer tables exactly when on the rational ones."""
    den = lcm(*(c.denominator for table in tables for plane in table
                for entries in plane for _, c in entries))
    return den, tuple([[[(k, c.numerator * (den // c.denominator)) for k, c in entries]
                        for entries in plane] for plane in table] for table in tables)


def _packed_table(table) -> tuple:
    """(S, the integer table with each pair's product vector packed in
    slots of S bits), S as the module docstring gives it."""
    entries = [entries for plane in table for entries in plane]
    bits = max((abs(c).bit_length() for e in entries for _, c in e), default=0)
    width = 2 * bits + max(map(len, entries), default=0).bit_length() + 2
    return width, [_packed(plane, width) for plane in table]


def _unpacked(x: int, width: int, dim: int) -> list:
    """The dim signed slots of a packed int, lowest first."""
    half = 1 << width - 1
    x += sum(half << width * k for k in range(dim))  # each slot now in [0, 2^width)
    return [(x >> width * k) % (half << 1) - half for k in range(dim)]


def _associativity_failures(den: int, table, triples):
    """((i, j, k), (e_i e_j) e_k, e_i (e_j e_k)) for each triple whose sides
    differ, in order, lazily, on an integer table times den: each side
    summed as a packed int, one multiply-add per constant of an inner
    product, and a failing triple's sides unpacked and divided by den^2."""
    width, packed = _packed_table(table)
    for i, j, k in triples:
        lhs = rhs = 0
        for s, c in table[i][j]:
            lhs += c * packed[s][k]
        for s, c in table[j][k]:
            rhs += c * packed[i][s]
        if lhs != rhs:
            yield (i, j, k), *(_over(_unpacked(x, width, len(table)), den * den)
                               for x in (lhs, rhs))


def _sum_sparse(terms, vectors) -> dict:
    """sum w vectors[k] over the (k, w) pairs, for sparse vectors {index: value}."""
    out = {}
    for k, w in terms:
        for r, x in vectors[k].items():
            out[r] = out.get(r, 0) + w * x
    return {r: x for r, x in out.items() if x}


def _columns(entries: dict, cols: int) -> list:
    """The nonzero entries {row * cols + column: value} of a flattened
    matrix as its columns {row: value}."""
    out = [{} for _ in range(cols)]
    for col, x in entries.items():
        t, s = divmod(col, cols)
        out[s][t] = x
    return out


def _sides(shape, dcols: list, ncols: list, tables) -> tuple:
    """(lhs, rhs) of an identity at each (i, j, k), flat at (i * q + j) * n
    + k for shape (p, q, n): lhs sum_s P[i][j][s] D[k][s], rhs sum_t
    L[i][t][k] N[t][j] + sum_t R[t][j][k] N[t][i].  Summed over the
    constants of the sparse tables (P, L, R), L or R None to leave its sum
    out, and over the nonzero entries of D and N only, given as their
    columns {row: value} dcols and ncols."""
    p, q, n = shape
    mul, left, right = tables
    lhs, rhs = [0] * (p * q * n), [0] * (p * q * n)
    for i, j in product(range(p), range(q)):
        base = (i * q + j) * n
        for s, c in mul[i][j]:
            for k, x in dcols[s].items():
                lhs[base + k] += c * x
    if left:  # per t, the nonzero L[i][t] with their offsets i * q * n
        lefts = [[(i * q * n, plane[t]) for i, plane in enumerate(left) if plane[t]]
                 for t in range(len(left[0]))]
        for j, col in enumerate(ncols):
            for t, x in col.items():
                for off, entries in lefts[t]:
                    for k, c in entries:
                        rhs[off + j * n + k] += c * x
    if right:  # per t, the nonzero R[t][j] with their offsets j * n
        rights = [[(j * n, entries) for j, entries in enumerate(plane) if entries]
                  for plane in right]
        for i, col in enumerate(ncols):
            for t, x in col.items():
                for off, entries in rights[t]:
                    for k, c in entries:
                        rhs[i * q * n + off + k] += c * x
    return lhs, rhs


def _failures(sides, cells, width: int, scale: int):
    """(pair, lhs, rhs) for each (pair, offset) of cells, in order, at which
    the integer sides differ in their slices [offset, offset + width);
    both slices divided by scale, the factor the integers carry."""
    lhs, rhs = sides
    for pair, k in cells if lhs != rhs else ():
        if lhs[k:k + width] != rhs[k:k + width]:
            yield pair, _over(lhs[k:k + width], scale), _over(rhs[k:k + width], scale)


def block_table(dim: int, blocks) -> list:
    """A dim x dim sparse table, empty but for blocks (table, (p, q, r)):
    each table's constant (i, j) -> (k, c) lands at (p + i, q + j) ->
    (r + k, c).  The blocks fill disjoint cells."""
    out = [[[] for _ in range(dim)] for _ in range(dim)]
    for table, (p, q, r) in blocks:
        for i, plane in enumerate(table):
            row = out[p + i]
            for j, entries in enumerate(plane):
                row[q + j] = [(r + k, c) for k, c in entries]
    return out


def _extension_table(mul, left, right) -> list:
    """T(A,U)'s table from A's and U's action tables: A's coordinates, then
    U's, (e_i, 0)(0, u_j) = (0, e_i u_j) and (0, u_j)(e_i, 0) = (0, u_j e_i)."""
    m = len(mul)
    return block_table(m + len(right), [(mul, (0, 0, 0)), (left, (0, m, m)), (right, (m, 0, m))])


def _names(basis_names, dim: int, prefix: str) -> list:
    """The given basis names, one per dimension, or prefix0, prefix1, ..."""
    if basis_names is None:
        return ["%s%d" % (prefix, i) for i in range(dim)]
    names = list(basis_names)
    if len(names) != dim:
        raise ValueError("basis name count does not match dimension")
    return names


class Algebra:
    """Finite-dimensional associative algebra over Q."""

    def __init__(self, mul, basis_names: Optional[Sequence[str]] = None,
                 _skip_check=False):
        dim = len(mul)
        self.dim = dim
        self.mul_table = mul if _skip_check else _table(mul, dim, dim, dim)
        self.basis_names = _names(basis_names, dim, "e")
        den, (table,) = _integer_tables(self.mul_table)
        self.integer_table = den, table  # mul_table times one common denominator
        if not _skip_check:
            report = self.associativity_report()
            if not report.passed:
                raise ValidationError(report)
        self._unit = _UNSOLVED  # the unit's coordinates or None, once solved
        self._self_bimodule = None

    mul_tensor = _view("mul_table")

    def associativity_report(self) -> ConditionReport:
        n = self.dim
        failures = _associativity_failures(*self.integer_table, product(range(n), repeat=3))
        return ConditionReport("associativity").first(
            "associativity", failures, note="%d identities hold" % n**3)

    def mul_basis(self, i: int, j: int) -> Vector:
        return _dense(dict(self.mul_table[i][j]), self.dim)

    def mul_vec(self, x: Vector, y: Vector) -> Vector:
        return _dense(_product(self.mul_table, coordinates(self.dim, x),
                               coordinates(self.dim, y)), self.dim)

    def self_bimodule(self) -> "Bimodule":
        """A as a bimodule over itself via the algebra product; built once,
        on the product's own table."""
        if self._self_bimodule is None:
            t = self.mul_table
            self._self_bimodule = Bimodule(self, t, t, self.basis_names, _skip_check=True)
        return self._self_bimodule

    def unit(self) -> Optional[Vector]:
        """Coordinates of the two-sided unit, or None.

        Solves e e_i = e_i = e_i e for all i; a unit is unique when it
        exists.  Cached after the first computation.
        """
        if self._unit is _UNSOLVED:
            n = self.dim
            # rows 2(i n + k) and 2(i n + k) + 1, (x e_i, e_i x) at coordinate k, equal delta_{ik}
            self._unit = solve(_action_rows(self.self_bimodule()),
                               {2 * (n + 1) * i + side: 1 for i in range(n) for side in (0, 1)})
        return None if self._unit is None else list(self._unit)

    def __repr__(self):
        return "Algebra(dim=%d)" % self.dim


class Bimodule:
    """Bimodule over an Algebra, given by left/right action tensors.

    left[i][j][k]:  e_i . u_j = sum_k left[i][j][k] u_k
    right[j][i][k]: u_j . e_i = sum_k right[j][i][k] u_k
    """

    def __init__(self, algebra: Algebra, left, right, basis_names=None, _skip_check=False):
        self.algebra = algebra
        m = algebra.dim
        if len(left) != m:
            raise ValueError("left tensor first axis must match algebra dim")
        dim = len(right)
        self.dim = dim
        self.left_table, self.right_table = (left, right) if _skip_check else (
            _table(left, m, dim, dim), _table(right, dim, m, dim))
        self.basis_names = _names(basis_names, dim, "u")
        # (den, (mul, left, right)): the tables times one common denominator
        if self.left_table is self.right_table is algebra.mul_table:
            den, table = algebra.integer_table  # a self-bimodule shares A's table
            self.integer_tables = den, (table,) * 3
        else:
            self.integer_tables = _integer_tables(algebra.mul_table, self.left_table,
                                                  self.right_table)
        self.report = None  # the axiom report, unless built with _skip_check
        self._ad = None  # the inner map's columns, built by derivations._ad_columns
        self._inner = None  # their elimination, built by derivations._inner
        if not _skip_check:
            self.report = self.axiom_report()
            if not self.report.passed:
                raise ValidationError(self.report)

    left, right = _view("left_table"), _view("right_table")

    def axiom_report(self) -> ConditionReport:
        """Compatibility axioms: (ab)u=a(bu), u(ab)=(ua)b, (au)b=a(ub),
        plus the unit axiom e.u = u.e = u when the algebra is unital.

        Each is associativity of T(A,U)'s integer table, the one table
        packed, at the triples (i, j, u_t), (u_t, i, j) and (i, u_t, j), in
        (i, j, t) order; a witness keeps the sides' U coordinates, swapped
        for u(ab) = (ua)b.
        """
        rep = ConditionReport("bimodule axioms")
        a = self.algebra
        m, n = a.dim, self.dim
        den, tables = self.integer_tables
        triples = (x for i, j, t in product(range(m), range(m), range(m, m + n))
                   for x in ((i, j, t), (t, i, j), (i, t, j)))
        for (i, j, k), lhs, rhs in _associativity_failures(den, _extension_table(*tables), triples):
            name, indices, sides = (
                ("(ab)u = a(bu)", (i, j, k - m), (lhs, rhs)) if k >= m else
                # x(yz) = (xy)z with x = u: the associator's sides swapped
                ("u(ab) = (ua)b", (i - m, j, k), (rhs, lhs)) if i >= m else
                ("(au)b = a(ub)", (i, j - m, k), (lhs, rhs)))
            rep.add(name, False, witness=(indices, *(x[m:] for x in sides)))
            return rep
        rep.add("compatibility", True, note="%d triples checked" % (3 * m * m * n))
        # Unital action is recorded but not required: perfectly good
        # bimodules (e.g. a left ideal with the right action zeroed out)
        # are non-unital on one side even over a unital algebra.
        e = a.unit()
        if e is not None:
            e = coordinates(m, e)
            unital = all(_product(self.left_table, e, {t: 1}) == {t: 1}
                         == _product(self.right_table, {t: 1}, e) for t in range(n))
            rep.add("unit acts as identity", unital, informational=True)
        return rep

    def left_act(self, a: Vector, u: Vector) -> Vector:
        return _dense(_product(self.left_table, coordinates(self.algebra.dim, a),
                               coordinates(self.dim, u)), self.dim)

    def right_act(self, u: Vector, a: Vector) -> Vector:
        return _dense(_product(self.right_table, coordinates(self.dim, u),
                               coordinates(self.algebra.dim, a)), self.dim)

    def __repr__(self):
        return "Bimodule(dim=%d over dim=%d)" % (self.dim, self.algebra.dim)


Carrier = Union[Algebra, Bimodule]


class Element:
    """Coordinate vector tagged with its carrier (algebra or bimodule)."""

    __slots__ = ("carrier", "coords")

    def __init__(self, carrier: Carrier, coords: Vector):
        self.carrier = carrier
        self.coords = _dense(coordinates(carrier.dim, coords), carrier.dim)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.carrier is other.carrier
            and self.coords == other.coords
        )

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self):
        return "Element(%r)" % (self.coords,)


class LinearMap:
    """Exact linear map between carriers, held only as its sparse columns:
    column s is {row: Fraction}, the nonzero coordinates of the image of
    the source's e_s.  ``matrix`` is the (target x source) dense view."""

    __slots__ = ("source", "target", "columns")

    def __init__(self, source: Carrier, target: Carrier, matrix: Matrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("matrix shape does not match carriers")
        self.source = source
        self.target = target
        self.columns = [{r: row[s] for r, row in enumerate(matrix.data) if row[s]}
                        for s in range(matrix.cols)]

    @classmethod
    def _from_columns(cls, source: Carrier, target: Carrier, columns: list) -> "LinearMap":
        """The map with the given columns {row: Fraction}, nonzeros only, kept as they are."""
        f = cls.__new__(cls)
        f.source, f.target, f.columns = source, target, columns
        return f

    @classmethod
    def zero(cls, source: Carrier, target: Carrier) -> "LinearMap":
        return cls._from_columns(source, target, [{} for _ in range(source.dim)])

    @classmethod
    def identity(cls, carrier: Carrier) -> "LinearMap":
        return cls._from_columns(carrier, carrier, [{s: Fraction(1)} for s in range(carrier.dim)])

    @property
    def matrix(self) -> Matrix:
        """The (target x source) dense matrix: a read-only view, built when
        read, row by row from the columns' nonzeros."""
        data = [zero_vec(self.source.dim) for _ in range(self.target.dim)]
        for s, col in enumerate(self.columns):
            for r, x in col.items():
                data[r][s] = x
        return Matrix(self.target.dim, self.source.dim, data)

    def __call__(self, v) -> Vector:
        """The image of v: the columns summed over the nonzeros of v only."""
        return _dense(_sum_sparse(coordinates(self.source.dim, v).items(), self.columns),
                      self.target.dim)

    def _images(self, vectors) -> list:
        """The map applied to each sparse vector {index: value}, over its nonzeros only."""
        return [_sum_sparse(v.items(), self.columns) for v in vectors]

    def _integer_columns(self, *scales: int) -> tuple:
        """(den, [the columns {row: int} times den and each scale]): den one
        common denominator of the entries."""
        den = lcm(*(x.denominator for col in self.columns for x in col.values()))
        return den, [[{r: x.numerator * (den // x.denominator) * k for r, x in col.items()}
                      for col in self.columns] for k in scales]

    def __eq__(self, other):
        return (isinstance(other, LinearMap) and self.target.dim == other.target.dim
                and self.columns == other.columns)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __repr__(self):
        return "LinearMap(%d -> %d)" % (self.source.dim, self.target.dim)


def _action_rows(u: Bimodule) -> SparseMatrix:
    """The linear map x -> (x u_j, u_j x) in the coordinates of x, from the
    sparse action tables: for each j and output coordinate k two rows,
    coordinate k of x u_j, then of u_j x."""
    m, n = u.algebra.dim, u.dim
    rows = [[] for _ in range(2 * n * n)]
    for s in range(m):  # each row's columns come in ascending order
        for j in range(n):
            for k, c in u.left_table[s][j]:
                rows[2 * (j * n + k)].append((s, c))
            for k, c in u.right_table[j][s]:
                rows[2 * (j * n + k) + 1].append((s, c))
    return SparseMatrix(2 * n * n, m, rows)


def annihilator(a: Algebra, u: Bimodule) -> Subspace:
    """ann_A U = {x in A : x U = U x = 0}, as an exact subspace of A."""
    if u.algebra is not a:
        raise ValueError("bimodule is not over the given algebra")
    return nullspace(_action_rows(u))


def is_module_hom(f: LinearMap, side: str = "both") -> ConditionReport:
    """Check the module-homomorphism identities on all basis pairs.

    ``side`` is "left", "right" or "both".  Source and target must be
    bimodules over the same algebra.  The sides f(e_i u_j) and e_i f(u_j),
    or f(u_j e_i) and f(u_j) e_i, are summed in integers at all pairs at
    once over f's nonzero entries: f and each bimodule's tables times their
    own denominators, each side scaled by the other side's.  The witness
    is the first failing pair (i, j) and its integer sides divided by the
    product of the three denominators.
    """
    if side not in ("left", "right", "both"):
        raise ValueError("side must be left, right or both")
    src, tgt = f.source, f.target
    if not isinstance(src, Bimodule) or not isinstance(tgt, Bimodule):
        raise ValueError("is_module_hom requires bimodule source and target")
    if src.algebra is not tgt.algebra:
        raise ValueError("source and target are over different algebras")
    m, p, q = src.algebra.dim, src.dim, tgt.dim
    sden, (_, sl, sr) = src.integer_tables
    tden, (_, tl, tr) = tgt.integer_tables
    fden, (dcols, ncols) = f._integer_columns(tden, sden)
    rep = ConditionReport("module homomorphism (%s)" % side)
    for want in ("left", "right"):
        if side not in ("both", want):
            continue
        left = want == "left"  # the sides at (i, j, k) on the left, (j, i, k) on the right
        sides = (_sides((m, p, q), dcols, ncols, (sl, tl, None)) if left
                 else _sides((p, m, q), dcols, ncols, (sr, None, tr)))
        cells = (((i, j), (i * p + j if left else j * m + i) * q)
                 for i, j in product(range(m), range(p)))
        rep.first("f(au) = a f(u)" if left else "f(ua) = f(u) a",
                  _failures(sides, cells, q, fden * sden * tden))
    return rep
