"""Derivation spaces, solved in D's values on a generating set.

A linear map D: A -> U is a derivation when D(ab) = a D(b) + D(a) b.  A
derivation is fixed by its values on a generating set G of A: if the
words g1(g2(...g_r)) of G span A, D(g w) = g D(w) + D(g) w gives D on
each word.  ``generators`` picks G left to right, each e_j outside the
span over Q of the words so far, that span kept as primitive integer
rows on A's integer table, closed under left multiplication by G; the
pick ends when the words span A.
``LeibnizSystem`` takes the |G| n coordinates of the D(g) as unknowns.
It builds the words breadth first on the module's integer tables, each
D(w) as integer rows over the unknowns, and wherever a product g w is
already in the words' span, the two values of D there must agree: those
are its rows.  Their kernel is Der(A, U): with them, Leibniz holds at
every (g, y), and the x with Leibniz at every (x, y) form a subspace
that holds G and, with x, each g x, since D(gxy) = g D(xy) + D(g) xy =
gx D(y) + D(gx) y by associativity and the bimodule axioms alone.  The
kernel is lifted to D's matrix entries through the system's integer
map, the coordinates of each e_j in the words read once, and the
canonical basis is the RREF of the lifted vectors.  The certificate of a
solve is the words' exact rank m, ``nullspace``'s zero integer residual
on the rows solved, and the lifted rank, equal to the kernel's since the
lift is injective; ``DerivationSpace`` keeps the lifted kernel, not the
system.  ``is_derivation`` and the C1-C6 checker in ``blocks`` check
every pair: they sum the sides D(ab) and a D(b) + D(a) b at all pairs at
once, in integers, one term per nonzero entry of D (scaled by their
common denominator) and constant of the module's integer tables, so they
cost time in proportion to their terms; the witness of a pair whose
sides differ is its integer sides divided by the tables' denominator
times D's.  No check builds the system.  The inner map x -> (a -> a x -
x a) is held as its ad columns (``_ad_columns``), summed on the integer
tables, and eliminated once per U by ``_inner``, for Inn(A, U),
innerness witnesses and H^0(A, U) = {x : a x = x a}, the center for U = A.

The words, the system's rows and its unknowns come in a fixed order, and
D's entries are flattened row-major, so computed bases are canonical.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from typing import List, NamedTuple

from .algebra import (Algebra, Bimodule, LinearMap, _columns, _failures, _product, _sides,
                      _sum_sparse)
from .linalg import (SparseMatrix, Subspace, _cancel, _distinct_rows, _integer_row, _rref,
                     coordinates, nullspace)
from .reports import ConditionReport


def generators(algebra: Algebra) -> list:
    """Indices G, ascending, of basis vectors whose words g1(g2(...g_r))
    span A: e_j joins G when it lies outside the span over Q of the words
    so far, kept as primitive integer rows by leading column, reduced by
    ``_cancel`` and closed under left multiplication by G on the integer
    table."""
    m = algebra.dim
    table = algebra.integer_table[1]
    span, gens = {}, []

    def reduced(v: dict) -> dict:
        while v and (c := min(v)) in span:
            _cancel(v, span[c], c)
        return v

    for j in range(m):
        if len(span) == m:
            break
        if not reduced({j: 1}):
            continue
        gens.append(j)
        todo = [{j: 1}] + [_product(table, {j: 1}, v) for v in span.values()]
        while todo:
            if v := reduced(todo.pop()):
                d = gcd(*v.values())
                span[min(v)] = v = {k: x // d for k, x in v.items()}
                todo += [_product(table, {g: 1}, v) for g in gens]
    return gens


def _failing_pairs(algebra: Algebra, module: Bimodule, d: LinearMap):
    """((i, j), D(e_i e_j), e_i D(e_j) + D(e_i) e_j) for each basis pair
    whose sides differ, in (i, j) order, for the map d = D.

    The two sides are summed in integers at every pair at once: D times
    one common denominator of its entries, on the module's integer
    tables, each term read off one nonzero entry of D and one constant.
    A pair with no term reads 0 = 0.  A failing pair's sides are the
    integer ones divided by the tables' denominator times D's.
    """
    if module.algebra is not algebra:
        raise ValueError("module is not over the given algebra")
    m, n = algebra.dim, module.dim
    dden, (cols,) = d._integer_columns(1)
    tden, tables = module.integer_tables
    cells = (((i, j), (i * m + j) * n) for i, j in product(range(m), repeat=2))
    yield from _failures(_sides((m, m, n), cols, cols, tables), cells, n, tden * dden)


class LeibnizSystem:
    """The derivation identity in D's values on the generators G of A.

    Unknown q * dim U + t is coordinate t of D(e_G[q]).  The words are
    the e_g, g in G, then each product g w_s, in turn, outside the span
    of the words so far, formed on the module's integer tables; D(g w) =
    g D(w) + D(g) w keeps each D(w_s) as dim U integer rows over the
    unknowns.  A product v in that span, c v + sum c_s w_s = 0 by the
    tags its reduction carries, gives the rows c D(v) + sum c_s D(w_s) =
    0, which ``matrix`` holds, empty ones left out.  ``lift`` is the
    integer map, over one denominator, from the unknowns to D's
    flattened entries (column t * dim A + j), {column: int} per unknown:
    e_j read once in the words.
    """

    def __init__(self, algebra: Algebra, module: Bimodule):
        if module.algebra is not algebra:
            raise ValueError("module is not over the given algebra")
        m, n = algebra.dim, module.dim
        mul, left, right = module.integer_tables[1]
        gens = generators(algebra)
        size = len(gens) * n  # D(w) is kept flat, {t * size + unknown: int} for D(w)_t
        words, values, echelon, rows = [], [], {}, []

        def reduced(v: dict, tag: int) -> dict:  # v + e_tag, v's part cancelled by the words
            v = {**v, tag: 1}
            while (c := min(v)) < m and c in echelon:
                _cancel(v, echelon[c], c)
            return v

        def add(v: dict, dv: dict):  # the product v, with D(v) = dv, as a word or as rows
            r = reduced(v, m + len(words))
            values.append(dv)
            if (c := min(r)) < m:
                echelon[c] = r
                words.append(v)
                return
            split = {}
            for key, x in _sum_sparse([(k - m, x) for k, x in r.items()], values).items():
                split.setdefault(key // size, []).append((key % size, x))
            rows.extend(split[t] for t in sorted(split))
            values.pop()

        for q, g in enumerate(gens):
            add({g: 1}, {t * size + q * n + t: 1 for t in range(n)})
        for s, w in enumerate(words):  # words grows as it is read: breadth first
            rights = [(k * size + t, c * x) for t, (j, x) in product(range(n), w.items())
                      for k, c in right[t][j]]  # D(g) w, but for g's offset q n
            entries = [(*divmod(key, size), x) for key, x in values[s].items()]  # (t, unknown, x)
            for q, g in enumerate(gens):  # D(g w) = g D(w) + D(g) w
                dv = {}
                for t, col, x in entries:
                    for k, c in left[g][t]:
                        dv[k * size + col] = dv.get(k * size + col, 0) + c * x
                for key, x in rights:
                    dv[key + q * n] = dv.get(key + q * n, 0) + x
                add(_product(mul, {g: 1}, w), {key: x for key, x in dv.items() if x})
        if len(words) != m:
            raise AssertionError("the words of the generators do not span the algebra")
        coords = [reduced({j: 1}, 2 * m) for j in range(m)]  # a e_j + sum c_s w_s = 0
        den = lcm(*(r[2 * m] for r in coords))
        self.lift = [{} for _ in range(size)]
        for j, r in enumerate(coords):
            scale = -den // r.pop(2 * m)  # den e_j = sum scale c_s w_s
            for key, x in _sum_sparse([(k - m, scale * x) for k, x in r.items()], values).items():
                self.lift[key % size][key // size * m + j] = x
        self.matrix = SparseMatrix(len(rows), size, rows)


class DerivationSpace(NamedTuple):
    """Canonical basis of Der(A, U), with the kernel it was read off."""

    kernel: Subspace
    basis: List[LinearMap]

    @property
    def dim(self) -> int:
        return len(self.basis)


def is_derivation(a: Algebra, u: Bimodule, f: LinearMap) -> ConditionReport:
    """Check D(e_i e_j) = e_i D(e_j) + D(e_i) e_j on all basis pairs.

    The witness is the first failing pair (i, j) with both sides.
    """
    if f.target.dim != u.dim or f.source.dim != a.dim:
        raise ValueError("map shape does not match A -> U")
    return ConditionReport("Leibniz identity").first(
        "D(ab) = aD(b) + D(a)b", _failing_pairs(a, u, f), note="%d pairs" % a.dim**2)


def derivation_space(a: Algebra, u: Bimodule) -> DerivationSpace:
    """All derivations A -> U: the nullspace of the Leibniz system in D's
    values on the generators of A, lifted to D's entries.

    That kernel is Der(A, U) only because A is associative and U a
    bimodule over it.  Structures built from input are checked; each one
    built inside the package with ``_skip_check=True`` (in ``samples``,
    ``constructions``, ``extension`` and ``analysis``) holds its axioms by
    construction.
    """
    system = LeibnizSystem(a, u)
    ker = nullspace(system.matrix)
    lifted = [list(_sum_sparse(_integer_row(row.items())[1].items(), system.lift).items())
              for row in ker.rows]
    der = Subspace.row_space(SparseMatrix(len(lifted), a.dim * u.dim, lifted))
    if der.dim != ker.dim:
        raise AssertionError("the lifted kernel lost rank")
    basis = [LinearMap._from_columns(a, u, _columns(k, a.dim)) for k in der.rows]
    return DerivationSpace(der, basis)


class _Inner(NamedTuple):
    columns: list    # ad_{u_s} flattened, {index: Fraction}, one per basis element of U
    inn: Subspace    # Inn(A, U)
    preimages: list  # for each row of inn, the x {s: Fraction} with that ad_x
    h0: Subspace     # H^0(A, U) = {x : a x = x a}, the center when U = A


def _ad_columns(a: Algebra, u: Bimodule) -> list:
    """The inner map's columns, built once and kept on u apart from their
    elimination: column s is the flattened ad_{u_s}, entry k * dim A + i
    coordinate k of e_i u_s - u_s e_i, summed on u's integer tables."""
    if u.algebra is not a:
        raise ValueError("module is not over the given algebra")
    if u._ad is None:
        m, n = a.dim, u.dim
        den, (_, left, right) = u.integer_tables
        columns = [{} for _ in range(n)]
        for i, s in product(range(m), range(n)):
            for k, c in left[i][s]:
                columns[s][k * m + i] = c
            for k, c in right[s][i]:
                columns[s][k * m + i] = columns[s].get(k * m + i, 0) - c
        u._ad = [{r: Fraction(c, den) for r, c in col.items() if c} for col in columns]
    return u._ad


def _inner(a: Algebra, u: Bimodule) -> _Inner:
    """The inner map x -> ad_x of u, eliminated once, kept on u.

    One ``_rref`` of the rows ad_{u_s} + e_s (``_ad_columns``), tag e_s at
    column m n + s: rows with their pivot in the ad part are Inn's, their
    tags the x with that ad, and the other rows are H^0's RREF rows, as
    they stand, shifted by m n.  Every Inn row's tag is 0 at H^0's pivots.
    """
    columns = _ad_columns(a, u)
    if u._inner is None:
        mn, n = a.dim * u.dim, u.dim
        pivots, rows = _rref(_distinct_rows(chain(col.items(), ((mn + s, 1),))
                                            for s, col in enumerate(columns)), mn + n)
        rank = sum(p < mn for p in pivots)  # the pivots ascend: Inn's rows come first
        tags = [{c - mn: x for c, x in row.items() if c >= mn} for row in rows]
        inn = Subspace._reduced(mn, pivots[:rank], [{c: x for c, x in row.items() if c < mn}
                                                    for row in rows[:rank]])
        h0 = Subspace._reduced(n, [p - mn for p in pivots[rank:]], tags[rank:])
        u._inner = _Inner(columns, inn, tags[:rank], h0)
    return u._inner


def inner_derivation(a: Algebra, u: Bimodule, x) -> LinearMap:
    """The inner derivation b -> b x - x b for the coordinates x of a
    module element: the kept ad columns summed over the nonzeros of x only,
    with no elimination."""
    flat = _sum_sparse(coordinates(u.dim, x).items(), _ad_columns(a, u))
    return LinearMap._from_columns(a, u, _columns(flat, a.dim))


def inner_space(a: Algebra, u: Bimodule) -> Subspace:
    """Image of the inner map x -> ad_x inside flattened Hom(A, U): the
    ad rows of its kept elimination."""
    return _inner(a, u).inn


def h1_dimension(a: Algebra, u: Bimodule) -> int:
    """dim Der(A,U) - dim Inn(A,U)."""
    return derivation_space(a, u).dim - inner_space(a, u).dim
