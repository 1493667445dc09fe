"""Derivation spaces as nullspaces of the Leibniz linear system.

A linear map D: A -> U is a derivation when D(ab) = a D(b) + D(a) b.  On
basis pairs this is a linear system in the entries of D's matrix; the
derivation space is its exact nullspace.  Only the pairs (g, e_j) with g
in a generating set G of A are needed: if the words g1(g2(...g_r)) of G
span A, a linear D with Leibniz at every (g, y) is a derivation, since
the x with Leibniz at every (x, y) form a subspace that holds G and,
with x, each g x: D(gxy) = g D(xy) + D(g) xy = gx D(y) + D(gx) y, by
associativity and the bimodule axioms alone.  ``generators`` picks G
left to right, each e_j outside the span mod PRIME of the words so far,
that span kept closed under left multiplication by G on A's integer
table; the pick ends with the words' residues spanning F_p^m, so the
integer words have rank m over Q, and if PRIME divides a constant G only
grows, at worst to every basis vector.  ``leibniz_rows`` reads the terms
of the identity's two sides at each pair (i, j), i among its first
factors, off the nonzero constants of the module's integer tables and
sums them into sparse integer rows (the rational rows times the tables'
denominator); ``LeibnizSystem.matrix`` holds them for i in G.
``nullspace`` drops the empty and repeated ones, picks its row basis mod
a prime and certifies the basis by a zero integer residual on every row,
so the solve's certificate is the span of G and that residual, and
``DerivationSpace`` keeps that kernel, not the system.  ``is_derivation``
and the C1-C6 checker in ``blocks`` check every pair: they sum the sides
D(ab) and a D(b) + D(a) b at all pairs at once, in integers, one term
per nonzero entry of D (scaled by their common denominator) and constant
of the module's integer tables, so they cost time in proportion to their
terms; the witness of a pair whose sides differ is its integer sides
divided by the tables' denominator times D's.  No check builds the
system.  The inner map x -> (a -> a x - x a) is held as its ad columns
and eliminated once per U by ``_inner``, for Inn(A, U), innerness
witnesses and H^0(A, U) = {x : a x = x a}, the center for U = A.

Row order of the Leibniz system is lexicographic in (i, j, k); columns
are D's matrix entries in row-major order.  Both are fixed so computed
bases are canonical.
"""

from __future__ import annotations

from itertools import chain, product
from typing import List, NamedTuple

from .algebra import (Algebra, Bimodule, LinearMap, _columns, _failures, _product, _sides,
                      _sum_sparse)
from .linalg import (PRIME, SparseMatrix, Subspace, _cancel_mod_p, _distinct_rows, _monic, _rref,
                     coordinates, nullspace)
from .reports import ConditionReport


def generators(algebra: Algebra) -> list:
    """Indices G, ascending, of basis vectors whose words g1(g2(...g_r))
    span A: e_j joins G when it lies outside the span mod PRIME of the
    words so far, kept as monic residue rows by leading column and closed
    under left multiplication by G on the integer table."""
    m = algebra.dim
    table = algebra.integer_table[1]
    span, gens = {}, []

    def reduced(v: dict) -> dict:
        while v and (c := min(v)) in span:
            _cancel_mod_p(v, span[c], c)
        return v

    def times(g: int, v: dict) -> dict:  # g v mod PRIME
        return {k: r for k, x in _product(table, {g: 1}, v).items() if (r := x % PRIME)}

    for j in range(m):
        if len(span) == m:
            break
        if not reduced({j: 1}):
            continue
        gens.append(j)
        todo = [{j: 1}] + [times(j, v) for v in span.values()]
        while todo:
            if v := reduced(todo.pop()):
                c = min(v)
                span[c] = v = _monic(v, c)
                todo += [times(g, v) for g in gens]
    return gens


def leibniz_rows(algebra: Algebra, module: Bimodule, firsts=None):
    """Sparse rows [(column, int)] of the Leibniz system in (i, j, k) order,
    i in firsts (all of range(dim A) by default): row (i, j, k) states that
    coordinate k of D(e_i e_j) - e_i D(e_j) - D(e_i) e_j vanishes, times the
    denominator module.integer_tables[0].  Column t * dim A + s is the
    entry d[t][s]; the terms are read off the nonzero constants of the
    integer tables."""
    if module.algebra is not algebra:
        raise ValueError("module is not over the given algebra")
    m, n = algebra.dim, module.dim
    mul, left, right = module.integer_tables[1]
    for i, j in product(range(m) if firsts is None else firsts, range(m)):
        rows = [{} for _ in range(n)]
        # D(e_i e_j)_k = sum_s c[i][j][s] d[k][s], one term per (k, column)
        for s, c in mul[i][j]:
            for k in range(n):
                rows[k][k * m + s] = c
        # (e_i D(e_j))_k = sum_t l[i][t][k] d[t][j]; (D(e_i) e_j)_k = sum_t r[t][j][k] d[t][i]
        rhs = [(k, t * m + j, c) for t in range(n) for k, c in left[i][t]]
        rhs += [(k, t * m + i, c) for t in range(n) for k, c in right[t][j]]
        for k, col, c in rhs:
            row = rows[k]
            if col in row:
                row[col] -= c
            else:
                row[col] = -c
        for row in rows:
            yield [item for item in row.items() if item[1]]


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
    """The linear system expressing the derivation identity.

    Unknowns are the entries d[t][s] of D's (u.dim x a.dim) matrix.
    ``matrix`` is the integer rows of ``leibniz_rows`` with first factors
    ``generators`` of the algebra, empty ones included, as a SparseMatrix:
    its kernel is that of the rows at all pairs.
    """

    def __init__(self, algebra: Algebra, module: Bimodule):
        self.algebra = algebra
        self.module = module
        rows = list(leibniz_rows(algebra, module, generators(algebra)))
        self.matrix = SparseMatrix(len(rows), algebra.dim * module.dim, rows)


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
    """All derivations A -> U, as the nullspace of the Leibniz system on
    the generator rows of A.

    That kernel is Der(A, U) only because A is associative and U a
    bimodule over it.  Structures built from input are checked; each one
    built inside the package with ``_skip_check=True`` (in ``samples``,
    ``constructions``, ``extension`` and ``analysis``) holds its axioms by
    construction.
    """
    ker = nullspace(LeibnizSystem(a, u).matrix)
    basis = [LinearMap._from_columns(a, u, _columns(k, a.dim)) for k in ker.rows]
    return DerivationSpace(ker, basis)


class _Inner(NamedTuple):
    columns: list    # ad_{u_s} flattened, {index: Fraction}, one per basis element of U
    inn: Subspace    # Inn(A, U)
    preimages: list  # for each row of inn, the x {s: Fraction} with that ad_x
    h0: Subspace     # H^0(A, U) = {x : a x = x a}, the center when U = A


def _inner(a: Algebra, u: Bimodule) -> _Inner:
    """The inner map x -> ad_x of u, built and eliminated once, kept on u.

    Column s is the flattened ad_{u_s}, entry k * dim A + i coordinate k
    of e_i u_s - u_s e_i.  One ``_rref`` of the rows ad_{u_s} + e_s, tag
    e_s at column m n + n - 1 - s: rows with their pivot in the ad part are
    Inn's, their tags the x with that ad, and the other rows' tags span H^0.
    Reversed tags put H^0's pivots at the s with ad_{u_s} in the span of
    the ad_{u_r}, r < s, ``solve``'s free columns on the transposed map,
    where every Inn row's tag is 0.
    """
    if u.algebra is not a:
        raise ValueError("module is not over the given algebra")
    if u._inner is None:
        m, n = a.dim, u.dim
        columns = [{} for _ in range(n)]
        for i, s in product(range(m), range(n)):
            for k, c in u.left_table[i][s]:
                columns[s][k * m + i] = c
            for k, c in u.right_table[s][i]:
                columns[s][k * m + i] = columns[s].get(k * m + i, 0) - c
        columns = [{r: c for r, c in col.items() if c} for col in columns]
        mn, last = m * n, m * n + n - 1  # the tag of u_s is column last - s
        pivots, rows = _rref(_distinct_rows(chain(col.items(), ((last - s, 1),))
                                            for s, col in enumerate(columns)), last + 1)
        rank = sum(p < mn for p in pivots)  # the pivots ascend: Inn's rows come first
        tags = [{last - c: x for c, x in row.items() if c >= mn} for row in rows]
        inn = Subspace._reduced(mn, pivots[:rank], [{c: x for c, x in row.items() if c < mn}
                                                    for row in rows[:rank]])
        h0 = Subspace.row_space(SparseMatrix(n - rank, n, [t.items() for t in tags[rank:]]))
        u._inner = _Inner(columns, inn, tags[:rank], h0)
    return u._inner


def inner_derivation(a: Algebra, u: Bimodule, x) -> LinearMap:
    """The inner derivation b -> b x - x b for the coordinates x of a
    module element: the kept ad columns summed over the nonzeros of x only."""
    flat = _sum_sparse(coordinates(u.dim, x).items(), _inner(a, u).columns)
    return LinearMap._from_columns(a, u, _columns(flat, a.dim))


def inner_space(a: Algebra, u: Bimodule) -> Subspace:
    """Image of the inner map x -> ad_x inside flattened Hom(A, U): the
    ad rows of its kept elimination."""
    return _inner(a, u).inn


def h1_dimension(a: Algebra, u: Bimodule) -> int:
    """dim Der(A,U) - dim Inn(A,U)."""
    return derivation_space(a, u).dim - inner_space(a, u).dim
