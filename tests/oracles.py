"""Independent brute-force oracles for the test suite.

Everything here works directly on raw structure-constant tensors
(nested lists of Fractions) with straightforward nested loops, or hands
the linear algebra to sympy.  Nothing imports the package's own linear
algebra or derivation machinery, so agreement between the two routes is
meaningful; ``leibniz_rows`` reads only the integer tables a structure
keeps.
"""

from fractions import Fraction
from itertools import product
from math import gcd

import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

PRIME = 2**31 - 1  # test data: constants and minors divisible by it


def tensors_of(algebra, module):
    """Raw (mul, left, right) tensors of an Algebra / Bimodule pair."""
    return algebra.mul_tensor, module.left, module.right


def coerced_table(t):
    """The sparse table [i][j] -> [(k, c)] of a tensor, each entry coerced
    to a Fraction before its zero test: a float refused, a string read as
    Fraction reads it."""
    def coerce(x):
        if isinstance(x, float):
            raise TypeError("%r is a float" % x)
        return x if isinstance(x, Fraction) else Fraction(x)
    return [[[(k, c) for k, c in enumerate(map(coerce, entry)) if c] for entry in plane]
            for plane in t]


def mul_vec(mul, x, y):
    n = len(mul)
    out = [Fraction(0)] * len(mul[0][0]) if n else []
    for i in range(n):
        if not x[i]:
            continue
        for j in range(n):
            c = x[i] * y[j]
            if c:
                for k in range(len(mul[i][j])):
                    out[k] += c * mul[i][j][k]
    return out


def left_act(left, a, u):
    m, n = len(left), len(u)
    out = [Fraction(0)] * n
    for i in range(m):
        if not a[i]:
            continue
        for j in range(n):
            c = a[i] * u[j]
            if c:
                for k in range(n):
                    out[k] += c * left[i][j][k]
    return out


def right_act(right, u, a):
    n, m = len(u), len(a)
    out = [Fraction(0)] * n
    for j in range(n):
        if not u[j]:
            continue
        for i in range(m):
            c = u[j] * a[i]
            if c:
                for k in range(n):
                    out[k] += c * right[j][i][k]
    return out


def apply_matrix(d, v):
    return [sum((row[s] * v[s] for s in range(len(v)) if v[s]), Fraction(0))
            for row in d]


def dense_product(a, b, cols):
    """The product of the nested lists a (r x k) and b (k x cols), each
    entry summed over all k, zeros included."""
    return [[sum((row[k] * b[k][j] for k in range(len(row))), Fraction(0))
             for j in range(cols)] for row in a]


def dense_rref(rows):
    """Reduced row echelon form by dense Gauss-Jordan over Fractions.

    rows is a nonempty list of equal-length rows.  Every entry is touched
    at every pivot step, with no fraction-free tricks and no pivot
    choice beyond the first nonzero: the plain reference for the sparse
    kernel.  Returns (reduced rows, pivot columns).
    """
    a = [[Fraction(x) for x in row] for row in rows]
    nrows, cols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def dense_nullspace(rows):
    """RREF basis of the right kernel of rows, through dense_rref alone."""
    red, pivots = dense_rref(rows)
    cols = len(rows[0])
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(cols)]
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return dense_rref(basis)[0][: len(basis)] if basis else []


def word_span(mul, gens):
    """A basis over Q of the span of the words g1(g2(...g_r)) of the basis
    vectors gens: the span of gens closed under left multiplication by
    them, grown one independent vector at a time through dense_rref."""
    n = len(mul)
    unit = lambda i: [Fraction(int(k == i)) for k in range(n)]
    basis, todo = [], [unit(g) for g in gens]
    while todo:
        v = todo.pop()
        if len(dense_rref(basis + [v])[1]) > len(basis):
            basis.append(v)
            todo += [mul_vec(mul, unit(g), v) for g in gens]
    return basis


def word_span_dim(mul, gens):
    """dim over Q of the span of the words of the basis vectors gens."""
    return len(word_span(mul, gens))


def exact_generators(mul):
    """The generators G, picked left to right in Fractions: e_j joins G
    when it lies outside the span over Q of the words of the G before it
    (``word_span``), grown afresh for each j."""
    n, gens = len(mul), []
    for j in range(n):
        basis = word_span(mul, gens)
        e = [Fraction(int(k == j)) for k in range(n)]
        if len(dense_rref(basis + [e])[1]) > len(basis):
            gens.append(j)
    return gens

def dense_intersection(a_rows, b_rows, n):
    """RREF basis of span(a_rows) ∩ span(b_rows) in Q^n through dense_rref
    alone: x = A^T s = B^T t, so x = A^T s for each kernel vector (s, t)
    of [A^T | -B^T]."""
    if not a_rows or not b_rows:
        return []
    stacked = [[a[i] for a in a_rows] + [-b[i] for b in b_rows] for i in range(n)]
    vectors = [[sum((k[j] * a[i] for j, a in enumerate(a_rows)), Fraction(0))
                for i in range(n)] for k in dense_nullspace(stacked)]
    if not vectors:
        return []
    red, pivots = dense_rref(vectors)
    return red[: len(pivots)]


def dense_projection(rows, n):
    """(complement, projection rows) of the quotient of Q^n by span(rows):
    the non-pivot columns of dense_rref(rows), and each e_j reduced by its
    rows, pivot by pivot, read at those columns."""
    red, pivots = dense_rref(rows) if rows else ([], [])
    complement = [c for c in range(n) if c not in pivots]
    reduced = []
    for j in range(n):
        v = [Fraction(int(c == j)) for c in range(n)]
        for r, p in enumerate(pivots):
            v = [x - v[p] * y for x, y in zip(v, red[r])]
        reduced.append(v)
    return complement, [[v[c] for v in reduced] for c in complement]


def dense_coordinates(basis, v):
    """The coefficients c with sum c_r basis[r] = v, or None if v is outside
    the span: the last column of dense_rref of [basis^T | v]."""
    aug = [[b[i] for b in basis] + [v[i]] for i in range(len(v))]
    red, pivots = dense_rref(aug)
    if len(basis) in pivots:
        return None
    c = [Fraction(0)] * len(basis)
    for r, p in enumerate(pivots):
        c[p] = red[r][-1]
    return c


def _domain_matrix(rows):
    return DomainMatrix([[QQ(Fraction(x).numerator, Fraction(x).denominator)
                          for x in row] for row in rows],
                        (len(rows), len(rows[0])), QQ)


def _fractions(dm):
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
            for row in dm.to_list()]


def sympy_rref(rows):
    """(reduced rows, pivot columns) from sympy's DomainMatrix over QQ."""
    red, pivots = _domain_matrix(rows).rref()
    return _fractions(red), list(pivots)


def sympy_nullspace(rows):
    """RREF basis of the right kernel of rows, from sympy's DomainMatrix."""
    ker = _fractions(_domain_matrix(rows).nullspace())
    return sympy_rref(ker)[0][: len(ker)] if ker else []


def leibniz_pair_sides(mul, left, right, d, i, j):
    """(D(e_i e_j), e_i D(e_j) + D(e_i) e_j) by direct evaluation.

    d is an (n x m) nested list for a map A -> U, where m = dim A and
    n = dim U.
    """
    m = len(mul)
    ei, ej = ([Fraction(1 if s == x else 0) for s in range(m)] for x in (i, j))
    lhs = apply_matrix(d, mul[i][j])
    rhs = [a + b for a, b in zip(left_act(left, ei, apply_matrix(d, ej)),
                                 right_act(right, apply_matrix(d, ei), ej))]
    return lhs, rhs


def leibniz_first_failure(mul, left, right, d):
    """First basis pair, in (i, j) order, where D(ab) = aD(b) + D(a)b fails.

    Returns ((i, j), lhs, rhs) by direct evaluation, or None when the
    identity holds on every basis pair.
    """
    for i, j in product(range(len(mul)), repeat=2):
        lhs, rhs = leibniz_pair_sides(mul, left, right, d, i, j)
        if lhs != rhs:
            return (i, j), lhs, rhs
    return None


def leibniz_holds(mul, left, right, d):
    """Does the map with matrix d satisfy D(ab) = aD(b) + D(a)b?"""
    return leibniz_first_failure(mul, left, right, d) is None


def leibniz_rational_rows(mul, left, right):
    """The Leibniz system as dense Fraction rows (rows: (i,j,k), cols: d[t][s])."""
    m = len(mul)
    n = len(left[0]) if m else 0
    rows = []
    for i in range(m):
        for j in range(m):
            for k in range(n):
                row = [Fraction(0)] * (m * n)
                for s in range(m):
                    row[k * m + s] += mul[i][j][s]
                for t in range(n):
                    row[t * m + j] -= left[i][t][k]
                    row[t * m + i] -= right[t][j][k]
                rows.append(row)
    return rows


def leibniz_rows(algebra, module, firsts=None):
    """Sparse rows [(column, int)] of the Leibniz system in (i, j, k) order,
    i in firsts (all of range(dim A) by default): row (i, j, k) states that
    coordinate k of D(e_i e_j) - e_i D(e_j) - D(e_i) e_j vanishes, times the
    denominator module.integer_tables[0].  Column t * dim A + s is the
    entry d[t][s]; the terms are read off the nonzero constants of the
    integer tables, and a pair with no term at k gives an empty row."""
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


def _leibniz_sympy_matrix(mul, left, right):
    """The Leibniz system as a sympy Matrix."""
    rows = leibniz_rational_rows(mul, left, right)
    if not rows:
        return sympy.zeros(0, len(mul) * (len(left[0]) if mul else 0))
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])


def derivation_dim(mul, left, right):
    """dim Der(A,U) via sympy's nullspace."""
    mat = _leibniz_sympy_matrix(mul, left, right)
    return len(mat.nullspace()) if mat.cols else 0


def ad_vectors(mul, left, right):
    """The flattened commutator maps id_{u_j}: b -> b u_j - u_j b, one per
    j, entry k * m + i coordinate k of e_i u_j - u_j e_i, each read off
    left_act and right_act at the basis vectors."""
    m = len(mul)
    n = len(left[0]) if m else 0
    basis = lambda d, i: [Fraction(1 if s == i else 0) for s in range(d)]
    out = []
    for j in range(n):
        uj = basis(n, j)
        cols = [[x - y for x, y in zip(left_act(left, basis(m, i), uj),
                                       right_act(right, uj, basis(m, i)))] for i in range(m)]
        out.append([cols[i][k] for k in range(n) for i in range(m)])
    return out


def inner_dim(mul, left, right):
    """dim of the span of the commutator maps id_{u_j}, via sympy rank."""
    cols = ad_vectors(mul, left, right)
    if not cols:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in col] for col in cols]).T.rank()


def largest_nilpotent_ideal_dim(mul, max_seed_size=2):
    """Exhaustive small-seed search for the largest nilpotent ideal.

    Seeds are all {-1,0,1} coordinate vectors (normalized to a leading
    1) taken one or two at a time; each seed set is closed up to the
    two-sided ideal it generates, checked for nilpotency, and all
    nilpotent ideals found are summed.  Returns the dimension of the
    verified nilpotent sum.
    """
    m = len(mul)

    def span_dim(vectors):
        # plain fraction elimination, local to the oracle
        basis = []  # rows with pivot positions, kept reduced
        for v in vectors:
            v = [Fraction(x) for x in v]
            for pivot, row in basis:
                if v[pivot]:
                    f = v[pivot]
                    v = [a - f * b for a, b in zip(v, row)]
            p = next((i for i, a in enumerate(v) if a), None)
            if p is not None:
                inv = 1 / v[p]
                basis.append((p, [a * inv for a in v]))
        basis.sort()
        return len(basis), [row for _, row in basis]

    def close_ideal(seed):
        _, basis = span_dim(seed)
        while True:
            new = list(basis)
            for v in basis:
                vf = [Fraction(x) for x in v]
                for i in range(m):
                    ei = [Fraction(1 if s == i else 0) for s in range(m)]
                    new.append(mul_vec(mul, ei, vf))
                    new.append(mul_vec(mul, vf, ei))
            d, nb = span_dim(new)
            if d == len(basis):
                return basis
            basis = nb

    def is_nilpotent(basis):
        power = basis
        for _ in range(m + 1):
            if not power:
                return True
            prods = []
            for v in power:
                for w in basis:
                    prods.append(
                        mul_vec(mul, [Fraction(x) for x in v], [Fraction(x) for x in w])
                    )
            _, power = span_dim([p for p in prods if any(p)])
        return not power

    pool = []
    for coords in product((-1, 0, 1), repeat=m):
        if all(c == 0 for c in coords):
            continue
        first = next(c for c in coords if c != 0)
        if first == -1:
            continue  # scalar multiple of a vector already in the pool
        pool.append([Fraction(c) for c in coords])

    seeds = [[v] for v in pool]
    if max_seed_size >= 2:
        seeds += [[pool[i], pool[j]] for i in range(len(pool)) for j in range(i)]

    found = []
    for seed in seeds:
        ideal = close_ideal(seed)
        if is_nilpotent(ideal):
            found.extend(ideal)
    total = close_ideal(found) if found else []
    if total and not is_nilpotent(total):
        raise AssertionError("sum of nilpotent ideals failed the nilpotency check")
    return len(total)


# -- a copying elimination loop, the reference for the kernel's in-place one -
#
# Each cancel builds a new row, and the loop finds the columns a row gained
# or lost by comparing key sets.  The kernel's loop must pick the same
# pivots and end with the same rows.


def _combination(row, prow, a, b):
    """a*row - b*prow, zeros left out."""
    out = dict(row) if a == 1 else {k: a * x for k, x in row.items()}
    for k, y in prow.items():
        x = out.get(k, 0) - b * y
        if x:
            out[k] = x
        else:
            del out[k]
    return out


def copying_cancel(row, prow, c):
    """Primitive a*row - b*prow with a, b chosen to clear column c."""
    g = gcd(prow[c], row[c])
    out = _combination(row, prow, prow[c] // g, row[c] // g)
    g = gcd(*out.values())
    return out if g == 1 else {k: x // g for k, x in out.items()}


def copying_echelon(rows, cols):
    """(pivots, done) of forward elimination with a new row per cancel,
    left to right: the pivot of a column is the live row with the fewest
    nonzeros, lowest index on ties."""
    rows = list(rows)
    where = [set() for _ in range(cols)]
    for i, row in enumerate(rows):
        for c in row:
            where[c].add(i)
    pivots, done = [], []
    for c in range(cols):
        if not where[c]:
            continue
        p = min(where[c], key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        for k in prow:
            where[k].discard(p)
        for i in list(where[c]):
            row = rows[i]
            rows[i] = new = copying_cancel(row, prow, c)
            for k in row.keys() - new.keys():
                where[k].discard(i)
            for k in new.keys() - row.keys():
                where[k].add(i)
        pivots.append(c)
        done.append(prow)
    return pivots, done
