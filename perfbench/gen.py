"""Seeded input generators for the benchmark.

Everything the program is fed is made here, from the workload seed:
structure constants of M_n, UT_n and Q[t]/(t^n), dense-basis twins
obtained by a seeded integer change of basis, and the stream of maps
(inner derivations and the grading derivation) that the verification
workload feeds to the block, witness and recipe functions.  Only plain
lists of ints and Fractions leave this module; the program builds its
own objects from them.

Tensors follow the program's convention: ``mul[i][j][k]`` is the
coefficient of e_k in e_i e_j.
"""

from __future__ import annotations

import random
from fractions import Fraction


def zeros3(d1, d2, d3):
    return [[[0] * d3 for _ in range(d2)] for _ in range(d1)]


def matrix_units(n):
    """M_n(Q) on the matrix units E_ij, index i*n + j."""
    d = n * n
    mul = zeros3(d, d, d)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                mul[i * n + j][j * n + l][i * n + l] = 1
    return mul


def unit_index(n, triangular):
    """{(i, j): coordinate} of the matrix units of UT_n (i <= j) or M_n."""
    units = [(i, j) for i in range(n) for j in range(n) if j >= i or not triangular]
    return {u: k for k, u in enumerate(units)}


def upper_triangular(n):
    """UT_n(Q) on the matrix units E_ij with i <= j, in row-major order."""
    index = unit_index(n, True)
    d = len(index)
    mul = zeros3(d, d, d)
    for (i, j), a in index.items():
        for (k, l), b in index.items():
            if j == k:
                mul[a][b][index[(i, l)]] = 1
    return mul


def truncated_poly(n):
    """Q[t]/(t^n) on the basis 1, t, ..., t^(n-1)."""
    mul = zeros3(n, n, n)
    for i in range(n):
        for j in range(n - i):
            mul[i][j][i + j] = 1
    return mul


def _inverse(p):
    """Exact inverse of a square integer matrix, or None if singular."""
    n = len(p)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(p)]
    for c in range(n):
        r = next((i for i in range(c, n) if a[i][c] != 0), None)
        if r is None:
            return None
        a[c], a[r] = a[r], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def random_basis_change(d, rng):
    """Seeded invertible integer matrix with entries in [-2, 2], and its inverse."""
    while True:
        p = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        q = _inverse(p)
        if q is not None:
            return p, q


def conjugate(mul, p, q):
    """Structure constants in the basis f_i = sum_a p[a][i] e_a.

    f_i f_j = sum_{a,b} p[a][i] p[b][j] e_a e_b, and e_c = sum_k q[k][c] f_k.
    """
    d = len(mul)
    nz = [(a, b, c, x) for a in range(d) for b in range(d)
          for c, x in enumerate(mul[a][b]) if x]
    out = zeros3(d, d, d)
    for i in range(d):
        for j in range(d):
            coeff = [Fraction(0)] * d  # e-coordinates of f_i f_j
            for a, b, c, x in nz:
                w = p[a][i] * p[b][j]
                if w:
                    coeff[c] += w * x
            for k in range(d):
                out[i][j][k] = sum((q[k][c] * coeff[c] for c in range(d) if coeff[c]),
                                   Fraction(0))
    return out


def extension_tensor(mul):
    """Structure constants of T(A, A) for A given by ``mul``; A first, then U."""
    m = len(mul)
    d = 2 * m
    out = zeros3(d, d, d)
    for i in range(m):
        for j in range(m):
            for k, x in enumerate(mul[i][j]):
                if x:
                    out[i][j][k] = x
                    out[i][m + j][m + k] = x   # e_i u_j = (e_i e_j) in U
                    out[m + i][j][m + k] = x   # u_i e_j = (e_i e_j) in U
    return out


def sparse(mul):
    """{(i, j): [(k, c), ...]} over the nonzero structure constants."""
    d = len(mul)
    return {(i, j): [(k, x) for k, x in enumerate(mul[i][j]) if x]
            for i in range(d) for j in range(d)
            if any(mul[i][j])}


def ad_matrix(smul, d, x):
    """Matrix (target x source) of y -> y x - x y, from sparse constants."""
    cols = []
    for s in range(d):
        col = [Fraction(0)] * d
        for t, xt in enumerate(x):
            if not xt:
                continue
            for k, c in smul.get((s, t), ()):
                col[k] += xt * c
            for k, c in smul.get((t, s), ()):
                col[k] -= xt * c
        cols.append(col)
    return [[cols[s][k] for s in range(d)] for k in range(d)]


def grading_matrix(m):
    """tau2 = id_U on T(A, A) with dim A = m: the block matrix diag(0, I)."""
    d = 2 * m
    return [[int(r == c and r >= m) for c in range(d)] for r in range(d)]


def identity(d):
    return [[int(r == c) for c in range(d)] for r in range(d)]


def small_vector(d, rng):
    """Seeded nonzero integer vector with entries in [-3, 3]."""
    while True:
        v = [rng.randint(-3, 3) for _ in range(d)]
        if any(v):
            return v


def seeded_rng(seed, *tags):
    """Independent stream per (seed, tags), stable across Python runs."""
    return random.Random("%d:%s" % (seed, ":".join(map(str, tags))))
