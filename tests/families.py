"""Algebra families past the dim <= 4 corpus, shared by the test modules."""

import random

from modext.algebra import Algebra
from modext.extension import trivial_extension
from modext.linalg import Matrix, rref, unit_vec
from oracles import apply_matrix


def upper_triangular(n):
    """UT_n(Q) on the matrix units E_ij with i <= j, in row-major order."""
    index = [(i, j) for i in range(n) for j in range(i, n)]
    d = len(index)
    mul = [[[0] * d for _ in range(d)] for _ in range(d)]
    for p, (i, j) in enumerate(index):
        for q, (k, l) in enumerate(index):
            if j == k:
                mul[p][q][index.index((i, l))] = 1
    return Algebra(mul)


def from_columns(cols):
    """The Matrix whose columns are the vectors cols."""
    return Matrix(len(cols[0]) if cols else 0, len(cols), list(zip(*cols)))


def row_major(m):
    """The entries of the Matrix m, row by row."""
    return [x for row in m.data for x in row]


def from_row_major(rows, cols, xs):
    """The rows x cols Matrix whose entries, row by row, are xs."""
    return Matrix(rows, cols, [xs[i * cols:(i + 1) * cols] for i in range(rows)])


def left_mul_matrix(a, x):
    """Matrix of y -> x y on the algebra basis: column j is x e_j."""
    return from_columns([a.mul_vec(x, unit_vec(a.dim, j)) for j in range(a.dim)])


def self_extension(a):
    """The algebra T(A, A)."""
    return trivial_extension(a, a.self_bimodule()).total


def basis_change(d, seed):
    """A seeded invertible integer matrix P with entries in [-2, 2], and P^-1."""
    rng = random.Random(seed)
    while True:
        p = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        r = rref(Matrix(d, 2 * d, [row + unit_vec(d, i) for i, row in enumerate(p)]))
        if r.pivots[:d] == list(range(d)):  # [P | I] reduces to [I | P^-1]
            return Matrix(d, d, p), Matrix(d, d, [row[d:] for row in r.reduced.data])


def twin(a, p, q):
    """A on the basis f_i = sum_k p[k][i] e_k, whose products are dense:
    f_i f_j in e-coordinates, mapped to f-coordinates by q = p^-1."""
    f = list(zip(*p.data))  # f[i]: the e-coordinates of f_i
    return Algebra([[apply_matrix(q.data, a.mul_vec(x, y)) for y in f] for x in f])
