"""Algebra families past the dim <= 4 corpus, shared by the test modules."""

from modext.algebra import Algebra
from modext.extension import trivial_extension


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


def self_extension(a):
    """The algebra T(A, A)."""
    return trivial_extension(a, a.self_bimodule()).total
