"""Structural predicates: center, Jacobson radical, simplicity, idempotents.

The radical uses the characteristic-zero trace criterion on the
unitization: x is in rad(A) iff trace(L_{xy}) = 0 for every y, where L
is left multiplication on A with a unit adjoined.  The trace rows are
read off A's sparse integer table.  The computed radical is re-verified
to be a nilpotent two-sided ideal, in integers: products are formed from
the sparse table on the basis rows times their denominators, membership
is tested against the integer kernel of those rows (``ideal_check``),
and each power is kept as integer echelon rows.

Simplicity (equivalently primeness, for finite-dimensional algebras)
is decided through the center, a product of fields when A is semisimple,
by factoring central elements' minimal polynomials over Q (``is_simple_prime``).
sympy factors them, imported only for a degree above 1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from typing import List, NamedTuple, Optional, Tuple

from .algebra import Algebra, Bimodule, LinearMap, _columns, _product, _sum_sparse, block_table
from .derivations import _inner, derivation_space
from .extension import ideal_check
from .linalg import (
    SparseMatrix,
    Subspace,
    Vector,
    _cancel,
    _dense,
    _distinct_rows,
    _echelon,
    _integer_row,
    coordinates,
    frac,
    nullspace,
    rank,
)
from .reports import Record

_PROBES = 8  # seeded central elements is_simple_prime tries before giving up


class RadicalReport(NamedTuple):
    radical: Subspace
    note: str = ""

    @property
    def is_semisimple(self) -> bool:
        return self.radical.dim == 0


class Polynomial(Record):
    """Rational polynomial, coefficients lowest degree first, each coerced
    by ``frac``: a float raises TypeError."""

    _fields = ("coefficients",)

    def __init__(self, coefficients: List[Fraction]):
        self.coefficients = [frac(c) for c in coefficients]
        while self.coefficients and self.coefficients[-1] == 0:
            self.coefficients.pop()

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1 if self.coefficients else -1

    def __str__(self):
        terms = []
        for k in range(self.degree, -1, -1):
            c, power = self.coefficients[k], "t" if k == 1 else "t^%d" % k
            if c:
                terms.append(str(c) if k == 0 else power if c == 1 else "-" + power if c == -1
                             else "%s*%s" % (c, power))
        return " + ".join(terms).replace("+ -", "- ") or "0"


class SimplePrimeReport(NamedTuple):
    simple: Optional[bool]  # None means indeterminate after all probes
    evidence: dict

    @property
    def prime(self) -> Optional[bool]:
        """A finite-dimensional algebra is prime iff it is simple."""
        return self.simple


def center(a: Algebra) -> Subspace:
    """{z : z e_i = e_i z for all i}, exactly.

    Z(A) = H^0(A, A), read off the inner map's kept elimination.
    """
    return _inner(a, a.self_bimodule()).h0


def unitization(a: Algebra) -> Algebra:
    """A with a formal unit adjoined at coordinate 0.

    Associative because A is, so it is built without the re-check.
    """
    n = a.dim + 1
    mul = block_table(n, [(a.mul_table, (1, 1, 1))])
    for i in range(n):
        mul[0][i], mul[i][0] = [(i, Fraction(1))], [(i, Fraction(1))]
    return Algebra(mul, basis_names=["1"] + list(a.basis_names), _skip_check=True)


def is_nilpotent_subspace(a: Algebra, s: Subspace) -> bool:
    """Does some power of the subspace (under products) vanish?

    Checked up to dim + 1 steps; for a subalgebra this settles
    nilpotency in finite dimension.  Each power is spanned by the
    products of the last one with s, formed in integers from the sparse
    table and kept as its integer echelon rows.
    """
    if s.ambient_dim != a.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    table = a.integer_table[1]
    gens = [_integer_row(w.items())[1] for w in s.rows]
    power = gens
    for _ in range(a.dim + 1):
        if not power:
            return True
        products = (_product(table, x, y).items() for x in power for y in gens)
        power = _echelon(_distinct_rows(products))[1]
    return not power


def radical(a: Algebra) -> RadicalReport:
    """Jacobson radical via the trace criterion, with re-verification.

    x in A is in rad(A) iff trace(L_{x y}) = 0 for y = 1 and y = e_j,
    with L left multiplication on the unitization.  For x in A that
    trace is the trace on A (L_x sends the unit to x, which has no unit
    coordinate), so the rows are read off A's integer table: t_s =
    trace(L_{e_s}) from its diagonal constants, the unit's row t_i and
    row j sum_k c[i][j][k] t_k, all times powers of its denominator.
    """
    n = a.dim
    table = a.integer_table[1]
    traces = [sum(c for j, entries in enumerate(plane) for k, c in entries if k == j)
              for plane in table]
    rows = [traces] + [[sum(c * traces[k] for k, c in table[i][j]) for i in range(n)]
                       for j in range(n)]
    rad = nullspace(SparseMatrix(n + 1, n, [[(i, x) for i, x in enumerate(row) if x]
                                            for row in rows]))
    if not ideal_check(a, rad).passed:
        raise AssertionError("computed radical is not a two-sided ideal")
    if not is_nilpotent_subspace(a, rad):
        raise AssertionError("computed radical is not nilpotent")
    return RadicalReport(rad, "trace criterion on the unitization; verified nilpotent ideal")


def _with_unit(a: Algebra, x) -> Tuple[Algebra, dict, dict]:
    """(algebra, its unit, x in it), both as their nonzero coordinates: A
    itself if unital, else the unitization."""
    coords = coordinates(a.dim, x)
    e = a.unit()
    if e is None:
        return unitization(a), {0: Fraction(1)}, {i + 1: c for i, c in coords.items()}
    return a, coordinates(a.dim, e), coords


def min_poly(a: Algebra, x) -> Polynomial:
    """Monic minimal polynomial of x, from the first power dependence.

    Powers start at the algebra's unit; when A has none, a formal unit
    is adjoined first.  Each power, tagged 1 at its own column, is reduced
    against the integer echelon rows of the powers before it; the tags of
    the first whose value part vanishes hold the polynomial.
    """
    alg, power, coords = _with_unit(a, x)
    dim, held = alg.dim, {}  # held: {leading column: integer row}
    for k in range(dim + 2):
        row = _integer_row(chain(power.items(), ((dim + k, 1),)))[1]
        while (c := min(row)) < dim and c in held:
            _cancel(row, held[c], c)
        if c >= dim and k:  # sum_i row[dim + i] x^i = 0, with row[dim + k] nonzero
            return Polynomial([Fraction(row.get(dim + i, 0), row[dim + k]) for i in range(k + 1)])
        held[c] = row
        power = _product(alg.mul_table, power, coords)
    raise AssertionError("no power dependence found below the dimension")


def poly_eval_in_algebra(a: Algebra, poly: Polynomial, x) -> Vector:
    """Horner evaluation of poly at x (in the unitization if needed)."""
    alg, e, coords = _with_unit(a, x)
    acc = {}
    for c in reversed(poly.coefficients):
        acc = _product(alg.mul_table, acc, coords)
        if c != 0:
            acc = _sum_sparse(((0, 1), (1, c)), (acc, e))  # acc + c e
    return _dense(acc, alg.dim)


def _factor_over_q(poly: Polynomial):
    """Irreducible factorization over Q via sympy; [(coeffs, mult), ...]."""
    if poly.degree == 1:  # monic and linear: its own factor (a constant has none)
        return [(poly, 1)]
    import sympy  # only here: every other command runs without loading it

    t = sympy.Symbol("t")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * t**k
        for k, c in enumerate(poly.coefficients)
    )
    _, factors = sympy.Poly(expr, t, domain="QQ").factor_list()
    out = []
    for f, mult in factors:
        coeffs = [Fraction(str(c)) for c in reversed(f.all_coeffs())]
        out.append((Polynomial(coeffs), int(mult)))
    return out


def is_idempotent(a: Algebra, p) -> bool:
    coords = coordinates(a.dim, p)
    return _product(a.mul_table, coords, coords) == coords


def is_nontrivial_idempotent(a: Algebra, p) -> bool:
    return is_idempotent(a, p) and bool(coordinates(a.dim, p))


def is_simple_prime(a: Algebra, seed: int = 0) -> SimplePrimeReport:
    """Simplicity / primeness of a finite-dimensional algebra.

    A finite-dimensional algebra is prime iff it is simple, and simple
    iff it is semisimple with a field for a center, a product of fields.
    Seeded random central elements are probed, each one's minimal
    polynomial factored over Q: more than one factor shows a zero
    divisor (not simple), one factor of full degree dim Z a field
    (simple); any other probe moves on.  If none decides, the result is
    indeterminate (simple=None) with the attempts recorded.  The zero
    algebra is neither: both notions need a nonzero ring.
    """
    if a.dim == 0:
        return SimplePrimeReport(False, {"reason": "zero algebra"})
    rad = radical(a)
    if not rad.is_semisimple:
        return SimplePrimeReport(False, {"reason": "radical is nonzero",
                                         "radical_dim": rad.radical.dim})
    z = center(a)
    rng = random.Random(seed)
    attempts = []
    for _ in range(_PROBES):
        weights = [rng.randint(-9, 9) for _ in range(z.dim)]
        elem = _dense(_sum_sparse(enumerate(weights), z.rows), a.dim)
        poly = min_poly(a, elem)
        attempts.append(str(poly))
        factors = _factor_over_q(poly)
        if len(factors) > 1 or poly.degree == z.dim:
            return SimplePrimeReport(len(factors) == 1 and factors[0][1] == 1, {
                "center_dim": z.dim,
                "min_poly": str(poly),
                "factors": [(str(f), m) for f, m in factors],
            })
    return SimplePrimeReport(None, {"reason": "all retries degenerate", "attempts": attempts})


def find_surjective_left_hom(a: Algebra, u: Bimodule) -> Optional[LinearMap]:
    """A surjective left A-module homomorphism A -> U, if the search finds one.

    The left-hom constraints are linear in the matrix entries; the
    solution space is scanned with a deterministic weight schedule for a
    full-rank member.  None means "not found", not "nonexistent".
    """
    m, n = a.dim, u.dim
    if n > m:
        return None
    # f(ab) = a f(b) is the Leibniz identity into U with its right action
    # zeroed, a bimodule too: the left homs are its derivations
    left_only = Bimodule(a, u.left_table, [[[]] * m for _ in range(n)], _skip_check=True)
    sol = derivation_space(a, left_only).kernel
    if sol.dim == 0:
        return None
    for k in range(a.dim + 1):
        weights = [Fraction((i + 1) ** k) for i in range(sol.dim)]
        cols = _columns(_sum_sparse(enumerate(weights), sol.rows), m)
        if rank(SparseMatrix(m, n, [col.items() for col in cols])) == n:  # rank of f^T
            return LinearMap._from_columns(a, u, cols)
    return None
