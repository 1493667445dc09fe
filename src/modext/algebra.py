"""Structure-constant algebras, bimodules, and maps between them.

An algebra is given by a rank-3 rational tensor ``mul`` on a chosen
basis: e_i e_j = sum_k mul[i][j][k] e_k.  A bimodule over it carries two
such tensors for the left and right actions.  Associativity and the
bimodule compatibility axioms are verified eagerly on input, so any
constructed value is a genuine algebra / bimodule and downstream
identities never have to requalify their inputs.  Structures derived
from validated parts (T(A,U), the unitization, A/I, the corner A p) hold
their axioms by construction; their builders pass the private
``_skip_check`` instead of verifying them again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from .linalg import (
    Matrix,
    Subspace,
    Vector,
    frac,
    is_zero_vec,
    nullspace,
    solve,
    unit_vec,
    vec,
    zero_vec,
)
from .reports import ConditionReport


class ValidationError(ValueError):
    """Raised when a structure-constant tensor violates an axiom."""

    def __init__(self, report: ConditionReport):
        self.report = report
        first = report.failures()[0] if report.failures() else None
        msg = report.title
        if first is not None:
            msg += ": %s witness=%r" % (first.name, first.witness)
        super().__init__(msg)


def _coerce_tensor(t, d1: int, d2: int, d3: int):
    if len(t) != d1 or any(len(row) != d2 for row in t):
        raise ValueError("tensor shape mismatch")
    out = []
    for row in t:
        out_row = []
        for entry in row:
            if len(entry) != d3:
                raise ValueError("tensor shape mismatch")
            out_row.append([frac(x) for x in entry])
        out.append(out_row)
    return out


def _bilinear(tensor, x: Vector, y: Vector, dim: int) -> Vector:
    """sum_ij x_i y_j tensor[i][j]: a product given by structure constants."""
    out = zero_vec(dim)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            c = xi * yj
            for k, t in enumerate(tensor[i][j]):
                if t != 0:
                    out[k] += c * t
    return out


def _combine(weights: Vector, vectors: Sequence[Vector], dim: int) -> Vector:
    """sum_k weights[k] vectors[k], over the nonzero weights and entries."""
    out = zero_vec(dim)
    for w, v in zip(weights, vectors):
        if w:
            for k, x in enumerate(v):
                if x:
                    out[k] += w * x
    return out


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
        self.mul_tensor = _coerce_tensor(mul, dim, dim, dim)
        self.basis_names = _names(basis_names, dim, "e")
        if not _skip_check:
            report = self.associativity_report()
            if not report.passed:
                raise ValidationError(report)
        self._unit = None
        self._unit_computed = False

    def associativity_report(self) -> ConditionReport:
        rep = ConditionReport("associativity")
        n = self.dim
        for i in range(n):
            for j in range(n):
                ij = self.mul_basis(i, j)
                for k in range(n):
                    lhs = self.mul_vec(ij, unit_vec(n, k))
                    rhs = self.mul_vec(unit_vec(n, i), self.mul_basis(j, k))
                    if lhs != rhs:
                        rep.add(
                            "associativity",
                            False,
                            witness=((i, j, k), lhs, rhs),
                        )
                        return rep
        rep.add("associativity", True, note="%d identities hold" % n**3)
        return rep

    def mul_basis(self, i: int, j: int) -> Vector:
        return list(self.mul_tensor[i][j])

    def mul_vec(self, x: Vector, y: Vector) -> Vector:
        return _bilinear(self.mul_tensor, x, y, self.dim)

    def left_mul_matrix(self, x: Vector) -> Matrix:
        """Matrix of y -> x y in the algebra basis."""
        cols = [self.mul_vec(x, unit_vec(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_rows(
            [[cols[j][k] for j in range(self.dim)] for k in range(self.dim)]
        )

    def self_bimodule(self) -> "Bimodule":
        """A as a bimodule over itself via the algebra product."""
        t = self.mul_tensor
        return Bimodule(self, t, t, basis_names=self.basis_names, _skip_check=True)

    def unit(self) -> Optional[Vector]:
        """Coordinates of the two-sided unit, or None.

        Solves e e_i = e_i = e_i e for all i; a unit is unique when it
        exists.  Cached after the first computation.
        """
        if self._unit_computed:
            return None if self._unit is None else list(self._unit)
        n = self.dim
        rows = _action_rows(self.mul_tensor, self.mul_tensor)
        # each row pair (x e_i, e_i x) at coordinate k equals delta_{ik}
        rhs = [Fraction(1 if k == i else 0)
               for i in range(n) for k in range(n) for _ in range(2)]
        x = solve(Matrix.from_rows(rows), rhs)
        self._unit = x
        self._unit_computed = True
        return None if x is None else list(x)

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
        self.left = _coerce_tensor(left, m, dim, dim)
        self.right = _coerce_tensor(right, dim, m, dim)
        self.basis_names = _names(basis_names, dim, "u")
        self.report = None  # the axiom report, unless built with _skip_check
        if not _skip_check:
            self.report = self.axiom_report()
            if not self.report.passed:
                raise ValidationError(self.report)

    def axiom_report(self) -> ConditionReport:
        """Compatibility axioms: (ab)u=a(bu), u(ab)=(ua)b, (au)b=a(ub),
        plus the unit axiom e.u = u.e = u when the algebra is unital."""
        rep = ConditionReport("bimodule axioms")
        a = self.algebra
        m, n = a.dim, self.dim
        ok = True
        for i in range(m):
            for j in range(m):
                ab = a.mul_basis(i, j)
                for t in range(n):
                    u = unit_vec(n, t)
                    lhs = self.left_act(ab, u)
                    rhs = self.left_act(unit_vec(m, i), self.left_act(unit_vec(m, j), u))
                    if lhs != rhs:
                        rep.add("(ab)u = a(bu)", False, witness=((i, j, t), lhs, rhs))
                        return rep
                    lhs = self.right_act(u, ab)
                    rhs = self.right_act(self.right_act(u, unit_vec(m, i)), unit_vec(m, j))
                    if lhs != rhs:
                        rep.add("u(ab) = (ua)b", False, witness=((t, i, j), lhs, rhs))
                        return rep
                    lhs = self.right_act(self.left_act(unit_vec(m, i), u), unit_vec(m, j))
                    rhs = self.left_act(unit_vec(m, i), self.right_act(u, unit_vec(m, j)))
                    if lhs != rhs:
                        rep.add("(au)b = a(ub)", False, witness=((i, t, j), lhs, rhs))
                        return rep
        rep.add("compatibility", ok, note="%d triples checked" % (3 * m * m * n))
        # Unital action is recorded but not required: perfectly good
        # bimodules (e.g. a left ideal with the right action zeroed out)
        # are non-unital on one side even over a unital algebra.
        e = a.unit()
        if e is not None:
            unital = all(
                self.left_act(e, unit_vec(n, t)) == unit_vec(n, t)
                and self.right_act(unit_vec(n, t), e) == unit_vec(n, t)
                for t in range(n)
            )
            rep.add("unit acts as identity", unital, informational=True)
        return rep

    def left_act(self, a: Vector, u: Vector) -> Vector:
        return _bilinear(self.left, a, u, self.dim)

    def right_act(self, u: Vector, a: Vector) -> Vector:
        return _bilinear(self.right, u, a, self.dim)

    def __repr__(self):
        return "Bimodule(dim=%d over dim=%d)" % (self.dim, self.algebra.dim)


Carrier = Union[Algebra, Bimodule]


class Element:
    """Coordinate vector tagged with its carrier (algebra or bimodule)."""

    __slots__ = ("carrier", "coords")

    def __init__(self, carrier: Carrier, coords: Vector):
        if len(coords) != carrier.dim:
            raise ValueError("coordinate length does not match carrier dimension")
        self.carrier = carrier
        self.coords = vec(coords)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.carrier is other.carrier
            and self.coords == other.coords
        )

    def is_zero(self) -> bool:
        return is_zero_vec(self.coords)

    def __repr__(self):
        return "Element(%r)" % (self.coords,)


class LinearMap:
    """Exact linear map between carriers, as a (target x source) matrix."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Carrier, target: Carrier, matrix: Matrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("matrix shape does not match carriers")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def zero(cls, source: Carrier, target: Carrier) -> "LinearMap":
        return cls(source, target, Matrix.zeros(target.dim, source.dim))

    @classmethod
    def identity(cls, carrier: Carrier) -> "LinearMap":
        return cls(carrier, carrier, Matrix.identity(carrier.dim))

    def __call__(self, v):
        return self.matrix.apply(v)

    def __eq__(self, other):
        return isinstance(other, LinearMap) and self.matrix == other.matrix

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __repr__(self):
        return "LinearMap(%d -> %d)" % (self.matrix.cols, self.matrix.rows)


def _action_rows(left, right) -> list:
    """Rows of the linear map x -> (x u_j, u_j x) in the coordinates of x.

    ``left`` and ``right`` are the action tensors of a bimodule over the
    algebra of x.  For each j and output coordinate k there are two rows:
    coordinate k of x u_j, then of u_j x.
    """
    m, n = len(left), len(right)
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([left[s][j][k] for s in range(m)])
            rows.append([right[j][s][k] for s in range(m)])
    return rows


def _built_or_report(build, *args):
    """(build(*args), None), or (None, report) when an axiom fails."""
    try:
        return build(*args), None
    except ValidationError as e:
        return None, e.report


def validate_algebra(mul_tensor, basis_names=None):
    """Construct an Algebra, or return the violation report.

    Returns (algebra, None) on success, (None, report) on failure.
    """
    return _built_or_report(Algebra, mul_tensor, basis_names)


def validate_bimodule(algebra: Algebra, left, right, basis_names=None):
    """Construct a Bimodule, or return the violation report."""
    return _built_or_report(Bimodule, algebra, left, right, basis_names)


def annihilator(a: Algebra, u: Bimodule) -> Subspace:
    """ann_A U = {x in A : x U = U x = 0}, as an exact subspace of A."""
    if u.algebra is not a:
        raise ValueError("bimodule is not over the given algebra")
    rows = _action_rows(u.left, u.right)
    if not rows:
        return Subspace.full(a.dim)
    return nullspace(Matrix.from_rows(rows))


def is_module_hom(f: LinearMap, side: str = "both") -> ConditionReport:
    """Check the module-homomorphism identities on all basis pairs.

    ``side`` is "left", "right" or "both".  Source and target must be
    bimodules over the same algebra.
    """
    if side not in ("left", "right", "both"):
        raise ValueError("side must be left, right or both")
    src, tgt = f.source, f.target
    if not isinstance(src, Bimodule) or not isinstance(tgt, Bimodule):
        raise ValueError("is_module_hom requires bimodule source and target")
    if src.algebra is not tgt.algebra:
        raise ValueError("source and target are over different algebras")
    a = src.algebra
    images = [f.matrix.col(j) for j in range(src.dim)]  # f(u_j)
    rep = ConditionReport("module homomorphism (%s)" % side)
    for want in ("left", "right"):
        if side != "both" and side != want:
            continue
        ok = True
        for i in range(a.dim):
            ei = unit_vec(a.dim, i)
            for j in range(src.dim):
                # f(e_i u_j) and f(u_j e_i) from the action constants
                if want == "left":
                    lhs = _combine(src.left[i][j], images, tgt.dim)
                    rhs = tgt.left_act(ei, images[j])
                else:
                    lhs = _combine(src.right[j][i], images, tgt.dim)
                    rhs = tgt.right_act(images[j], ei)
                if lhs != rhs:
                    ok = False
                    witness = ((i, j), lhs, rhs)
                    break
            if not ok:
                break
        name = "f(au) = a f(u)" if want == "left" else "f(ua) = f(u) a"
        rep.add(name, ok, witness=None if ok else witness)
    return rep


def unit_element(a: Algebra) -> Optional[Element]:
    """Two-sided unit of the algebra, or None."""
    e = a.unit()
    return None if e is None else Element(a, e)
