"""Recipes that build verified derivations on module extensions.

Four constructions, each of which audits its hypotheses, builds a map on
the appropriate T(A,U), and re-verifies the Leibniz identity before
returning.  Hypothesis failures raise HypothesisError with the failing
identity and an exact witness; no unverified map is ever emitted.  The
corner's vectors lie in the left ideal A p, so their coordinates are
read off as their pivot entries on its echelon basis.

  lift        D((a,u)) = (0, delta(a)) for a derivation delta: A -> U
  transport   D((a,x)) = (delta(a), tau(x)) with tau = phi o delta o psi
  quotient    D on T(A, A/I) induced by delta with delta(I) in I
  corner      D on T(A, Ap) with tau(x) = delta(x) p for idempotent p
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .algebra import Algebra, Bimodule, LinearMap, _product, is_module_hom
from .blocks import BlockDecomposition, assemble
from .derivations import is_derivation
from .extension import ModuleExtension, _quotient, trivial_extension
from .linalg import SparseMatrix, Subspace, _dense, coordinates
from .reports import ConditionReport, HypothesisError, require


class ConstructionResult(NamedTuple):
    derivation: LinearMap          # a verified derivation on T
    extension: ModuleExtension
    recipe: str
    verification: ConditionReport


def _verify(t: ModuleExtension, d: LinearMap, recipe: str) -> ConstructionResult:
    rep = is_derivation(t.total, t.total.self_bimodule(), d)
    if not rep.passed:
        raise AssertionError("%s produced a non-derivation" % recipe)
    return ConstructionResult(d, t, recipe, rep)


def lift(t: ModuleExtension, delta: LinearMap) -> ConstructionResult:
    """D((a,u)) = (0, delta(a)); a derivation iff delta: A -> U is one."""
    require(is_derivation(t.base, t.module, delta), "delta is not a derivation A -> U")
    return _verify(t, assemble(t, BlockDecomposition(delta2=delta)), "lift")


def transport(
    t: ModuleExtension,
    delta: LinearMap,
    phi: LinearMap,
    psi: LinearMap,
) -> ConstructionResult:
    """D((a,x)) = (delta(a), tau(x)) with tau = phi o delta o psi.

    Requires phi: A -> U and psi: U -> A to be two-sided module
    homomorphisms with phi o psi = identity on U, and delta in Der(A).
    """
    a, u = t.base, t.module
    asb = a.self_bimodule()
    if (phi.source.dim, phi.target.dim, psi.source.dim, psi.target.dim) != (
            a.dim, u.dim, u.dim, a.dim):
        raise ValueError("phi and psi do not have the shapes A -> U and U -> A")
    phi = LinearMap._from_columns(asb, u, phi.columns)  # as bimodule maps, for is_module_hom
    psi = LinearMap._from_columns(u, asb, psi.columns)
    require(is_module_hom(phi, "both"), "phi is not an A-bimodule homomorphism")
    require(is_module_hom(psi, "both"), "psi is not an A-bimodule homomorphism")
    if phi._images(psi.columns) != LinearMap.identity(u).columns:
        raise HypothesisError("phi o psi is not the identity on U")
    require(is_derivation(a, asb, delta), "delta is not a derivation on A")

    tau = LinearMap._from_columns(u, u, phi._images(delta._images(psi.columns)))
    d = assemble(t, BlockDecomposition(delta1=delta, tau2=tau))
    return _verify(t, d, "transport")


def quotient_derivation(
    a: Algebra, ideal: Subspace, delta: LinearMap
) -> ConstructionResult:
    """Induced derivation on T(A, A/I) for delta with delta(I) in I.

    tau(a + I) = delta(a) + I on quotient coordinates; the returned map
    is D((a,u)) = (delta(a), tau(u)).
    """
    complement, quotient, proj = _quotient(a, ideal)  # rejects non-ideals
    require(is_derivation(a, a.self_bimodule(), delta), "delta is not a derivation on A")
    # delta(w) for each echelon row w of I, over the nonzeros of w and of delta's columns
    images = delta._images(ideal.rows)
    outside = (((), *(_dense(v[r], a.dim) for v in (ideal.rows, images)))
               for r in ideal._outside(images))  # each row w with delta(w) outside I, lazily
    require(ConditionReport("delta(I) in I").first("delta(I) in I", outside),
            "delta does not preserve the ideal")

    # tau(e_c + I) = delta(e_c) + I on the coset representatives e_c
    tau = LinearMap._from_columns(quotient, quotient,
                                  proj._images(delta.columns[c] for c in complement))

    t = trivial_extension(a, quotient)
    d = assemble(t, BlockDecomposition(delta1=delta, tau2=tau))
    return _verify(t, d, "quotient")


def corner_basis(a: Algebra, p) -> Subspace:
    """Canonical echelon basis of A p, the image of right multiplication by
    p: the span of the sparse products e_i p."""
    p = coordinates(a.dim, p)
    products = [_product(a.mul_table, {i: 1}, p).items() for i in range(a.dim)]
    return Subspace.row_space(SparseMatrix(a.dim, a.dim, products))


def _corner(a: Algebra, p) -> Tuple[dict, Subspace, Bimodule]:
    """The nonzero coordinates of p (checked idempotent), the echelon basis
    of A p, and A p as a bimodule.

    A p is a left ideal, so the left action satisfies the bimodule axioms
    by associativity, and the zero right action trivially: the module is
    built without the re-check.
    """
    coords = coordinates(a.dim, p)
    if not coords:
        raise HypothesisError("p = 0 is a trivial idempotent")
    square = _product(a.mul_table, coords, coords)
    if square != coords:
        rep = ConditionReport("idempotent")
        rep.add("p^2 = p", False, witness=((), *(_dense(v, a.dim) for v in (square, coords))))
        raise HypothesisError("p is not idempotent", rep)
    basis = corner_basis(a, p)
    q = basis.dim
    products = ([_product(a.mul_table, {i: 1}, b) for b in basis.rows] for i in range(a.dim))
    left = [[[(k, v[c]) for k, c in enumerate(basis.pivots) if c in v] for v in row]
            for row in products]
    right = [[[]] * a.dim for _ in range(q)]
    names = ["b%d" % j for j in range(q)]
    return coords, basis, Bimodule(a, left, right, basis_names=names, _skip_check=True)


def corner_module(a: Algebra, p) -> Bimodule:
    """The left ideal A p as a bimodule: usual left action, zero right action."""
    return _corner(a, p)[2]


def corner_tau(a: Algebra, p, delta: LinearMap) -> ConstructionResult:
    """D((a,x)) = (delta(a), tau(x)) on T(A, Ap) with tau(x) = delta(x) p."""
    p, basis, module = _corner(a, p)
    require(is_derivation(a, a.self_bimodule(), delta), "delta is not a derivation on A")
    images = (_product(a.mul_table, x, p) for x in delta._images(basis.rows))
    tau = LinearMap._from_columns(module, module, [
        {k: v[c] for k, c in enumerate(basis.pivots) if c in v} for v in images])

    t = trivial_extension(a, module)
    d = assemble(t, BlockDecomposition(delta1=delta, tau2=tau))
    return _verify(t, d, "corner")
