"""Block structure of linear maps on T(A,U).

A linear map D on T(A,U) splits into four corner blocks
D((a,u)) = (delta1(a) + tau1(u), delta2(a) + tau2(u)).  D is a
derivation exactly when

  C1  delta1 is a derivation on A,
  C2  delta2 is a derivation A -> U,
  C3  tau2(a u) = a tau2(u) + delta1(a) u,
  C4  tau2(u a) = tau2(u) a + u delta1(a),
  C5  tau1 is a two-sided A-module homomorphism U -> A,
  C6  u tau1(v) + tau1(u) v = 0,

and every derivation splits as D = D1 + D2 with D2((a,u)) = (0,
delta2(a)).  D is inner iff it equals ad_{(b,v)} for some (b,v), which
forces tau1 = 0 and couples delta1 and tau2 through the same b.

Note on C3/C4: some sources print the coupling with delta2 instead of
delta1, but delta2(a) u would multiply two module elements, which the
product on T(A,U) never does; expanding the Leibniz identity with
(a,u)(b,v) = (ab, av + ub) forces the delta1 form used here.  The
condition report records the alternative reading as an informational
entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .algebra import Element, LinearMap, is_module_hom
from .derivations import inner_derivation, is_derivation
from .extension import ModuleExtension
from .linalg import (
    Matrix,
    is_zero_vec,
    solve,
    unit_vec,
    vec_add,
    zero_vec,
)
from .reports import ConditionReport, HypothesisError


@dataclass
class BlockDecomposition:
    delta1: LinearMap  # A -> A
    tau1: LinearMap    # U -> A
    delta2: LinearMap  # A -> U
    tau2: LinearMap    # U -> U


def _as_matrix(d) -> Matrix:
    return d.matrix if isinstance(d, LinearMap) else d


def blocks_of(t: ModuleExtension, d) -> BlockDecomposition:
    """Corner blocks of a square map on T in the (A, U) split; lossless."""
    dm = _as_matrix(d)
    m, n = t.base_dim, t.module_dim
    if dm.rows != m + n or dm.cols != m + n:
        raise ValueError("map is not square of dimension dim A + dim U")
    a, u = t.base, t.module
    sub = lambda r0, c0, r, c: Matrix(
        r, c, [[dm.data[r0 + i][c0 + j] for j in range(c)] for i in range(r)]
    )
    return BlockDecomposition(
        delta1=LinearMap(a, a, sub(0, 0, m, m)),
        tau1=LinearMap(u, a, sub(0, m, m, n)),
        delta2=LinearMap(a, u, sub(m, 0, n, m)),
        tau2=LinearMap(u, u, sub(m, m, n, n)),
    )


def assemble(t: ModuleExtension, b: BlockDecomposition) -> LinearMap:
    """Block matrix [[delta1, tau1], [delta2, tau2]] as a map on T."""
    m, n = t.base_dim, t.module_dim
    d = Matrix.zeros(m + n, m + n)
    for i in range(m):
        for j in range(m):
            d.data[i][j] = b.delta1.matrix.data[i][j]
        for j in range(n):
            d.data[i][m + j] = b.tau1.matrix.data[i][j]
    for i in range(n):
        for j in range(m):
            d.data[m + i][j] = b.delta2.matrix.data[i][j]
        for j in range(n):
            d.data[m + i][m + j] = b.tau2.matrix.data[i][j]
    return LinearMap(t.total, t.total, d)


def check_block_conditions(t: ModuleExtension, b: BlockDecomposition) -> ConditionReport:
    """The six block conditions equivalent to D being a derivation."""
    a, u = t.base, t.module
    asb = a.self_bimodule()
    m, n = a.dim, u.dim
    rep = ConditionReport("block conditions")

    c1 = is_derivation(a, asb, b.delta1)
    rep.add("C1: delta1 in Der(A)", c1.passed,
            witness=None if c1.passed else c1.failures()[0].witness)
    c2 = is_derivation(a, u, b.delta2)
    rep.add("C2: delta2 in Der(A,U)", c2.passed,
            witness=None if c2.passed else c2.failures()[0].witness)

    for name, left_side in (
        ("C3: tau2(au) = a tau2(u) + delta1(a) u", True),
        ("C4: tau2(ua) = tau2(u) a + u delta1(a)", False),
    ):
        ok = True
        witness = None
        for i in range(m):
            ei = unit_vec(m, i)
            d1_ei = b.delta1.matrix.col(i)
            for j in range(n):
                uj = unit_vec(n, j)
                if left_side:
                    lhs = b.tau2.matrix.apply(u.left_act(ei, uj))
                    rhs = vec_add(
                        u.left_act(ei, b.tau2.matrix.col(j)),
                        u.left_act(d1_ei, uj),
                    )
                else:
                    lhs = b.tau2.matrix.apply(u.right_act(uj, ei))
                    rhs = vec_add(
                        u.right_act(b.tau2.matrix.col(j), ei),
                        u.right_act(uj, d1_ei),
                    )
                if lhs != rhs:
                    ok = False
                    witness = ((i, j), lhs, rhs)
                    break
            if not ok:
                break
        rep.add(name, ok, witness=witness)

    tau1_map = LinearMap(u, asb, b.tau1.matrix)
    c5 = is_module_hom(tau1_map, "both")
    rep.add("C5: tau1 is an A-bimodule homomorphism", c5.passed,
            witness=None if c5.passed else c5.failures()[0].witness)

    ok = True
    witness = None
    for j in range(n):
        t1_uj = b.tau1.matrix.col(j)
        for l in range(n):
            val = vec_add(
                u.right_act(unit_vec(n, j), b.tau1.matrix.col(l)),
                u.left_act(t1_uj, unit_vec(n, l)),
            )
            if not is_zero_vec(val):
                ok = False
                witness = ((j, l), val, zero_vec(n))
                break
        if not ok:
            break
    rep.add("C6: u tau1(v) + tau1(u) v = 0", ok, witness=witness)

    rep.add(
        "C3/C4 alternative (delta2 coupling)",
        True,
        note=(
            "the printed delta2 reading would multiply two module elements, "
            "which T(A,U) never does; the delta1 coupling above is what the "
            "Leibniz identity forces"
        ),
        informational=True,
    )
    return rep


def _require_derivation(t: ModuleExtension, d) -> LinearMap:
    """d as a map on T, once it is checked to be a derivation."""
    if not isinstance(d, LinearMap):
        d = LinearMap(t.total, t.total, d)
    rep = is_derivation(t.total, t.total.self_bimodule(), d)
    if not rep.passed:
        raise HypothesisError("input is not a derivation on T(A,U)", rep)
    return d


def split_d1_d2(t: ModuleExtension, d) -> Tuple[LinearMap, LinearMap]:
    """Write a derivation D on T as D1 + D2 with D2((a,u)) = (0, delta2(a)).

    The input is checked to be a derivation.  D2 is one by C2, so D1 =
    D - D2 is one too; the certificate is that the parts sum to D.
    """
    d = _require_derivation(t, d)
    b = blocks_of(t, d)
    zero_d2 = LinearMap.zero(t.base, t.module)
    d1 = assemble(t, BlockDecomposition(b.delta1, b.tau1, zero_d2, b.tau2))
    d2 = assemble(
        t,
        BlockDecomposition(
            LinearMap.zero(t.base, t.base),
            LinearMap.zero(t.module, t.base),
            b.delta2,
            LinearMap.zero(t.module, t.module),
        ),
    )
    if d1.matrix + d2.matrix != d.matrix:
        raise AssertionError("split parts do not sum to the input")
    return d1, d2


def inner_witness(t: ModuleExtension, d) -> Optional[Tuple[Element, Element]]:
    """Solve D = ad_{(b,v)} exactly; (b, v) or None.

    The joint system keeps one shared b across the delta1 and tau2
    blocks and forces tau1 = 0.  Certificate: substituting the witness
    back gives ad_{(b,v)} = D exactly.
    """
    d = _require_derivation(t, d)
    total = t.total
    tsb = total.self_bimodule()
    dim = total.dim
    cols = [
        inner_derivation(total, tsb, unit_vec(dim, s)).matrix.flatten()
        for s in range(dim)
    ]
    system = Matrix.from_rows(
        [[cols[s][r] for s in range(dim)] for r in range(dim * dim)]
    )
    x = solve(system, d.matrix.flatten())
    if x is None:
        return None
    if inner_derivation(total, tsb, x).matrix != d.matrix:
        raise AssertionError("witness does not reproduce the derivation")
    b_coords, v_coords = t.split(x)
    return t.base.element(b_coords), t.module.element(v_coords)
