"""Block structure of linear maps on T(A,U).

A linear map D on T(A,U) splits into four corner blocks
D((a,u)) = (delta1(a) + tau1(u), delta2(a) + tau2(u)).  D is a
derivation exactly when

  C1  delta1 is a derivation on A,
  C2  delta2 is a derivation A -> U,
  C3  tau2(a u) = a tau2(u) + delta1(a) u,
  C4  tau2(u a) = tau2(u) a + u delta1(a),
  C5  tau1 is a two-sided A-module homomorphism U -> A,
  C6  u tau1(v) + tau1(u) v = 0.

Read row by row, C1-C6 are the Leibniz identity on T, split by the block
(A or U) of x, of y and of the output coordinate k of row (x, y, k):

  (A, A, A) C1    (A, U, U) C3    (A, U, A) C5, left     (U, U, U) C6
  (A, A, U) C2    (U, A, U) C4    (U, A, A) C5, right

Rows (U, U, A) are identically zero, because U U = 0 in T.  The checker
sums both sides of the Leibniz identity on T at all basis pairs at once,
in integers, takes each failing pair's sides as those integer sides
divided by the known scale (T's tables' denominator times D's), and
sorts each differing coordinate by this table (BLOCK_TABLE).

Every derivation splits as D = D1 + D2 with D2((a,u)) = (0,
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

from typing import NamedTuple, Optional, Tuple

from .algebra import Element, LinearMap, _sum_sparse
from .derivations import _failing_pairs, _inner, is_derivation
from .extension import ModuleExtension
from .linalg import _dense
from .reports import ConditionReport, require

C5 = "C5: tau1 is an A-bimodule homomorphism"
C6 = "C6: u tau1(v) + tau1(u) v = 0"

# Leibniz row (x, y, k) on T, keyed by (x in U, y in U, k in U): the
# condition it belongs to, in report order.  Rows (U, U, A) are zero.
BLOCK_TABLE = {
    (False, False, False): "C1: delta1 in Der(A)",
    (False, False, True): "C2: delta2 in Der(A,U)",
    (False, True, True): "C3: tau2(au) = a tau2(u) + delta1(a) u",
    (True, False, True): "C4: tau2(ua) = tau2(u) a + u delta1(a)",
    (False, True, False): C5,  # left identity
    (True, False, False): C5,  # right identity
    (True, True, True): C6,
}


class BlockDecomposition(NamedTuple):
    """The four blocks of a map on T; a block left as None is zero."""

    delta1: Optional[LinearMap] = None  # A -> A
    tau1: Optional[LinearMap] = None    # U -> A
    delta2: Optional[LinearMap] = None  # A -> U
    tau2: Optional[LinearMap] = None    # U -> U


def blocks_of(t: ModuleExtension, d: LinearMap) -> BlockDecomposition:
    """Corner blocks of a square map on T in the (A, U) split; lossless."""
    m, n = t.base_dim, t.module_dim
    if d.source.dim != m + n or d.target.dim != m + n:
        raise ValueError("map is not square of dimension dim A + dim U")
    a, u = t.base, t.module
    top = lambda cols: [{r: x for r, x in col.items() if r < m} for col in cols]
    bottom = lambda cols: [{r - m: x for r, x in col.items() if r >= m} for col in cols]
    on_a, on_u = d.columns[:m], d.columns[m:]
    return BlockDecomposition(
        delta1=LinearMap._from_columns(a, a, top(on_a)),
        tau1=LinearMap._from_columns(u, a, top(on_u)),
        delta2=LinearMap._from_columns(a, u, bottom(on_a)),
        tau2=LinearMap._from_columns(u, u, bottom(on_u)),
    )


def assemble(t: ModuleExtension, b: BlockDecomposition) -> LinearMap:
    """Block matrix [[delta1, tau1], [delta2, tau2]] as a map on T; a
    block left as None is filled with zeros, and a block whose dimensions
    are not its corner's raises ValueError."""
    m, n = t.base_dim, t.module_dim
    cols = [{} for _ in range(m + n)]
    corners = ((0, m, 0, m), (0, m, m, n), (m, n, 0, m), (m, n, m, n))  # (row, rows, col, cols)
    for name, block, (r0, rows, c0, width) in zip(b._fields, b, corners):
        if block is None:
            continue
        if (block.target.dim, block.source.dim) != (rows, width):
            raise ValueError("%s is %d x %d, not %d x %d" % (
                name, block.target.dim, block.source.dim, rows, width))
        for col, entries in zip(cols[c0:], block.columns):
            col.update((r0 + r, x) for r, x in entries.items())
    return LinearMap._from_columns(t.total, t.total, cols)


def check_block_conditions(t: ModuleExtension, b: BlockDecomposition) -> ConditionReport:
    """The six block conditions equivalent to D being a derivation.

    Each condition is the set of Leibniz identities on T, one per basis
    pair and output coordinate, that BLOCK_TABLE assigns to it.  A failing
    condition's witness is its first failing pair, A index first, with
    C5's left identity before its right one, and the two sides of the
    Leibniz identity at that pair cut to the block of the coordinate.
    """
    m = t.base_dim
    first = {}
    for (x, y), lhs, rhs in _failing_pairs(t.total, t.total.self_bimodule(), assemble(t, b)):
        i, j = x - m * (x >= m), y - m * (y >= m)
        indices = (j, i) if x >= m > y else (i, j)
        key = (x >= m, indices)
        for in_u, part in ((False, slice(0, m)), (True, slice(m, None))):
            if lhs[part] == rhs[part]:
                continue
            name = BLOCK_TABLE[x >= m, y >= m, in_u]
            if name not in first or key < first[name][0]:
                # C6 states that the right side of the identity is zero
                sides = (rhs[part], lhs[part]) if name == C6 else (lhs[part], rhs[part])
                first[name] = (key, (indices,) + sides)

    rep = ConditionReport("block conditions")
    for name in dict.fromkeys(BLOCK_TABLE.values()):
        rep.add(name, name not in first, witness=first[name][1] if name in first else None)

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


def _require_derivation(t: ModuleExtension, d: LinearMap):
    require(is_derivation(t.total, t.total.self_bimodule(), d),
            "input is not a derivation on T(A,U)")


def split_d1_d2(t: ModuleExtension, d: LinearMap) -> Tuple[LinearMap, LinearMap]:
    """Write a derivation D on T as D1 + D2 with D2((a,u)) = (0, delta2(a)).

    The input is checked to be a derivation.  D2 is one by C2, so D1 =
    D - D2 is one too.  The blocks are D's own entries, so D1 + D2 = D.
    """
    b = blocks_of(t, d)
    _require_derivation(t, d)
    d1 = assemble(t, BlockDecomposition(b.delta1, b.tau1, None, b.tau2))
    d2 = assemble(t, BlockDecomposition(delta2=b.delta2))
    return d1, d2


def inner_witness(t: ModuleExtension, d: LinearMap) -> Optional[Tuple[Element, Element]]:
    """Solve D = ad_{(b,v)} exactly; (b, v) or None.

    x sums the preimages of Inn's rows in T's kept elimination (``_inner``)
    by D's entries at Inn's pivots, so x is 0 at the center's pivots; it
    keeps one b across the delta1 and tau2 blocks and forces tau1 = 0.
    Certificate: T's ad columns summed over x are D's nonzero entries, which
    proves D a derivation: the Leibniz identity is checked only if it fails.
    """
    n = t.total.dim
    if d.source.dim != n or d.target.dim != n:
        raise ValueError("map is not square of dimension dim A + dim U")
    kept = _inner(t.total, t.total.self_bimodule())
    entries = {r * n + s: x for s, col in enumerate(d.columns) for r, x in col.items()}
    x = _sum_sparse(((j, entries[p]) for j, p in enumerate(kept.inn.pivots) if p in entries),
                    kept.preimages)
    if _sum_sparse(x.items(), kept.columns) != entries:
        _require_derivation(t, d)
        return None
    b_coords, v_coords = t.split(_dense(x, n))
    return Element(t.base, b_coords), Element(t.module, v_coords)
