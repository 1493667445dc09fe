"""Deliberately broken hypothesis cases for the construction recipes.

Each generator returns a list of (label, thunk) pairs.  Every thunk runs
one recipe with exactly one hypothesis violated and must raise
HypothesisError.  The lists are shared between the unit tests and the
acceptance suite, which requires at least ten rejections per recipe.
"""

from modext.algebra import LinearMap
from modext.constructions import corner_tau, lift, quotient_derivation, transport
from modext.extension import trivial_extension
from modext.linalg import Matrix, Subspace, unit_vec, zero_vec
from modext.samples import (
    column_module,
    dual_numbers,
    field_q,
    matrix_units,
    q_plus_q,
    truncated_poly,
    upper_triangular_2,
    zero_action_module,
    zero_product,
)

from families import left_mul_matrix


def _mat(rows):
    return Matrix.from_rows(rows)


def euler_matrix():
    """t d/dt on Q[t]/(t^3): t^k -> k t^k."""
    return _mat([[0, 0, 0], [0, 1, 0], [0, 0, 2]])


def lift_negative_cases():
    """Non-derivation deltas fed to lift on assorted extensions."""
    cases = []

    def add(label, a, u, delta_rows):
        t = trivial_extension(a, u)
        delta = LinearMap(t.base, t.module, _mat(delta_rows))
        cases.append((label, lambda t=t, d=delta: lift(t, d)))

    dual = dual_numbers()
    add("dual self: unit sent to unit", dual, dual.self_bimodule(),
        [[1, 0], [0, 0]])
    add("dual self: identity map", dual, dual.self_bimodule(),
        [[1, 0], [0, 1]])
    add("dual self: all-ones map", dual, dual.self_bimodule(),
        [[1, 1], [1, 1]])
    m2 = matrix_units(2)
    i4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    add("M2 self: identity map", m2, m2.self_bimodule(), i4)
    add("M2 self: doubled identity", m2, m2.self_bimodule(),
        [[2 if i == j else 0 for j in range(4)] for i in range(4)])
    ut = upper_triangular_2()
    add("upper-triangular self: identity map", ut, ut.self_bimodule(),
        [[1 if i == j else 0 for j in range(3)] for i in range(3)])
    t3 = truncated_poly(3)
    add("Q[t]/t^3 self: identity map", t3, t3.self_bimodule(),
        [[1 if i == j else 0 for j in range(3)] for i in range(3)])
    qq = q_plus_q()
    add("QxQ self: identity map", qq, qq.self_bimodule(),
        [[1, 0], [0, 1]])
    q = field_q()
    add("Q self: identity map", q, q.self_bimodule(), [[1]])
    add("M2 column module: everything to v0", m2, column_module(2, m2),
        [[1, 1, 1, 1], [0, 0, 0, 0]])
    add("dual zero-action: all-ones map", dual, zero_action_module(dual, 2),
        [[1, 1], [1, 1]])
    return cases


def transport_negative_cases():
    """Each hypothesis of transport broken in turn."""
    cases = []

    def add(label, a, delta_rows, phi_rows, psi_rows):
        u = a.self_bimodule()
        t = trivial_extension(a, u)
        delta = LinearMap(a, a, _mat(delta_rows))
        phi = LinearMap(a, u, _mat(phi_rows))
        psi = LinearMap(u, a, _mat(psi_rows))
        cases.append(
            (label, lambda t=t, d=delta, p=phi, s=psi: transport(t, d, p, s))
        )

    eps_scaling = [[0, 0], [0, 1]]
    i2 = [[1, 0], [0, 1]]
    add("dual: phi kills eps to 1 (not a hom)", dual_numbers(),
        eps_scaling, [[0, 1], [0, 0]], i2)
    add("dual: phi takes the 1-component (not a hom)", dual_numbers(),
        eps_scaling, [[1, 0], [0, 0]], i2)
    add("dual: psi kills eps to 1 (not a hom)", dual_numbers(),
        eps_scaling, i2, [[0, 1], [0, 0]])
    add("dual: psi takes the 1-component (not a hom)", dual_numbers(),
        eps_scaling, i2, [[1, 0], [0, 0]])
    add("dual: phi o psi projects onto eps, not identity", dual_numbers(),
        eps_scaling, eps_scaling, eps_scaling)
    add("dual: phi o psi doubles, not identity", dual_numbers(),
        eps_scaling, [[2, 0], [0, 2]], i2)
    add("dual: delta is the identity, not a derivation", dual_numbers(),
        i2, i2, i2)
    add("dual: delta sends 1 to 1, not a derivation", dual_numbers(),
        [[1, 0], [0, 0]], i2, i2)
    m2 = matrix_units(2)
    i4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    z4 = [[0] * 4 for _ in range(4)]
    add("M2: delta is the identity, not a derivation", m2, i4, i4, i4)
    left_e11 = left_mul_matrix(m2, unit_vec(4, 0))
    add("M2: phi is left multiplication by E11 (right hom only)", m2,
        z4, left_e11.data, i4)
    add("QxQ: phi swaps the factors (not a hom)", q_plus_q(),
        [[0, 0], [0, 0]], [[0, 1], [1, 0]], i2)
    return cases


def quotient_negative_cases():
    """Non-ideals, non-derivations, and deltas that do not preserve I."""
    cases = []

    def add(label, a, ideal_vectors, delta_rows):
        ideal = Subspace(a.dim, ideal_vectors)
        delta = LinearMap(a, a, _mat(delta_rows))
        cases.append(
            (label, lambda a=a, i=ideal, d=delta: quotient_derivation(a, i, d))
        )

    m2 = matrix_units(2)
    z4 = [[0] * 4 for _ in range(4)]
    i4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    add("M2: span{E11} is not an ideal", m2, [unit_vec(4, 0)], z4)
    add("M2: span{E12} is not an ideal", m2, [unit_vec(4, 1)], z4)
    t3 = truncated_poly(3)
    z3 = [[0] * 3 for _ in range(3)]
    i3 = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    add("Q[t]/t^3: span{t} is not an ideal", t3, [unit_vec(3, 1)], z3)
    ut = upper_triangular_2()
    add("triangle: span{E11} is not an ideal", ut, [unit_vec(3, 0)], z3)
    add("triangle: span{E22} is not an ideal", ut, [unit_vec(3, 2)], z3)
    dual = dual_numbers()
    add("dual: span{1} is not an ideal", dual, [unit_vec(2, 0)],
        [[0, 0], [0, 0]])
    z2 = zero_product(2)
    add("zero-product 2: swap map leaks out of span{z0}", z2,
        [unit_vec(2, 0)], [[0, 1], [1, 0]])
    zp3 = zero_product(3)
    add("zero-product 3: cyclic shift leaks out of span{z0, z1}", zp3,
        [unit_vec(3, 0), unit_vec(3, 1)],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    add("dual: identity delta is not a derivation", dual, [unit_vec(2, 1)],
        [[1, 0], [0, 1]])
    add("M2: identity delta is not a derivation", m2, [], i4)
    add("triangle: identity delta is not a derivation", ut, [unit_vec(3, 1)],
        i3)
    return cases


def corner_negative_cases():
    """Non-idempotents and non-derivations fed to the corner recipe."""
    cases = []

    def add(label, a, p, delta_rows=None):
        n = a.dim
        if delta_rows is None:
            delta_rows = [[0] * n for _ in range(n)]
        delta = LinearMap(a, a, _mat(delta_rows))
        cases.append((label, lambda a=a, p=p, d=delta: corner_tau(a, p, d)))

    m2 = matrix_units(2)
    add("M2: E12 squares to zero", m2, unit_vec(4, 1))
    add("M2: 2 E11 is not idempotent", m2, [2, 0, 0, 0])
    add("M2: p = 0 is trivial", m2, zero_vec(4))
    dual = dual_numbers()
    add("dual: eps squares to zero", dual, unit_vec(2, 1))
    add("dual: 1 + eps is not idempotent", dual, [1, 1])
    t3 = truncated_poly(3)
    add("Q[t]/t^3: t is nilpotent", t3, unit_vec(3, 1))
    ut = upper_triangular_2()
    add("triangle: E12 squares to zero", ut, unit_vec(3, 1))
    add("Q: 2 is not idempotent", field_q(), [2])
    i4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    i3 = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    add("M2: identity delta is not a derivation", m2, unit_vec(4, 0), i4)
    add("triangle: identity delta is not a derivation", ut, unit_vec(3, 0), i3)
    add("Q[t]/t^3: identity delta is not a derivation", t3, unit_vec(3, 0), i3)
    return cases


ALL_NEGATIVE_CASES = {
    "lift": lift_negative_cases,
    "transport": transport_negative_cases,
    "quotient": quotient_negative_cases,
    "corner": corner_negative_cases,
}
