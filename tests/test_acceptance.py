"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Every expected value is either checked against an
independent naive oracle (tests/oracles.py) or is a structural identity
re-verified from scratch here.
"""

import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from modext.algebra import LinearMap
from modext.analysis import radical
from modext.blocks import (
    BlockDecomposition,
    assemble,
    blocks_of,
    check_block_conditions,
    inner_witness,
    split_d1_d2,
)
from modext.cli import main as cli_main
from modext.derivations import (
    derivation_space,
    h1_dimension,
    inner_derivation,
    inner_space,
    is_derivation,
)
from modext.extension import (
    norm_l1,
    quotient_algebra,
    submultiplicativity_constant,
)
from modext.linalg import Matrix, unit_vec, zero_vec
from modext.reports import HypothesisError
from modext.samples import (
    dual_numbers,
    matrix_units,
    upper_triangular_2,
    zero_product,
)

from cases import ALL_NEGATIVE_CASES
from families import row_major
from oracles import (
    derivation_dim,
    inner_dim,
    largest_nilpotent_ideal_dim,
    leibniz_holds,
    tensors_of,
)

ROOT = Path(__file__).resolve().parent.parent


def verdict(number, label, ok, detail=""):
    line = "ACCEPTANCE %d %s: %s" % (number, label, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print("\n" + line)
    assert ok, line


def rand_blocks(rng, t):
    m, n = t.base_dim, t.module_dim
    r = lambda rows, cols: Matrix.from_rows(
        [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    )
    return BlockDecomposition(
        delta1=LinearMap(t.base, t.base, r(m, m)),
        tau1=LinearMap(t.module, t.base, r(m, n)),
        delta2=LinearMap(t.base, t.module, r(n, m)),
        tau2=LinearMap(t.module, t.module, r(n, n)),
    )


def test_criterion_1_block_condition_equivalence(corpus_der_t):
    """C1-C6 together are exactly the Leibniz identity on T(A,U)."""
    start = time.perf_counter()
    rng = random.Random(20260824)
    assert len(corpus_der_t) >= 20
    disagreements = 0
    tuples = 0
    per_pair = 1000 // len(corpus_der_t) + 1
    for name, a, u, t, der in corpus_der_t:
        mul = t.total.mul_tensor
        candidates = [rand_blocks(rng, t) for _ in range(per_pair)]
        for b in candidates:
            d = assemble(t, b)
            oracle = leibniz_holds(mul, mul, mul, d.matrix.data)
            if check_block_conditions(t, b).passed != oracle:
                disagreements += 1
            tuples += 1
        for d in der.basis:
            b = blocks_of(t, d)
            ok = check_block_conditions(t, b).passed
            oracle = leibniz_holds(mul, mul, mul, d.matrix.data)
            if not (ok and oracle):
                disagreements += 1
            tuples += 1
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "block-condition equivalence",
        disagreements == 0 and tuples >= 1000 and elapsed < 60,
        "%d tuples over %d pairs, %d disagreements, %.1fs"
        % (tuples, len(corpus_der_t), disagreements, elapsed),
    )


def test_criterion_2_splitting(corpus_der_t):
    """Every derivation on T splits as D = D1 + D2 with both parts derivations."""
    failures = 0
    checked = 0
    for name, a, u, t, der in corpus_der_t:
        tsb = t.total.self_bimodule()
        for d in der.basis:
            d1, d2 = split_d1_d2(t, d)
            ok = (
                is_derivation(t.total, tsb, d1).passed
                and is_derivation(t.total, tsb, d2).passed
                and d1.matrix + d2.matrix == d.matrix
            )
            failures += 0 if ok else 1
            checked += 1
    verdict(2, "D = D1 + D2 splitting", failures == 0,
            "%d basis derivations, %d failures" % (checked, failures))


def test_criterion_3_innerness(corpus_der_t):
    """inner_witness agrees with membership in the inner subspace."""
    rng = random.Random(3)
    mismatches = 0
    checked = 0
    unrecovered = 0
    for name, a, u, t, der in corpus_der_t:
        tsb = t.total.self_bimodule()
        inn = inner_space(t.total, tsb)
        for d in der.basis:
            w = inner_witness(t, d)
            if (w is not None) != inn.contains_vector(row_major(d.matrix)):
                mismatches += 1
            checked += 1
        for _ in range(3):
            x = [rng.randint(-4, 4) for _ in range(t.total.dim)]
            d = inner_derivation(t.total, tsb, x)
            w = inner_witness(t, LinearMap(t.total, t.total, d.matrix))
            if w is None:
                unrecovered += 1
            else:
                b, v = w
                rec = inner_derivation(t.total, tsb, t.pair(b.coords, v.coords))
                if rec.matrix != d.matrix:
                    unrecovered += 1
            checked += 1
    verdict(3, "innerness witness agreement",
            mismatches == 0 and unrecovered == 0,
            "%d derivations checked" % checked)


def test_criterion_4_known_dimensions():
    """Known Der/Inn/H1 values, each re-derived by the naive oracle."""
    expectations = []
    dual = dual_numbers()
    expectations.append(("dual numbers", dual, dual.self_bimodule(), 1, 0, 1))
    m2 = matrix_units(2)
    expectations.append(("M2", m2, m2.self_bimodule(), 3, 3, 0))
    ut = upper_triangular_2()
    expectations.append(("upper triangular", ut, ut.self_bimodule(), 2, 2, 0))
    for n in (1, 2, 3):
        z = zero_product(n)
        expectations.append(
            ("zero product %d" % n, z, z.self_bimodule(), n * n, 0, n * n)
        )
    ok = True
    for name, a, u, want_der, want_inn, want_h1 in expectations:
        der = derivation_space(a, u).dim
        inn = inner_space(a, u).dim
        h1 = h1_dimension(a, u)
        mul, left, right = tensors_of(a, u)
        oracle_der = derivation_dim(mul, left, right)
        oracle_inn = inner_dim(mul, left, right)
        ok = ok and (der, inn, h1) == (want_der, want_inn, want_h1)
        ok = ok and (der, inn) == (oracle_der, oracle_inn)
    verdict(4, "known dimensions vs naive oracle", ok,
            "%d fixtures" % len(expectations))


def test_criterion_5_constructions(corpus_der_t):
    """Recipes emit only verified derivations; broken hypotheses are rejected."""
    from modext.constructions import lift

    closure_failures = 0
    built = 0
    for name, a, u, t, _ in corpus_der_t:
        for delta in derivation_space(a, u).basis:
            res = lift(t, delta)
            if not is_derivation(
                res.extension.total, res.extension.total.self_bimodule(),
                res.derivation,
            ).passed:
                closure_failures += 1
            built += 1
    negative_counts = {}
    bad_rejections = 0
    for recipe, maker in ALL_NEGATIVE_CASES.items():
        count = 0
        for label, thunk in maker():
            try:
                thunk()
                bad_rejections += 1  # should have raised
            except HypothesisError as e:
                if not e.hypothesis:
                    bad_rejections += 1
                count += 1
        negative_counts[recipe] = count
    ok = (
        closure_failures == 0
        and bad_rejections == 0
        and all(c >= 10 for c in negative_counts.values())
    )
    verdict(5, "constructions closure and rejection", ok,
            "%d built, negatives per recipe %s" % (built, sorted(
                negative_counts.items())))


def test_criterion_6_radical(corpus_extensions):
    """Radical contains 0+U, A/rad is semisimple, trace matches the oracle."""
    ok = True
    seen = {}
    for name, a, u, t in corpus_extensions:
        rad_t = radical(t.total).radical
        for j in range(u.dim):
            if not rad_t.contains_vector(t.pair(zero_vec(a.dim), unit_vec(u.dim, j))):
                ok = False
        key = repr(a.mul_tensor)
        if key in seen:
            continue
        seen[key] = name
        rad = radical(a).radical
        q, _ = quotient_algebra(a, rad)
        if q.dim > 0 and not radical(q).is_semisimple:
            ok = False
        if a.dim <= 4:
            oracle = largest_nilpotent_ideal_dim(
                [[list(row) for row in plane] for plane in a.mul_tensor]
            )
            if rad.dim != oracle:
                ok = False
    verdict(6, "radical properties", ok,
            "%d extensions, %d distinct algebras" % (len(corpus_extensions),
                                                     len(seen)))


def test_criterion_7_norm_constant(corpus_pairs):
    """||xy|| <= C ||x|| ||y|| on 10^4 random pairs per algebra, C attained."""
    rng = random.Random(7)
    ok = True
    seen = {}
    for name, a, _ in corpus_pairs:
        key = repr(a.mul_tensor)
        if key in seen:
            continue
        seen[key] = name
        c = submultiplicativity_constant(a)
        for _ in range(10_000):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(a.dim)]
            y = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(a.dim)]
            if norm_l1(a.mul_vec(x, y)) > c * norm_l1(x) * norm_l1(y):
                ok = False
                break
        if c > 0:
            attained = any(
                norm_l1(a.mul_basis(i, j)) == c
                for i in range(a.dim)
                for j in range(a.dim)
            )
        else:  # C = 0 means every product vanishes; equality is everywhere
            attained = all(
                norm_l1(a.mul_basis(i, j)) == 0
                for i in range(a.dim)
                for j in range(a.dim)
            )
        ok = ok and attained
    verdict(7, "l1 norm constant", ok,
            "%d distinct algebras x 10^4 pairs" % len(seen))


def test_criterion_8_cli_determinism(capsys):
    """Every CLI command is byte-identical across repeated runs, and its
    stdout matches the sha256 digest in perfbench/cli_expected.json."""
    expected = json.loads(
        (ROOT / "perfbench" / "cli_expected.json").read_text(encoding="utf-8")
    )
    commands = [
        ["validate", "data/dual_numbers.json"],
        ["validate", "data/m2.json"],
        ["validate", "data/zero_product2.json"],
        ["der", "data/dual_numbers.json", "--inner", "--h1"],
        ["der", "data/m2.json", "--inner", "--h1"],
        ["decompose", "data/dual_numbers.json", "--map", "D"],
        ["decompose", "data/m2.json", "--map", "D"],
        ["construct", "lift", "data/dual_numbers.json"],
        ["construct", "transport", "data/transport.json"],
        ["construct", "quotient", "data/upper_triangular.json"],
        ["construct", "corner", "data/m2.json"],
        ["analyze", "data/dual_numbers.json", "--radical", "--unit", "--submult"],
        ["analyze", "data/m2.json", "--simple", "--annihilator"],
    ]
    ok = len(expected) == 2 * len(commands)
    mismatched = []
    for argv in commands:
        for extra in ([], ["--json"]):
            key = " ".join(argv + extra)
            resolved = [str(ROOT / x) if x.endswith(".json") else x for x in argv]
            outputs = []
            for _ in range(3):
                code = cli_main(resolved + extra)
                outputs.append(capsys.readouterr().out)
                if code != 0:
                    ok = False
            if len(set(outputs)) != 1:
                ok = False
            digest = hashlib.sha256(outputs[0].encode("utf-8")).hexdigest()
            if digest != expected.get(key):
                mismatched.append(key)
    verdict(8, "CLI determinism", ok and not mismatched,
            "%d commands x 2 formats x 3 runs; golden digest mismatches: %s"
            % (len(commands), mismatched or "none"))


def test_criterion_9_continuity_scope_is_documented():
    """The docs must say the continuity theorems are vacuous here."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    ok = (
        "finite dimension" in readme
        and "vacuous" in readme
        and "automatic continuity" in readme.lower()
    )
    verdict(9, "continuity scope documented", ok, "README.md statement")
