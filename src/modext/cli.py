"""Command-line interface.

Five subcommands over the JSON interchange format:

  validate    check the algebra / bimodule axioms of a file
  der         derivation space, inner derivations, H1
  decompose   block decomposition and innerness of a map on T(A,U)
  construct   the four derivation-building recipes
  analyze     center, radical, simplicity, annihilator, norm constant

Exit codes: 0 success, 1 axiom or hypothesis failure, 2 input error.
Output is deterministic: identical inputs and seed give identical bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import io as fileio
from .algebra import ValidationError, annihilator
from .analysis import (
    center,
    is_idempotent,
    is_simple_prime,
    min_poly,
    radical,
)
from .blocks import blocks_of, check_block_conditions, inner_witness, split_d1_d2
from .constructions import corner_tau, lift, quotient_derivation, transport
from .derivations import derivation_space, inner_space
from .extension import submultiplicativity_constant
from .reports import ConditionReport, HypothesisError


def _fmt(x) -> str:
    return str(Fraction(x))


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt(x) for x in v) + "]"


def _fmt_matrix(m) -> list:
    return [_fmt_vec(row) for row in m.data]


def _witness_json(w):
    if w is None:
        return None
    idx, lhs, rhs = w
    return {"indices": list(idx), "lhs": [_fmt(x) for x in lhs], "rhs": [_fmt(x) for x in rhs]}


def _report_json(rep: ConditionReport):
    return {
        "title": rep.title,
        "passed": rep.passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "witness": _witness_json(c.witness),
                "note": c.note,
                "informational": c.informational,
            }
            for c in rep.checks
        ],
    }


class Output:
    """Accumulates an ordered result tree; renders text or JSON."""

    def __init__(self):
        self.doc = {}

    def put(self, key, value):
        self.doc[key] = value

    def report(self, key, rep: ConditionReport):
        self.doc[key] = _report_json(rep)

    def render(self, as_json: bool) -> str:
        if as_json:
            return json.dumps(self.doc, indent=2) + "\n"
        lines = []
        self._render_value(lines, self.doc, 0)
        return "\n".join(lines) + "\n"

    def _render_value(self, lines, value, depth):
        pad = "  " * depth
        if isinstance(value, dict):
            for k, v in value.items():
                if isinstance(v, (dict, list)) and v and not _is_flat_list(v):
                    lines.append("%s%s:" % (pad, k))
                    self._render_value(lines, v, depth + 1)
                else:
                    lines.append("%s%s: %s" % (pad, k, _flat(v)))
        elif isinstance(value, list):
            for v in value:
                if isinstance(v, (dict, list)) and v and not _is_flat_list(v):
                    lines.append("%s-" % pad)
                    self._render_value(lines, v, depth + 1)
                else:
                    lines.append("%s- %s" % (pad, _flat(v)))
        else:
            lines.append("%s%s" % (pad, _flat(value)))


def _is_flat_list(v):
    return isinstance(v, list) and all(
        not isinstance(x, (dict, list)) for x in v
    )


def _flat(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "none"
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    if isinstance(v, dict):
        return json.dumps(v)
    return str(v)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _map(art, name: str, source: str, target: str):
    """The named map of the file, which must be declared source -> target."""
    entry = art.maps.get(name)
    if entry is not None and (entry.source, entry.target) != (source, target):
        raise fileio.ParseError("maps", "map %r is declared %s -> %s, not %s -> %s"
                                % (name, entry.source, entry.target, source, target))
    return art.linear_map(name)


def cmd_validate(args, art, out: Output) -> None:
    n = art.algebra.dim  # the constructors enforced the axioms
    out.put("algebra_dim", n)
    out.put(
        "associativity", "%d/%d identities hold" % (n**3, n**3)
    )
    if art.module is not None:
        out.report("bimodule_axioms", art.module.report)
    out.put("valid", True)


def cmd_der(args, art, out: Output) -> None:
    a = art.algebra
    if args.module == "file":
        u = art.bimodule()
        out.put("module", "file bimodule (dim %d)" % u.dim)
    else:
        u = a.self_bimodule()
        out.put("module", "A as a bimodule over itself")
    der = derivation_space(a, u)
    out.put("dim Der", der.dim)
    out.put("der_basis", [_fmt_matrix(d.matrix) for d in der.basis])
    if args.inner or args.h1:
        inn = inner_space(a, u)
        out.put("dim Inn", inn.dim)
        if args.inner:
            out.put("inner_basis", [_fmt_vec(v) for v in inn.basis])
    if args.h1:
        out.put("H1", der.dim - inn.dim)


def cmd_decompose(args, art, out: Output) -> None:
    t = art.extension()
    d = _map(art, args.map, "total", "total")
    b = blocks_of(t, d)
    out.put("blocks", {name: _fmt_matrix(block.matrix) for name, block in b._asdict().items()})
    rep = check_block_conditions(t, b)
    out.report("block_conditions", rep)
    # C1-C6 together are the Leibniz identity on T
    out.put("is_derivation", rep.passed)
    if rep.passed:
        d1, d2 = split_d1_d2(t, d)
        out.put("split", {
            "D1": _fmt_matrix(d1.matrix),
            "D2": _fmt_matrix(d2.matrix),
        })
        witness = inner_witness(t, d)
        if witness is None:
            out.put("inner", "not inner")
        else:
            bb, vv = witness
            out.put("inner", {
                "b": _fmt_vec(bb.coords),
                "v": _fmt_vec(vv.coords),
            })


def _write_result(args, out: Output, result) -> None:
    out.put("recipe", result.recipe)
    out.put("extension", {
        "base_dim": result.extension.base_dim,
        "module_dim": result.extension.module_dim,
        "total_dim": result.extension.total.dim,
    })
    out.put("derivation", _fmt_matrix(result.derivation.matrix))
    out.report("verification", result.verification)
    if args.out:
        t = result.extension
        doc = fileio.algebra_to_document(
            t.base,
            module=t.module,
            maps=[("D", "total", "total", result.derivation.matrix)],
        )
        try:
            fileio.save_file(args.out, doc)
        except OSError as e:
            raise fileio.ParseError("--out", str(e))
        out.put("written", os.path.basename(args.out))


def cmd_construct(args, art, out: Output) -> None:
    a = art.algebra
    if args.recipe == "lift":
        t = art.extension()
        result = lift(t, _map(art, args.delta, "algebra", "module"))
    elif args.recipe == "transport":
        t = art.extension()
        result = transport(
            t,
            _map(art, args.delta, "algebra", "algebra"),
            _map(art, args.phi, "algebra", "module"),
            _map(art, args.psi, "module", "algebra"),
        )
    elif args.recipe == "quotient":
        if args.ideal not in art.subspaces:
            raise fileio.ParseError("subspaces", "no subspace named %r" % args.ideal)
        result = quotient_derivation(
            a, art.subspaces[args.ideal], _map(art, args.delta, "algebra", "algebra")
        )
    else:  # corner
        result = corner_tau(
            a,
            art.algebra_element(args.idempotent),
            _map(art, args.delta, "algebra", "algebra"),
        )
    _write_result(args, out, result)


def _env_seed() -> int:
    env = os.environ.get("MODEXT_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise fileio.ParseError("MODEXT_SEED", "not an integer seed: %r" % env)


def cmd_analyze(args, art, out: Output) -> None:
    a = art.algebra
    if args.center:
        z = center(a)
        out.put("center", {
            "dim": z.dim,
            "basis": [_fmt_vec(v) for v in z.basis],
        })
    if args.radical:
        rep = radical(a)
        out.put("radical", {
            "dim": rep.radical.dim,
            "basis": [_fmt_vec(v) for v in rep.radical.basis],
            "semisimple": rep.is_semisimple,
            "note": rep.note,
        })
    if args.unit:
        e = a.unit()
        out.put("unit", None if e is None else _fmt_vec(e))
    if args.simple:
        rep = is_simple_prime(a, seed=args.seed)
        out.put("simple", {
            "simple": rep.simple,
            "prime": rep.prime,
            "evidence": rep.evidence,
        })
    if args.annihilator:
        ann = annihilator(a, art.bimodule())
        out.put("annihilator", {
            "dim": ann.dim,
            "basis": [_fmt_vec(v) for v in ann.basis],
        })
    if args.idempotent is not None:
        coords = art.algebra_element(args.idempotent)
        out.put("idempotent", {
            "name": args.idempotent,
            "idempotent": is_idempotent(a, coords),
            "nontrivial": any(coords),
            "min_poly": str(min_poly(a, coords)),
        })
    if args.submult:
        out.put("submultiplicativity_constant", _fmt(submultiplicativity_constant(a)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modext",
        description="Exact toolkit for module-extension algebras and their derivations.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("file", help="input JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("validate", help="check algebra / bimodule axioms")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("der", help="derivation space, inner derivations, H1")
    common(p)
    p.add_argument("--module", choices=["self", "file"], default="self")
    p.add_argument("--inner", action="store_true")
    p.add_argument("--h1", action="store_true")
    p.set_defaults(func=cmd_der)

    p = sub.add_parser("decompose", help="block decomposition of a map on T(A,U)")
    common(p)
    p.add_argument("--map", required=True, help="name of the map in the file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("construct", help="build a verified derivation")
    p.add_argument("recipe", choices=["lift", "transport", "quotient", "corner"])
    common(p)
    p.add_argument("--delta", default="delta", help="name of the derivation map")
    p.add_argument("--phi", default="phi")
    p.add_argument("--psi", default="psi")
    p.add_argument("--ideal", default="I", help="name of the ideal subspace")
    p.add_argument("--idempotent", default="p", help="name of the idempotent element")
    p.add_argument("--out", help="write the resulting T(A,U) and D to this file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="structural invariants and predicates")
    common(p)
    p.add_argument("--center", action="store_true")
    p.add_argument("--radical", action="store_true")
    p.add_argument("--unit", action="store_true")
    p.add_argument("--simple", action="store_true")
    p.add_argument("--annihilator", action="store_true")
    p.add_argument("--idempotent", metavar="NAME")
    p.add_argument("--submult", action="store_true")
    p.add_argument(
        "--seed",
        type=int,
        help="seed for the randomized simplicity probe (default: MODEXT_SEED or 0)",
    )
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd == "analyze" and args.seed is None:  # refused before the file is read
            args.seed = _env_seed()
        out = Output()
        out.put("command", args.cmd)
        out.put("input", os.path.basename(args.file))
        out.put("input_digest", _digest(args.file))
        args.func(args, fileio.load_file(args.file), out)
        sys.stdout.write(out.render(args.json))
        return 0
    except (fileio.ParseError, OSError) as e:
        sys.stderr.write("input error: %s\n" % e)
        return 2
    except ValidationError as e:
        sys.stderr.write("axiom violation: %s\n" % e)
        sys.stderr.write(e.report.summary() + "\n")
        return 1
    except HypothesisError as e:
        sys.stderr.write("hypothesis failure: %s\n" % e)
        if e.report is not None:
            sys.stderr.write(e.report.summary() + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
