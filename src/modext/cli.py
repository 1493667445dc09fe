"""Command-line interface.

Five subcommands over the JSON interchange format:

  validate    check the algebra / bimodule axioms of a file
  der         derivation space, inner derivations, H1
  decompose   block decomposition and innerness of a map on T(A,U)
  construct   the four derivation-building recipes
  analyze     center, radical, simplicity, annihilator, norm constant

Each command writes its result into one dict, printed as indented text
or, with --json, as JSON.  Exit codes: 0 success, 1 axiom or hypothesis
failure, 2 input error.  Output is deterministic: identical inputs and
--seed give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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


def _fmt_vec(v) -> str:
    return "[" + ", ".join(map(str, v)) + "]"


def _fmt_matrix(m) -> list:
    return [_fmt_vec(row) for row in m.data]


def _space(s) -> dict:
    return {"dim": s.dim, "basis": [_fmt_vec(v) for v in s.basis]}


def _witness_json(w):
    if w is None:
        return None
    idx, lhs, rhs = w
    return {"indices": list(idx), "lhs": list(map(str, lhs)), "rhs": list(map(str, rhs))}


def _report_json(rep: ConditionReport):
    return {"title": rep.title, "passed": rep.passed,
            "checks": [{**c._asdict(), "witness": _witness_json(c.witness)} for c in rep.checks]}


def _render(doc: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(doc, indent=2) + "\n"
    return "\n".join(_lines(doc, 0)) + "\n"


def _lines(value, depth):
    """The text rendering of a dict or list: one line per entry, headed
    ``key:`` or ``-``, a nested entry as an indented block below its head."""
    pad = "  " * depth
    if isinstance(value, dict):
        entries = (("%s:" % k, v) for k, v in value.items())
    else:
        entries = (("-", v) for v in value)
    for head, v in entries:
        if _nested(v):
            yield pad + head
            yield from _lines(v, depth + 1)
        else:
            yield "%s%s %s" % (pad, head, _flat(v))


def _nested(v) -> bool:
    if isinstance(v, dict):
        return bool(v)
    return isinstance(v, list) and any(isinstance(x, (dict, list)) for x in v)


def _flat(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "none"
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


def cmd_validate(args, art, out: dict) -> None:
    n = art.algebra.dim  # the constructors enforced the axioms
    out["algebra_dim"] = n
    out["associativity"] = "%d/%d identities hold" % (n**3, n**3)
    if art.module is not None:
        out["bimodule_axioms"] = _report_json(art.module.report)
    out["valid"] = True


def cmd_der(args, art, out: dict) -> None:
    a = art.algebra
    if args.module == "file":
        u = art.bimodule()
        out["module"] = "file bimodule (dim %d)" % u.dim
    else:
        u = a.self_bimodule()
        out["module"] = "A as a bimodule over itself"
    der = derivation_space(a, u)
    out["dim Der"] = der.dim
    out["der_basis"] = [_fmt_matrix(d.matrix) for d in der.basis]
    if args.inner or args.h1:
        inn = inner_space(a, u)
        out["dim Inn"] = inn.dim
        if args.inner:
            out["inner_basis"] = [_fmt_vec(v) for v in inn.basis]
    if args.h1:
        out["H1"] = der.dim - inn.dim


def cmd_decompose(args, art, out: dict) -> None:
    t = art.extension()
    d = art.linear_map(args.map, "total", "total")
    b = blocks_of(t, d)
    out["blocks"] = {name: _fmt_matrix(block.matrix) for name, block in b._asdict().items()}
    rep = check_block_conditions(t, b)
    out["block_conditions"] = _report_json(rep)
    # C1-C6 together are the Leibniz identity on T
    out["is_derivation"] = rep.passed
    if rep.passed:
        d1, d2 = split_d1_d2(t, d)
        out["split"] = {"D1": _fmt_matrix(d1.matrix), "D2": _fmt_matrix(d2.matrix)}
        witness = inner_witness(t, d)
        if witness is None:
            out["inner"] = "not inner"
        else:
            bb, vv = witness
            out["inner"] = {"b": _fmt_vec(bb.coords), "v": _fmt_vec(vv.coords)}


def _write_result(args, out: dict, result) -> None:
    out["recipe"] = result.recipe
    out["extension"] = {
        "base_dim": result.extension.base_dim,
        "module_dim": result.extension.module_dim,
        "total_dim": result.extension.total.dim,
    }
    out["derivation"] = _fmt_matrix(result.derivation.matrix)
    out["verification"] = _report_json(result.verification)
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
        out["written"] = os.path.basename(args.out)


def cmd_construct(args, art, out: dict) -> None:
    a = art.algebra
    if args.recipe == "lift":
        t = art.extension()
        result = lift(t, art.linear_map(args.delta, "algebra", "module"))
    elif args.recipe == "transport":
        t = art.extension()
        result = transport(
            t,
            art.linear_map(args.delta, "algebra", "algebra"),
            art.linear_map(args.phi, "algebra", "module"),
            art.linear_map(args.psi, "module", "algebra"),
        )
    elif args.recipe == "quotient":
        result = quotient_derivation(
            a, art.subspace(args.ideal), art.linear_map(args.delta, "algebra", "algebra")
        )
    else:  # corner
        result = corner_tau(
            a,
            art.algebra_element(args.idempotent),
            art.linear_map(args.delta, "algebra", "algebra"),
        )
    _write_result(args, out, result)


def cmd_analyze(args, art, out: dict) -> None:
    a = art.algebra
    if args.center:
        out["center"] = _space(center(a))
    if args.radical:
        rep = radical(a)
        out["radical"] = {**_space(rep.radical), "semisimple": rep.is_semisimple, "note": rep.note}
    if args.unit:
        e = a.unit()
        out["unit"] = None if e is None else _fmt_vec(e)
    if args.simple:
        rep = is_simple_prime(a, seed=args.seed)
        out["simple"] = {"simple": rep.simple, "prime": rep.prime, "evidence": rep.evidence}
    if args.annihilator:
        out["annihilator"] = _space(annihilator(a, art.bimodule()))
    if args.idempotent is not None:
        coords = art.algebra_element(args.idempotent)
        out["idempotent"] = {
            "name": args.idempotent,
            "idempotent": is_idempotent(a, coords),
            "nontrivial": any(coords),
            "min_poly": str(min_poly(a, coords)),
        }
    if args.submult:
        out["submultiplicativity_constant"] = str(submultiplicativity_constant(a))


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
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized simplicity probe (default: 0)")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        art = fileio.load_file(args.file)
        out = {"command": args.cmd, "input": os.path.basename(args.file), "input_digest": art.digest}
        args.func(args, art, out)
        sys.stdout.write(_render(out, args.json))
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
