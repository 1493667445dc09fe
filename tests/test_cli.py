import builtins
import json
import shlex
import shutil
from pathlib import Path

import pytest

from modext.algebra import Algebra, Bimodule
from modext.cli import main
from modext.io import algebra_to_document, load_file, save_file
from modext.linalg import Matrix
from modext.samples import dual_numbers, field_q, zero_action_module

DATA = Path(__file__).resolve().parent.parent / "data"

DUAL = str(DATA / "dual_numbers.json")
M2 = str(DATA / "m2.json")
TRIANGLE = str(DATA / "upper_triangular.json")
TRANSPORT = str(DATA / "transport.json")
ZP2 = str(DATA / "zero_product2.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_file(self, capsys):
        code, out, err = run(capsys, "validate", DUAL)
        assert code == 0
        assert "associativity: 8/8 identities hold" in out
        assert "valid: yes" in out

    def test_m2_triple_count(self, capsys):
        code, out, _ = run(capsys, "validate", M2)
        assert code == 0
        assert "associativity: 64/64 identities hold" in out

    def test_bimodule_axioms_are_checked_once(self, capsys, monkeypatch):
        # the constructor's report is the one printed
        calls = []
        check = Bimodule.axiom_report
        monkeypatch.setattr(Bimodule, "axiom_report",
                            lambda self: calls.append(self) or check(self))
        code, out, _ = run(capsys, "validate", M2)
        assert code == 0
        assert "bimodule_axioms:" in out and "passed: yes" in out
        assert len(calls) == 1

    def test_missing_file_is_exit_2(self, capsys):
        code, out, err = run(capsys, "validate", "no_such_file.json")
        assert code == 2
        assert "input error" in err

    def test_malformed_rational_is_exit_2(self, capsys, tmp_path):
        doc = algebra_to_document(dual_numbers())
        doc["mul"][0][0][0] = "1/0"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "1/0" in err

    def test_non_associative_is_exit_1(self, capsys, tmp_path):
        doc = algebra_to_document(dual_numbers())
        doc["mul"] = [[["0", "1"], ["0", "0"]], [["1", "0"], ["0", "0"]]]
        bad = tmp_path / "nonassoc.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "axiom violation" in err


class TestDer:
    def test_dual_numbers_summary(self, capsys):
        code, out, _ = run(capsys, "der", DUAL, "--inner", "--h1")
        assert code == 0
        assert "dim Der: 1" in out
        assert "dim Inn: 0" in out
        assert "H1: 1" in out

    def test_m2_summary(self, capsys):
        code, out, _ = run(capsys, "der", M2, "--inner", "--h1")
        assert code == 0
        assert "dim Der: 3" in out
        assert "dim Inn: 3" in out
        assert "H1: 0" in out

    def test_zero_product_dimension(self, capsys):
        code, out, _ = run(capsys, "der", ZP2)
        assert code == 0
        assert "dim Der: 4" in out

    def test_file_module_variant(self, capsys):
        code, out, _ = run(capsys, "der", DUAL, "--module", "file")
        assert code == 0
        assert "file bimodule (dim 2)" in out

    def test_json_mode_is_parseable(self, capsys):
        code, out, _ = run(capsys, "der", DUAL, "--json", "--h1")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim Der"] == 1
        assert doc["H1"] == 1


class TestDecompose:
    def test_lift_map_is_not_inner(self, capsys):
        # the commutative extension T(dual, dual) has no nonzero inner
        # derivations, so the shipped lift-type D must come back "not inner"
        code, out, _ = run(capsys, "decompose", DUAL, "--map", "D")
        assert code == 0
        assert "is_derivation: yes" in out
        assert "inner: not inner" in out

    def test_inner_map_recovers_a_witness(self, capsys):
        code, out, _ = run(capsys, "decompose", M2, "--map", "D", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["is_derivation"] is True
        assert doc["block_conditions"]["passed"] is True
        assert isinstance(doc["inner"], dict)
        assert "b" in doc["inner"] and "v" in doc["inner"]

    def test_missing_map_is_exit_2(self, capsys):
        code, out, err = run(capsys, "decompose", DUAL, "--map", "ghost")
        assert code == 2
        assert "ghost" in err

    def test_non_square_map_is_exit_2(self, capsys):
        code, out, err = run(capsys, "decompose", DUAL, "--map", "delta")
        assert code == 2

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_non_derivation_reports_the_c1_witness(self, capsys, tmp_path, as_json):
        # D = E_00 on T(Q[eps], Q[eps]): D(1 1) = 1, but 1 D(1) + D(1) 1 = 2
        doc = json.loads(Path(DUAL).read_text(encoding="utf-8"))
        rows = [["1", "0", "0", "0"]] + [["0"] * 4 for _ in range(3)]
        doc["maps"].append({"name": "N", "source": "total", "target": "total",
                            "matrix": rows})
        path = tmp_path / "not_a_derivation.json"
        path.write_text(json.dumps(doc))
        argv = ["decompose", str(path), "--map", "N"] + ["--json"] * as_json
        code, out, _ = run(capsys, *argv)
        assert code == 0
        if as_json:
            doc = json.loads(out)
            assert doc["is_derivation"] is False
            c1 = doc["block_conditions"]["checks"][0]
            assert c1["name"].startswith("C1") and c1["passed"] is False
            assert c1["witness"] == {"indices": [0, 0], "lhs": ["1", "0"],
                                     "rhs": ["2", "0"]}
            assert "split" not in doc and "inner" not in doc
        else:
            assert "is_derivation: no" in out
            assert ("name: C1: delta1 in Der(A)\n      passed: no\n      witness:\n"
                    "        indices: [0, 0]\n        lhs: [1, 0]\n        rhs: [2, 0]\n"
                    ) in out
            assert "split:" not in out and "inner:" not in out

    def test_block_conditions_listed(self, capsys):
        code, out, _ = run(capsys, "decompose", DUAL, "--map", "D", "--json")
        doc = json.loads(out)
        names = [c["name"] for c in doc["block_conditions"]["checks"]]
        for tag in ("C1", "C2", "C3", "C4", "C5", "C6"):
            assert any(n.startswith(tag) for n in names)


class TestConstruct:
    def test_lift_writes_a_loadable_file(self, capsys, tmp_path):
        out_path = tmp_path / "lifted.json"
        code, out, _ = run(
            capsys, "construct", "lift", DUAL, "--delta", "delta",
            "--out", str(out_path),
        )
        assert code == 0
        assert "recipe: lift" in out
        art = load_file(str(out_path))
        assert art.linear_map("D", "total", "total").matrix.rows == 4

    def test_transport_from_shipped_file(self, capsys):
        code, out, _ = run(capsys, "construct", "transport", TRANSPORT)
        assert code == 0
        assert "recipe: transport" in out

    def test_quotient_from_shipped_file(self, capsys):
        code, out, _ = run(
            capsys, "construct", "quotient", TRIANGLE, "--ideal", "I"
        )
        assert code == 0
        assert "module_dim: 2" in out

    def test_corner_from_shipped_file(self, capsys):
        code, out, _ = run(
            capsys, "construct", "corner", M2, "--idempotent", "p", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["extension"]["total_dim"] == 6
        assert doc["verification"]["passed"] is True

    def test_broken_hypothesis_is_exit_1(self, capsys, tmp_path):
        # lift with a delta that is not a derivation
        a = dual_numbers()
        doc = algebra_to_document(
            a,
            module=a.self_bimodule(),
            maps=[("delta", "algebra", "module", Matrix.identity(2))],
        )
        path = tmp_path / "bad_delta.json"
        save_file(str(path), doc)
        code, out, err = run(capsys, "construct", "lift", str(path))
        assert code == 1
        assert "hypothesis failure" in err
        assert "delta is not a derivation" in err

    def test_missing_ideal_is_exit_2(self, capsys):
        code, out, err = run(
            capsys, "construct", "quotient", TRIANGLE, "--ideal", "ghost"
        )
        assert code == 2


class TestCarriers:
    """Maps and elements whose declared carriers do not fit the command."""

    def expect_input_error(self, capsys, name, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "input error" in err and repr(name) in err
        assert "Traceback" not in err

    def test_lift_rejects_an_algebra_to_algebra_delta(self, capsys, tmp_path):
        # same shape as A -> U here, so only the declared target tells them apart
        a = dual_numbers()
        doc = algebra_to_document(
            a,
            module=a.self_bimodule(),
            maps=[("delta", "algebra", "algebra", Matrix.from_rows([[0, 0], [0, 1]]))],
        )
        path = tmp_path / "algebra_delta.json"
        save_file(str(path), doc)
        self.expect_input_error(capsys, "delta", "construct", "lift", str(path))

    def test_lift_rejects_a_map_on_the_extension(self, capsys):
        self.expect_input_error(capsys, "D", "construct", "lift", DUAL, "--delta", "D")

    @pytest.mark.parametrize("argv", [
        ["analyze", "FILE", "--idempotent", "q"],
        ["construct", "corner", "FILE", "--idempotent", "q"],
    ], ids=["analyze", "corner"])
    def test_idempotent_must_be_an_algebra_element(self, capsys, tmp_path, argv):
        doc = json.loads(Path(M2).read_text(encoding="utf-8"))
        doc["elements"].append({"name": "q", "carrier": "module", "coords": ["1", "0"]})
        path = tmp_path / "module_element.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if x == "FILE" else x for x in argv]
        self.expect_input_error(capsys, "q", *argv)


class TestInputBoundary:
    """Malformed files and outputs: exit 2, an input error naming the JSON
    path or the option, and no traceback."""

    def expect_input_error(self, capsys, where, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("input error: ") and where in err
        assert "Traceback" not in err

    def edited(self, tmp_path, edit, source=M2):
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("section", ["maps", "elements", "subspaces"])
    def test_section_that_is_not_a_list(self, capsys, tmp_path, section):
        path = self.edited(tmp_path, lambda doc: doc.update({section: 5}))
        self.expect_input_error(capsys, "%s: expected a list" % section, "validate", path)

    def test_map_name_that_is_not_a_string(self, capsys, tmp_path):
        path = self.edited(tmp_path, lambda doc: doc["maps"][0].update(name=["delta"]))
        self.expect_input_error(capsys, "maps[0].name", "validate", path)

    @pytest.mark.parametrize("section, source", [
        ("maps", M2), ("elements", M2), ("subspaces", TRIANGLE)],
        ids=["maps", "elements", "subspaces"])
    def test_duplicate_names(self, capsys, tmp_path, section, source):
        def edit(doc):
            doc[section].append(dict(doc[section][0]))
        path = self.edited(tmp_path, edit, source)
        n = len(json.loads(Path(source).read_text(encoding="utf-8"))[section])
        self.expect_input_error(capsys, "%s[%d].name: duplicate name" % (section, n),
                                "validate", path)

    def test_integer_too_long_to_convert(self, capsys, tmp_path):
        text = Path(DUAL).read_text(encoding="utf-8")
        text = text.replace('"dim": 2', '"dim": 1' + "0" * 5000, 1)
        path = tmp_path / "long.json"
        path.write_text(text)
        self.expect_input_error(capsys, "$: invalid JSON", "validate", str(path))

    def test_bytes_that_are_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        latin1 = Path(DUAL).read_bytes().replace(b'"format_version"', b'"\xe9"', 1)
        path.write_bytes(latin1)
        self.expect_input_error(capsys, "$: invalid JSON", "validate", str(path))

    def test_arrays_nested_too_deeply(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"maps": ' + "[" * 100000 + "]" * 100000 + "}")
        self.expect_input_error(capsys, "$: invalid JSON", "validate", str(path))

    def test_exponent_literal(self, capsys, tmp_path):
        def edit(doc):
            doc["mul"][0][0][0] = "1e400"
        path = self.edited(tmp_path, edit, DUAL)
        self.expect_input_error(capsys, "mul[0][0][0]", "validate", path)

    @pytest.mark.parametrize("command", ["validate", "der"])
    @pytest.mark.parametrize("path, edit", [
        ("dim", lambda doc: doc.update(dim=True)),
        ("module.dim", lambda doc: doc["module"].update(dim=True)),
        ("basis_names[0]", lambda doc: doc.update(basis_names=[{"x": 1}])),
        ("module.basis_names[0]",
         lambda doc: doc["module"].update(basis_names=[{"x": 1}])),
    ])
    def test_dimension_and_basis_names(self, capsys, tmp_path, command, path, edit):
        # Q over itself with dimension 1 everywhere: true would read as 1
        q = field_q()
        doc = algebra_to_document(q, zero_action_module(q, 1))
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        self.expect_input_error(capsys, "input error: %s: " % path, command, str(bad))

    def test_boolean_dim_is_blamed_before_basis_names(self, capsys, tmp_path):
        path = self.edited(tmp_path, lambda doc: doc.update(dim=True), DUAL)
        self.expect_input_error(capsys, "input error: dim: ", "validate", path)

    def test_out_is_a_directory(self, capsys, tmp_path):
        self.expect_input_error(capsys, "--out", "construct", "lift", DUAL,
                                "--out", str(tmp_path))

    @pytest.mark.parametrize("where, edit, source", [
        ("mul[1]: expected 4 rows", lambda doc: doc["mul"][1].pop(), M2),
        ("maps[1].matrix: expected 6 rows", lambda doc: doc["maps"][1]["matrix"].pop(), M2),
        ("mul[1][2]: expected 4 entries", lambda doc: doc["mul"][1][2].pop(), M2),
        ("mul[0][1][1]: expected a rational, got NoneType",
         lambda doc: doc["mul"][0][1].__setitem__(1, None), M2),
        ("mul[0][1][1]: expected a rational, got list",
         lambda doc: doc["mul"][0][1].__setitem__(1, ["1"]), M2),
        ("maps[0]: map entries need a name", lambda doc: doc["maps"][0].pop("name"), M2),
        ("module: must be an object", lambda doc: doc.update(module=[]), M2),
        ("subspaces[0].vectors: expected a list of vectors",
         lambda doc: doc["subspaces"][0].update(vectors="I"), TRIANGLE),
    ], ids=["plane rows", "matrix rows", "row entries", "null rational", "list rational",
            "nameless entry", "module list", "vectors string"])
    def test_malformed_section(self, capsys, tmp_path, where, edit, source):
        path = self.edited(tmp_path, edit, source)
        self.expect_input_error(capsys, "input error: " + where, "validate", path)

    def test_idempotent_missing_from_the_file(self, capsys):
        self.expect_input_error(capsys, "input error: elements: no element named 'ghost'",
                                "analyze", M2, "--idempotent", "ghost")

    def test_file_without_basis_names_round_trips(self, capsys, tmp_path):
        def edit(doc):
            del doc["basis_names"], doc["module"]["basis_names"]
        path = self.edited(tmp_path, edit, DUAL)
        code, out, _ = run(capsys, "validate", path)
        assert code == 0 and "valid: yes" in out
        art = load_file(path)
        assert (art.algebra.basis_names, art.module.basis_names) == (["e0", "e1"], ["u0", "u1"])
        again = tmp_path / "again.json"
        save_file(str(again), algebra_to_document(art.algebra, art.module))
        back = load_file(str(again))
        assert back.algebra.mul_tensor == art.algebra.mul_tensor
        assert (back.module.left, back.module.right) == (art.module.left, art.module.right)
        assert back.algebra.basis_names == ["e0", "e1"]


class TestAnalyze:
    def test_dual_numbers_radical(self, capsys):
        code, out, _ = run(capsys, "analyze", DUAL, "--radical")
        assert code == 0
        assert "semisimple: no" in out
        assert "dim: 1" in out

    def test_m2_simplicity(self, capsys):
        code, out, _ = run(capsys, "analyze", M2, "--simple", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["simple"]["simple"] is True
        assert doc["simple"]["prime"] is True

    def test_submultiplicativity_constant(self, capsys):
        code, out, _ = run(capsys, "analyze", M2, "--submult")
        assert code == 0
        assert "submultiplicativity_constant: 1" in out
        code, out, _ = run(capsys, "analyze", ZP2, "--submult")
        assert "submultiplicativity_constant: 0" in out

    def test_unit_and_center(self, capsys):
        code, out, _ = run(capsys, "analyze", DUAL, "--unit", "--center")
        assert code == 0
        assert "unit: [1, 0]" in out

    def test_annihilator_of_column_module(self, capsys):
        code, out, _ = run(capsys, "analyze", M2, "--annihilator", "--json")
        doc = json.loads(out)
        assert doc["annihilator"]["dim"] == 0

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_zero_algebra_is_neither_simple_nor_prime(self, capsys, tmp_path, as_json):
        path = tmp_path / "zero.json"
        save_file(str(path), algebra_to_document(Algebra([])))
        code, out, _ = run(capsys, "analyze", str(path), "--simple", *["--json"] * as_json)
        assert code == 0
        if as_json:
            assert json.loads(out)["simple"] == {
                "simple": False, "prime": False, "evidence": {"reason": "zero algebra"}}
        else:
            assert ("simple:\n  simple: no\n  prime: no\n  evidence:\n"
                    "    reason: zero algebra\n") in out

    def test_seed_is_read_from_the_option_only(self, capsys, monkeypatch):
        # only --seed sets the seed: the environment changes neither exit code nor output
        monkeypatch.delenv("MODEXT_SEED", raising=False)
        plain = run(capsys, "analyze", M2, "--simple")
        monkeypatch.setenv("MODEXT_SEED", "abc")
        assert run(capsys, "analyze", M2, "--simple") == plain
        assert plain[0] == 0 and plain[2] == ""

    def test_idempotent_report(self, capsys):
        code, out, _ = run(capsys, "analyze", M2, "--idempotent", "p", "--json")
        doc = json.loads(out)
        assert doc["idempotent"]["idempotent"] is True
        assert doc["idempotent"]["nontrivial"] is True
        assert doc["idempotent"]["min_poly"] == "t^2 - t"


class TestDeterminism:
    COMMANDS = [
        ("validate", DUAL),
        ("validate", M2),
        ("der", DUAL, "--inner", "--h1"),
        ("der", M2, "--inner", "--h1"),
        ("decompose", DUAL, "--map", "D"),
        ("decompose", M2, "--map", "D"),
        ("construct", "lift", DUAL),
        ("construct", "transport", TRANSPORT),
        ("construct", "quotient", TRIANGLE),
        ("construct", "corner", M2),
        ("analyze", DUAL, "--radical", "--unit", "--submult"),
        ("analyze", M2, "--simple", "--annihilator"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda c: " ".join(
        Path(x).name if x.endswith(".json") else x for x in c))
    def test_repeated_runs_are_byte_identical(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        # the JSON rendering is deterministic too
        _, j1, _ = run(capsys, *argv, "--json")
        _, j2, _ = run(capsys, *argv, "--json")
        assert j1 == j2

    @pytest.mark.parametrize("argv", [
        ("validate", M2), ("der", M2, "--inner", "--h1"), ("decompose", M2, "--map", "D"),
        ("construct", "corner", M2), ("analyze", M2, "--simple", "--annihilator"),
    ], ids=lambda c: c[0])
    def test_each_command_opens_its_input_once(self, capsys, monkeypatch, argv):
        # load_file reads the bytes it parses and digests
        opened = []
        real = builtins.open
        monkeypatch.setattr(builtins, "open",
                            lambda file, *args, **kw: opened.append(file) or real(file, *args, **kw))
        assert run(capsys, *argv)[0] == 0
        assert opened == [M2]


def _readme_cli_examples():
    """The ``modext ...`` lines of the README's CLI code block."""
    text = (DATA.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("modext ")]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # run where the README's relative paths resolve; --out writes a file
    shutil.copytree(DATA, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    examples = _readme_cli_examples()
    assert len(examples) >= 6
    for argv in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out
    assert (tmp_path / "lifted.json").is_file()
