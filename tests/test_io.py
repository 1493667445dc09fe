import json
from fractions import Fraction
from pathlib import Path

import pytest

from modext.algebra import ValidationError
from modext.io import (
    ArtifactFile,
    ParseError,
    algebra_to_document,
    dump_document,
    load_file,
    parse_document,
    parse_rational,
    save_file,
)
from modext.linalg import Matrix, Subspace, unit_vec
from modext.samples import dual_numbers, matrix_units, upper_triangular_2

DATA = Path(__file__).resolve().parent.parent / "data"


class TestParseRational:
    def test_integers_pass_through(self):
        assert parse_rational(3) == Fraction(3)
        assert parse_rational(-2) == Fraction(-2)

    def test_rational_strings(self):
        assert parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("-7/3") == Fraction(-7, 3)
        assert parse_rational("5") == Fraction(5)

    def test_floats_rejected(self):
        with pytest.raises(ParseError):
            parse_rational(0.5)

    def test_booleans_rejected(self):
        with pytest.raises(ParseError):
            parse_rational(True)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_garbage_string_rejected(self):
        with pytest.raises(ParseError):
            parse_rational("one half")

    def test_signs_and_surrounding_spaces(self):
        assert parse_rational("+3") == Fraction(3)
        assert parse_rational(" 3 ") == Fraction(3)
        assert parse_rational("-1/2") == Fraction(-1, 2)

    @pytest.mark.parametrize("text", ["1e400", "0.5", "1/2e3", "1_000"])
    def test_exponent_and_decimal_forms_rejected(self, text):
        with pytest.raises(ParseError) as exc:
            parse_rational(text, "mul[0][0][0]")
        assert exc.value.path == "mul[0][0][0]"

    def test_error_carries_the_json_path(self):
        with pytest.raises(ParseError) as exc:
            parse_rational(0.5, "mul[0][1][0]")
        assert exc.value.path == "mul[0][1][0]"


class TestRoundTrip:
    def test_algebra_only(self):
        a = matrix_units(2)
        doc = algebra_to_document(a)
        back = parse_document(json.loads(dump_document(doc)))
        assert back.algebra.mul_tensor == a.mul_tensor
        assert back.algebra.basis_names == a.basis_names
        assert back.module is None

    def test_full_bundle(self):
        a = dual_numbers()
        u = a.self_bimodule()
        delta = Matrix.from_rows([[0, 0], [0, 1]])
        doc = algebra_to_document(
            a,
            module=u,
            maps=[("delta", "algebra", "module", delta)],
            elements=[("x", "algebra", [Fraction(1, 2), Fraction(-3)])],
            subspaces=[("I", Subspace(2, [unit_vec(2, 1)]))],
        )
        back = parse_document(json.loads(dump_document(doc)))
        assert back.module.left == u.left
        assert back.maps["delta"].matrix == delta
        assert back.elements["x"] == [Fraction(1, 2), Fraction(-3)]
        assert back.subspaces["I"] == Subspace(2, [unit_vec(2, 1)])

    def test_canonical_form_is_a_fixed_point(self):
        a = upper_triangular_2()
        doc = algebra_to_document(a, module=a.self_bimodule())
        text = dump_document(doc)
        again = dump_document(
            algebra_to_document(
                parse_document(json.loads(text)).algebra,
                module=parse_document(json.loads(text)).module,
            )
        )
        assert text == again

    def test_save_and_load(self, tmp_path):
        a = matrix_units(2)
        path = tmp_path / "m2.json"
        save_file(str(path), algebra_to_document(a))
        art = load_file(str(path))
        assert art.algebra.mul_tensor == a.mul_tensor


class TestShippedFiles:
    def test_all_shipped_files_load(self):
        for f in sorted(DATA.glob("*.json")):
            art = load_file(str(f))
            assert isinstance(art, ArtifactFile), f.name

    def test_dual_numbers_file_contents(self):
        art = load_file(str(DATA / "dual_numbers.json"))
        assert art.algebra.dim == 2
        assert art.module is not None and art.module.dim == 2
        assert set(art.maps) == {"delta", "D"}
        assert art.extension().total.dim == 4

    def test_m2_file_contents(self):
        art = load_file(str(DATA / "m2.json"))
        assert art.algebra.dim == 4
        assert art.module.dim == 2
        assert "p" in art.elements
        d = art.linear_map("D", "total", "total")
        assert d.matrix.rows == 6

    def test_upper_triangular_file_contents(self):
        art = load_file(str(DATA / "upper_triangular.json"))
        assert "I" in art.subspaces
        assert art.subspaces["I"].dim == 1

    def test_transport_file_contents(self):
        art = load_file(str(DATA / "transport.json"))
        assert set(art.maps) == {"delta", "phi", "psi"}
        assert art.maps["phi"].source == "algebra"
        assert art.maps["psi"].target == "algebra"


class TestStructuralErrors:
    def good_doc(self):
        return json.loads(dump_document(algebra_to_document(dual_numbers())))

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError):
            parse_document([1, 2])

    def test_unsupported_version(self):
        doc = self.good_doc()
        doc["format_version"] = "99"
        with pytest.raises(ParseError) as exc:
            parse_document(doc)
        assert exc.value.path == "format_version"

    def test_missing_dim(self):
        doc = self.good_doc()
        del doc["dim"]
        with pytest.raises(ParseError):
            parse_document(doc)

    def test_wrong_tensor_shape(self):
        doc = self.good_doc()
        doc["mul"] = doc["mul"][:1]
        with pytest.raises(ParseError) as exc:
            parse_document(doc)
        assert exc.value.path == "mul"

    def test_basis_names_length_mismatch(self):
        doc = self.good_doc()
        doc["basis_names"] = ["only-one"]
        with pytest.raises(ParseError):
            parse_document(doc)

    def test_map_with_unknown_carrier(self):
        doc = self.good_doc()
        doc["maps"] = [
            {"name": "f", "source": "nowhere", "target": "algebra",
             "matrix": [["0", "0"], ["0", "0"]]}
        ]
        with pytest.raises(ParseError):
            parse_document(doc)

    def test_map_on_missing_module(self):
        doc = self.good_doc()
        doc["maps"] = [
            {"name": "f", "source": "module", "target": "algebra",
             "matrix": [["0", "0"], ["0", "0"]]}
        ]
        with pytest.raises(ParseError):
            parse_document(doc)

    def test_element_with_wrong_length(self):
        doc = self.good_doc()
        doc["elements"] = [{"name": "x", "carrier": "algebra", "coords": ["1"]}]
        with pytest.raises(ParseError):
            parse_document(doc)

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_file(str(bad))

    def test_non_associative_algebra_raises_validation_error(self):
        doc = self.good_doc()
        doc["mul"] = [[["0", "1"], ["0", "0"]], [["1", "0"], ["0", "0"]]]
        with pytest.raises(ValidationError):
            parse_document(doc)

    def test_missing_map_lookup(self):
        art = parse_document(self.good_doc())
        with pytest.raises(ParseError):
            art.linear_map("ghost", "algebra", "algebra")

    def test_extension_requires_a_module_section(self):
        art = parse_document(self.good_doc())
        with pytest.raises(ParseError):
            art.extension()
