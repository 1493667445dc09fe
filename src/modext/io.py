"""Interchange format: algebras, bimodules, maps, and friends as JSON.

All scalars travel as exact rational strings ("3", "-1/2"); floats are
rejected.  One file can bundle an algebra, a bimodule over it, named
linear maps, named elements, and named subspaces, so a whole worked
instance fits in a single artifact.

Parse problems raise ParseError (structurally bad input); axiom
violations surface as ValidationError from the constructors.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional

from .algebra import Algebra, Bimodule, LinearMap
from .linalg import Matrix, Subspace
from .reports import Record

if TYPE_CHECKING:
    from .extension import ModuleExtension

FORMAT_VERSION = "1"


class ParseError(ValueError):
    """Malformed input file; carries the JSON path of the offender."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__("%s: %s" % (path, message))


# an optionally signed integer or p/q; no exponent or decimal point, so a
# short string cannot ask for a huge power of ten
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def parse_rational(value, path: str = "") -> Fraction:
    if isinstance(value, bool):
        raise ParseError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(path, "floats are not allowed; use rational strings")
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ParseError(path, "bad rational %r (expected an integer or p/q)" % value)
        try:
            f = Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(path, "bad rational %r (%s)" % (value, e))
        return f
    raise ParseError(path, "expected a rational, got %s" % type(value).__name__)


def _parse_rows(rows, cols, data, path: str) -> list:
    """The rows of a rows x cols JSON matrix as lists of Fractions."""
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(path, "expected %d rows" % rows)
    out = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError("%s[%d]" % (path, i), "expected %d entries" % cols)
        out.append(
            [parse_rational(x, "%s[%d][%d]" % (path, i, j)) for j, x in enumerate(row)]
        )
    return out


def _parse_tensor(d1, d2, d3, data, path: str):
    if not isinstance(data, list) or len(data) != d1:
        raise ParseError(path, "expected %d slices" % d1)
    return [_parse_rows(d2, d3, plane, "%s[%d]" % (path, i))
            for i, plane in enumerate(data)]


class MapEntry(NamedTuple):
    name: str
    source: str  # "algebra" | "module" | "total"
    target: str
    matrix: Matrix


class ArtifactFile(Record):
    """Parsed (but structurally validated only) contents of one file."""

    _fields = ("algebra", "module", "maps", "elements", "element_carriers", "subspaces")

    def __init__(self, algebra: Algebra, module: Optional[Bimodule] = None):
        self.algebra = algebra
        self.module = module
        self.maps: Dict[str, MapEntry] = {}
        self.elements: Dict[str, list] = {}
        self.element_carriers: Dict[str, str] = {}
        self.subspaces: Dict[str, Subspace] = {}
        self._extension: Optional[ModuleExtension] = None  # built on first use
        self.digest: Optional[str] = None  # set by load_file

    def bimodule(self) -> Bimodule:
        """The bimodule section, which the file must declare."""
        if self.module is None:
            raise ParseError("module", "file declares no bimodule section")
        return self.module

    def extension(self) -> ModuleExtension:
        if self._extension is None:
            from .extension import trivial_extension  # validate builds no T(A, U)

            self._extension = trivial_extension(self.algebra, self.bimodule())
        return self._extension

    def _carrier(self, tag: str):
        """The carrier of a tag that parse_document has already admitted."""
        if tag == "total":
            return self.extension().total
        return self.algebra if tag == "algebra" else self.module

    def linear_map(self, name: str, source: str, target: str) -> LinearMap:
        """The named map, which the file must declare source -> target."""
        if name not in self.maps:
            raise ParseError("maps", "no map named %r in file" % name)
        entry = self.maps[name]
        if (entry.source, entry.target) != (source, target):
            raise ParseError("maps", "map %r is declared %s -> %s, not %s -> %s"
                             % (name, entry.source, entry.target, source, target))
        return LinearMap(self._carrier(source), self._carrier(target), entry.matrix)

    def subspace(self, name: str) -> Subspace:
        """The named subspace of the algebra."""
        if name not in self.subspaces:
            raise ParseError("subspaces", "no subspace named %r" % name)
        return self.subspaces[name]

    def algebra_element(self, name: str) -> list:
        """Coordinates of the named element, which must live in the algebra."""
        if name not in self.elements:
            raise ParseError("elements", "no element named %r" % name)
        if self.element_carriers[name] != "algebra":
            raise ParseError("elements", "element %r is not an algebra element" % name)
        return self.elements[name]


def _carrier_dim(tag, algebra_dim, module_dim, path):
    if tag not in ("algebra", "module", "total"):
        raise ParseError(path, "unknown carrier %r" % tag)
    if tag == "algebra":
        return algebra_dim
    if module_dim is None:
        raise ParseError(path, "carrier %r needs the missing module section" % tag)
    return module_dim if tag == "module" else algebra_dim + module_dim


def _named_entries(doc, section: str, kind: str):
    """(JSON path, entry) for each entry of a list section, checking that
    every entry is an object with a string name not used before."""
    entries = doc.get(section, [])
    if not isinstance(entries, list):
        raise ParseError(section, "expected a list of %s entries" % kind)
    seen = set()
    for i, entry in enumerate(entries):
        path = "%s[%d]" % (section, i)
        if not isinstance(entry, dict) or "name" not in entry:
            raise ParseError(path, "%s entries need a name" % kind)
        name = entry["name"]
        if not isinstance(name, str):
            raise ParseError(path + ".name", "must be a string")
        if name in seen:
            raise ParseError(path + ".name", "duplicate name %r" % name)
        seen.add(name)
        yield path, entry


def _dimension(value, path: str) -> int:
    # bool is a subclass of int, but true is not a dimension
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ParseError(path, "must be a nonnegative integer")
    return value


def _basis_names(names, dim: int, path: str):
    """The basis names of a section, or None when it gives none."""
    if names is None:
        return None
    if not isinstance(names, list) or len(names) != dim:
        raise ParseError(path, "must list %d names" % dim)
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise ParseError("%s[%d]" % (path, i), "must be a string")
    return names


def parse_document(doc) -> ArtifactFile:
    if not isinstance(doc, dict):
        raise ParseError("$", "top level must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError("format_version", "unsupported version %r" % version)
    dim = _dimension(doc.get("dim"), "dim")
    names = _basis_names(doc.get("basis_names"), dim, "basis_names")
    mul = _parse_tensor(dim, dim, dim, doc.get("mul"), "mul")
    algebra = Algebra(mul, basis_names=names)

    module = None
    module_dim = None
    if "module" in doc:
        sec = doc["module"]
        if not isinstance(sec, dict):
            raise ParseError("module", "must be an object")
        module_dim = _dimension(sec.get("dim"), "module.dim")
        mnames = _basis_names(sec.get("basis_names"), module_dim, "module.basis_names")
        left = _parse_tensor(dim, module_dim, module_dim, sec.get("left"), "module.left")
        right = _parse_tensor(module_dim, dim, module_dim, sec.get("right"), "module.right")
        module = Bimodule(algebra, left, right, basis_names=mnames)

    out = ArtifactFile(algebra=algebra, module=module)

    for path, entry in _named_entries(doc, "maps", "map"):
        src = entry.get("source", "algebra")
        tgt = entry.get("target", "algebra")
        rows = _carrier_dim(tgt, dim, module_dim, path)
        cols = _carrier_dim(src, dim, module_dim, path)
        matrix = Matrix(rows, cols, _parse_rows(rows, cols, entry.get("matrix"), path + ".matrix"))
        out.maps[entry["name"]] = MapEntry(entry["name"], src, tgt, matrix)

    for path, entry in _named_entries(doc, "elements", "element"):
        carrier = entry.get("carrier", "algebra")
        d = _carrier_dim(carrier, dim, module_dim, path)
        coords = entry.get("coords")
        if not isinstance(coords, list) or len(coords) != d:
            raise ParseError(path + ".coords", "expected %d coordinates" % d)
        out.elements[entry["name"]] = [
            parse_rational(x, "%s.coords[%d]" % (path, j)) for j, x in enumerate(coords)
        ]
        out.element_carriers[entry["name"]] = carrier

    for path, entry in _named_entries(doc, "subspaces", "subspace"):
        vectors = entry.get("vectors")
        if not isinstance(vectors, list):
            raise ParseError(path + ".vectors", "expected a list of vectors")
        parsed = _parse_rows(len(vectors), dim, vectors, path + ".vectors")
        out.subspaces[entry["name"]] = Subspace(dim, parsed)

    return out


def load_file(path: str) -> ArtifactFile:
    """The file parsed, its bytes read once: the digest is their sha256 prefix."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # bad UTF-8, long ints, deep nesting
        raise ParseError("$", "invalid JSON: %s" % e)
    art = parse_document(doc)
    art.digest = hashlib.sha256(data).hexdigest()[:16]
    return art


def matrix_to_lists(m: Matrix):
    return [[str(x) for x in row] for row in m.data]


def tensor_to_lists(t):
    return [[[str(x) for x in row] for row in plane] for plane in t]


def algebra_to_document(
    algebra: Algebra,
    module: Optional[Bimodule] = None,
    maps=(),
    elements=(),
    subspaces=(),
) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "dim": algebra.dim,
        "basis_names": list(algebra.basis_names),
        "mul": tensor_to_lists(algebra.mul_tensor),
    }
    if module is not None:
        doc["module"] = {
            "dim": module.dim,
            "basis_names": list(module.basis_names),
            "left": tensor_to_lists(module.left),
            "right": tensor_to_lists(module.right),
        }
    if maps:
        doc["maps"] = [
            {
                "name": name,
                "source": source,
                "target": target,
                "matrix": matrix_to_lists(matrix),
            }
            for (name, source, target, matrix) in maps
        ]
    if elements:
        doc["elements"] = [
            {
                "name": name,
                "carrier": carrier,
                "coords": [str(x) for x in coords],
            }
            for (name, carrier, coords) in elements
        ]
    if subspaces:
        doc["subspaces"] = [
            {"name": name, "vectors": [[str(x) for x in v] for v in sub.basis]}
            for (name, sub) in subspaces
        ]
    return doc


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def save_file(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_document(doc))
