"""The package's lazy namespace: every former re-export and every
submodule resolves on first access, to the object its module defines."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modext

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "Algebra", "Bimodule", "Element", "LinearMap", "ValidationError", "annihilator",
    "is_module_hom",
    "Polynomial", "RadicalReport", "SimplePrimeReport", "center", "find_surjective_left_hom",
    "is_idempotent", "is_simple_prime", "min_poly", "radical", "unitization",
    "BlockDecomposition", "assemble", "blocks_of", "check_block_conditions", "inner_witness",
    "split_d1_d2",
    "ConstructionResult", "corner_module", "corner_tau", "lift", "quotient_derivation",
    "transport",
    "DerivationSpace", "LeibnizSystem", "derivation_space", "h1_dimension",
    "inner_derivation", "inner_space", "is_derivation",
    "ModuleExtension", "ideal_check", "norm_l1", "quotient_algebra", "quotient_bimodule",
    "submultiplicativity_constant", "trivial_extension",
    "Matrix", "Subspace", "nullspace", "rref", "solve",
    "Check", "ConditionReport", "HypothesisError",
]

# each name, imported first in a fresh interpreter, is the object of the
# module named by its __module__, and the package then holds it
CHILD = """
import json, sys
names = json.loads(sys.argv[1])
out = {}
for name in names:
    obj = getattr(__import__("modext", fromlist=[name]), name)
    home = sys.modules[obj.__module__]
    out[name] = [obj.__module__, getattr(home, name) is obj,
                 obj is vars(sys.modules["modext"])[name]]
print(json.dumps(out))
"""


def test_the_table_lists_the_former_re_exports():
    assert len(PUBLIC) == 51
    assert sorted(modext.__all__) == sorted(PUBLIC)


def test_the_submodules_are_the_package_files():
    files = {p.stem for p in (ROOT / "src" / "modext").glob("*.py")} - {"__init__"}
    assert set(modext._SUBMODULES) == files


def run_fresh(code, *argv):
    """The JSON that ``code`` prints in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_each_name_first_imported_is_the_object_its_module_defines():
    got = run_fresh(CHILD, json.dumps(PUBLIC))
    for name in PUBLIC:
        module, defined_there, kept = got[name]
        assert module == "modext." + modext._EXPORTS[name], name
        assert defined_there and kept, name


def test_attribute_and_from_import_agree():
    for name in PUBLIC:
        module = __import__("modext." + modext._EXPORTS[name], fromlist=[name])
        space = {}
        exec("from modext import %s as got" % name, space)
        assert space["got"] is getattr(modext, name) is getattr(module, name), name


def test_submodules_resolve_as_attributes_in_a_fresh_interpreter():
    got = run_fresh("import json, sys, modext\n"
                    "print(json.dumps({n: getattr(modext, n) is sys.modules['modext.' + n]\n"
                    "                  for n in modext._SUBMODULES}))")
    assert got == {name: True for name in modext._SUBMODULES}


def test_dir_lists_every_name_and_submodule():
    assert set(PUBLIC) | set(modext._SUBMODULES) <= set(dir(modext))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        modext.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from modext import no_such_name", {})


def test_a_copy_under_another_name_resolves_in_its_own_package(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import lockstep

    other = lockstep.load(ROOT, "lazy_copy")
    try:
        assert other.Algebra is other.algebra.Algebra
        assert other.Algebra is not modext.Algebra
        assert other.algebra.__name__ == "lazy_copy.algebra"
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] == "lazy_copy"]:
            del sys.modules[key]
