"""Exact toolkit for module-extension (trivial-extension) algebras.

Builds T(A,U) from rational structure constants, computes derivation
spaces and first Hochschild cohomology, decomposes maps on T(A,U) into
their four blocks, constructs verified derivations by lifting,
transport, quotients and corner modules, and audits the structural
hypotheses (semisimplicity, primeness, idempotents, annihilators) that
those constructions rest on.  All arithmetic is exact over Q.

``import modext`` loads none of the package's modules.  Each public name
below, and each submodule (``modext.linalg``, ...), is imported on first
access through the module ``__getattr__`` (PEP 562) and then kept in the
package's namespace, so ``from modext import derivation_space`` loads
``derivations`` and what it imports (``algebra``, ``linalg``,
``reports``), and nothing else.
"""

__version__ = "0.1.0"

# {public name: the submodule that defines it}
_EXPORTS = {name: module for module, names in {
    "algebra": ("Algebra", "Bimodule", "Element", "LinearMap", "ValidationError",
                "annihilator", "is_module_hom"),
    "analysis": ("Polynomial", "RadicalReport", "SimplePrimeReport", "center",
                 "find_surjective_left_hom", "is_idempotent", "is_simple_prime",
                 "min_poly", "radical", "unitization"),
    "blocks": ("BlockDecomposition", "assemble", "blocks_of", "check_block_conditions",
               "inner_witness", "split_d1_d2"),
    "constructions": ("ConstructionResult", "corner_module", "corner_tau", "lift",
                      "quotient_derivation", "transport"),
    "derivations": ("DerivationSpace", "LeibnizSystem", "derivation_space", "h1_dimension",
                    "inner_derivation", "inner_space", "is_derivation"),
    "extension": ("ModuleExtension", "ideal_check", "norm_l1", "quotient_algebra",
                  "quotient_bimodule", "submultiplicativity_constant", "trivial_extension"),
    "linalg": ("Matrix", "Subspace", "nullspace", "rref", "solve"),
    "reports": ("Check", "ConditionReport", "HypothesisError"),
}.items() for name in names}

_SUBMODULES = ("algebra", "analysis", "blocks", "cli", "constructions", "derivations",
               "extension", "io", "linalg", "reports", "samples")

__all__ = list(_EXPORTS)


def _submodule(name):
    # __import__, unlike importlib.import_module, reports to -X importtime;
    # the import binds the submodule in this namespace
    __import__(__name__ + "." + name)
    return globals()[name]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(_submodule(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
