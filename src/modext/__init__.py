"""Exact toolkit for module-extension (trivial-extension) algebras.

Builds T(A,U) from rational structure constants, computes derivation
spaces and first Hochschild cohomology, decomposes maps on T(A,U) into
their four blocks, constructs verified derivations by lifting,
transport, quotients and corner modules, and audits the structural
hypotheses (semisimplicity, primeness, idempotents, annihilators) that
those constructions rest on.  All arithmetic is exact over Q.
"""

from .algebra import (
    Algebra,
    Bimodule,
    Element,
    LinearMap,
    ValidationError,
    annihilator,
    is_module_hom,
)
from .analysis import (
    Polynomial,
    RadicalReport,
    SimplePrimeReport,
    center,
    find_surjective_left_hom,
    is_idempotent,
    is_simple_prime,
    min_poly,
    radical,
    unitization,
)
from .blocks import (
    BlockDecomposition,
    assemble,
    blocks_of,
    check_block_conditions,
    inner_witness,
    split_d1_d2,
)
from .constructions import (
    ConstructionResult,
    corner_module,
    corner_tau,
    lift,
    quotient_derivation,
    transport,
)
from .derivations import (
    DerivationSpace,
    LeibnizSystem,
    derivation_space,
    h1_dimension,
    inner_derivation,
    inner_space,
    is_derivation,
)
from .extension import (
    ModuleExtension,
    ideal_check,
    norm_l1,
    quotient_algebra,
    quotient_bimodule,
    submultiplicativity_constant,
    trivial_extension,
)
from .linalg import Matrix, Subspace, nullspace, rref, solve
from .reports import Check, ConditionReport, HypothesisError

__version__ = "0.1.0"
