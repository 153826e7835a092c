"""Exact invariants of induced tautological bundles on Hilbert schemes.

Everything is integer or rational arithmetic: partition and coset
combinatorics, symmetric-group characters, divisor-class bookkeeping, the
rank/Chern pipeline, Hom/Ext certificates, and the brute-force oracles that
check every closed form.

Importing the package runs none of its submodules.  Each submodule is
registered in ``sys.modules`` as a lazy module that executes on its first
attribute access, and each exported name is looked up in its submodule on
first access (PEP 562), so a program pays only for the layers it uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_NAMES_BY_MODULE = {
    "errors": (
        "IntegralityError", "ModuliDimensionMismatchError", "ShapeMismatchError",
        "SizeLimitError", "SpecValidationError",
    ),
    "partitions": (
        "LabeledComposition", "LabeledSetPartition", "Partition", "conjugate",
        "dimension", "enumerate_partitions", "index_p", "is_rectangular",
        "iter_cosets", "multinomial_index", "p_reduced", "reduce_once",
        "reduce_twice", "standard_tensor_multiplicity",
    ),
    "characters": (
        "CharacterTable", "CycleType", "RestrictionPair", "character",
        "character_table", "class_size", "conjugacy_classes",
        "restrict_to_transposition", "transposition_type",
    ),
    "divisors": ("ClassPolynomial", "DivisorClass"),
    "chern": (
        "BundleBlock", "BundleSpec", "b_class", "c1", "generating_polynomial",
        "r_number", "rank_G", "regular_checksum",
    ),
    "moduli": (
        "ConditionReport", "EndDims", "HomTable", "StabilityCertificate",
        "VanishingReport", "check_conditions", "equivariant_end_dims",
        "moduli_component_dim", "offdiagonal_ext1_vanishing", "stability_certificate",
    ),
    "cli": ("SpecDocument", "dispatch", "parse_spec"),
    "verify": (
        "brute_force_character_table", "c1_via_blowup", "canonical_permutation",
        "count_standard_tableaux", "cycle_type_of", "inner_product",
        "invariant_restriction_rank", "permutation_character",
        "regular_checksum_via_irreps", "verify_all",
    ),
}

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _NAMES_BY_MODULE.items() for name in names}

__all__ = list(_EXPORTS)


def _lazy_submodule(name: str):
    # found now, executed on its first attribute access.  It is registered in
    # sys.modules, not left out, because tools that wrap the layers (the
    # benchmark's span tracer) look each one up there after `import hilbtaut`.
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({module: _lazy_submodule(module) for module in _NAMES_BY_MODULE})


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_EXPORTS[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
