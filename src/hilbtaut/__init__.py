"""Exact invariants of induced tautological bundles on Hilbert schemes.

Everything is integer or rational arithmetic: partition and coset
combinatorics, symmetric-group characters, divisor-class bookkeeping, the
rank/Chern pipeline with its brute-force oracles, and Hom/Ext certificates.
"""

from .errors import (
    IntegralityError,
    ModuliDimensionMismatchError,
    NotApplicableError,
    ShapeMismatchError,
    SizeLimitError,
    SpecValidationError,
)
from .partitions import (
    LabeledComposition,
    LabeledSetPartition,
    Partition,
    YoungDiagram,
    conjugate,
    count_standard_tableaux,
    dimension,
    enumerate_cosets,
    enumerate_partitions,
    identity_coset,
    index_p,
    is_rectangular,
    iter_cosets,
    multinomial_index,
    p_reduced,
    reduce_once,
    reduce_twice,
    standard_tensor_multiplicity,
)
from .characters import (
    CharacterTable,
    CycleType,
    RestrictionPair,
    brute_force_character_table,
    character,
    character_table,
    class_size,
    conjugacy_classes,
    inner_product,
    permutation_character,
    regular_character_value,
    restrict_to_transposition,
    sign_character,
    transposition_type,
)
from .divisors import ClassPolynomial, DivisorClass
from .chern import (
    BundleBlock,
    BundleSpec,
    b_class,
    c1,
    c1_via_blowup,
    generating_polynomial,
    invariant_restriction_rank,
    r_number,
    rank_G,
    regular_checksum,
    regular_checksum_via_irreps,
)
from .moduli import (
    ConditionReport,
    EndDims,
    HomTable,
    StabilityCertificate,
    VanishingReport,
    check_conditions,
    equivariant_end_dims,
    hom_between,
    moduli_component_dim,
    offdiagonal_ext1_vanishing,
    slope_of_induced,
    stability_certificate,
)
from .cli import SpecDocument, dispatch, parse_spec
from .verify import verify_all

__version__ = "0.1.0"
