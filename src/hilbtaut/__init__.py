"""Exact invariants of induced tautological bundles on Hilbert schemes.

Everything is integer or rational arithmetic: partition and coset
combinatorics, symmetric-group characters, divisor-class bookkeeping, the
rank/Chern pipeline, Hom/Ext certificates, and the brute-force oracles that
check every closed form.
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
    character,
    character_table,
    class_size,
    conjugacy_classes,
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
    generating_polynomial,
    r_number,
    rank_G,
    regular_checksum,
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
from .verify import (
    brute_force_character_table,
    c1_via_blowup,
    canonical_permutation,
    count_standard_tableaux,
    cycle_type_of,
    inner_product,
    invariant_restriction_rank,
    permutation_character,
    regular_checksum_via_irreps,
    verify_all,
)

__version__ = "0.1.0"
