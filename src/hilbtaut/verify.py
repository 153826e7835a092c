"""Cross-checks pitting every closed formula against its brute-force oracle.

Every oracle lives here, beside the suite that runs it; the other modules
hold only closed forms and searches.  Each suite is written as a generator
of check outcomes, one per comparison: None when the two routes agree, else
the failure line.  One runner, `_suite`, turns it into the public suite
function, which counts the outcomes, collects the failures and times the run
into a `SuiteResult`.  The CLI `verify` subcommand runs seven of them
through `verify_all`; the acceptance tests reuse them with pinned bounds.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache, partial, wraps
from itertools import combinations, permutations, product
from math import factorial, prod
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import partitions
from .characters import (
    CharacterTable,
    CycleType,
    character,
    character_table,
    conjugacy_classes,
    restrict_to_transposition,
    transposition_type,
)
from .chern import (
    BundleBlock,
    BundleSpec,
    _generating_coefficient,
    b_class,
    c1,
    generating_polynomial,
    r_number,
    rank_G,
    regular_checksum,
)
from .divisors import DivisorClass, _as_rational
from .errors import IntegralityError, SizeLimitError
from .partitions import (
    LabeledComposition,
    LabeledSetPartition,
    Partition,
    bounded_index_p,
    dimension,
    enumerate_partitions,
    index_p,
    is_rectangular,
    iter_cosets,
    p_reduced,
    standard_tensor_multiplicity,
)

# moduli is imported by the suites that scan cosets, so that verify_all,
# which runs none of them, never loads it
if TYPE_CHECKING:
    from .moduli import HomTable, StabilityCertificate, VanishingReport


class SuiteResult(NamedTuple):
    name: str
    checks: int
    failures: list[str]
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def _suite(name: str):
    # one runner for every suite: the decorated generator yields one outcome
    # per check, None or the failure line; wraps keeps its __module__, which
    # the benchmark's tracer selects on, and its __wrapped__ for the tests
    def runner(outcomes):
        @wraps(outcomes)
        def suite(*bound) -> SuiteResult:
            started = time.perf_counter()
            checks = 0
            failures: list[str] = []
            for outcome in outcomes(*bound):
                checks += 1
                if outcome is not None:
                    failures.append(outcome)
            return SuiteResult(name, checks, failures, time.perf_counter() - started)

        return suite

    return runner


def _sweep_compositions(max_n: int):
    # canonical descending order plus the reversed (ascending) variant, so
    # unsorted compositions get exercised too
    for n in range(1, max_n + 1):
        for part in enumerate_partitions(n):
            yield tuple(part)
            rev = tuple(reversed(part))
            if rev != tuple(part):
                yield rev


def count_standard_tableaux(d: Sequence[int]) -> int:
    """Count standard tableaux by brute-force growth of the shape.

    Independent of the hook-length formula: cells are added one at a time,
    keeping row lengths weakly decreasing, and complete growth paths are
    counted.  Meant for small shapes (the call count equals the answer).
    """
    d = Partition(d)
    rows = [0] * len(d)

    def grow(placed: int) -> int:
        if placed == d.n:
            return 1
        total = 0
        for i in range(len(d)):
            if rows[i] < d[i] and (i == 0 or rows[i] < rows[i - 1]):
                rows[i] += 1
                total += grow(placed + 1)
                rows[i] -= 1
        return total

    return grow(0)


@_suite("coset counts vs index numbers")
def coset_count_suite(max_n: int = 6):
    """Coset enumeration vs the multinomial index numbers."""
    for lam in _sweep_compositions(max_n):
        singles, pairs = p_reduced(lam)
        index = index_p(lam)
        # one pass over the cosets, keeping only counts: the identity (the one
        # non-decreasing labeling) must come first and nowhere else
        ident = LabeledComposition(lam).identity_labels()
        count = 0
        identity_first = True
        first_counts: dict[int, int] = {}
        pair_counts: dict[tuple[int, int], int] = {}
        for coset in iter_cosets(lam):
            if (coset == ident) != (count == 0):
                identity_first = False
            count += 1
            first_counts[coset[0]] = first_counts.get(coset[0], 0) + 1
            if len(coset) >= 2:
                key = (coset[0], coset[1])
                pair_counts[key] = pair_counts.get(key, 0) + 1
        if count != index:
            yield f"lam={lam}: {count} cosets vs index {index}"
            continue
        # the identity's place and the single reductions' total belong to the
        # composition's first check
        yield (
            f"lam={lam}: identity coset not unique or not first" if not identity_first
            else f"lam={lam}: single reductions do not sum to the index"
            if sum(singles.values()) != index
            else None
        )
        for i, expected in singles.items():
            ok = first_counts.get(i, 0) == expected
            yield None if ok else f"lam={lam}: position-1 label {i} count mismatch"
        if sum(lam) >= 2:
            ordered_total = 0
            for (i, j), expected in pairs.items():
                for key in ((i, j),) if i == j else ((i, j), (j, i)):
                    ordered_total += expected
                    ok = pair_counts.get(key, 0) == expected
                    yield None if ok else f"lam={lam}: positions-1,2 labels {key} mismatch"
            yield None if ordered_total == index else (
                f"lam={lam}: pair reductions do not sum to the index"
            )


_BRUTE_FORCE_MAX = 7


def cycle_type_of(perm: Sequence[int]) -> CycleType:
    """Cycle type of a permutation given as a 0-based image tuple."""
    if not partitions._all_of(perm, partitions._is_int) or sorted(perm) != list(range(len(perm))):
        raise ValueError(f"expected a 0-based permutation as a list or tuple, got {perm!r}")
    return CycleType(_cycle_lengths(perm))


def _cycle_lengths(perm: Sequence[int]) -> tuple[int, ...]:
    # the cycle type of a permutation the caller built, as a plain tuple
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = perm[p]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def canonical_permutation(c: Sequence[int]) -> tuple[int, ...]:
    """A 0-based permutation with the given cycle type (consecutive cycles)."""
    image = []
    start = 0
    for length in CycleType(c):
        image.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return tuple(image)


def brute_force_character_table(m: int) -> CharacterTable:
    """Character table built without the Murnaghan-Nakayama rule.

    Class sizes come from enumerating all m! permutations, permutation-module
    characters from counting tabloids fixed by an explicit permutation, and
    irreducible characters from Gram-Schmidt in descending lexicographic
    order (which refines dominance, so each step strips off exactly the
    previously extracted constituents), with inner products weighted by
    those counted class sizes.  Exact and slow; degree <= 7.
    """
    # checked before the cache, which would hash the argument first
    if not partitions._is_int(m) or m < 1:
        raise ValueError(f"degree must be a positive integer, got {m!r}")
    if m > _BRUTE_FORCE_MAX:
        raise SizeLimitError(f"brute-force table capped at degree {_BRUTE_FORCE_MAX}")
    return _brute_force_table(m)


@lru_cache(maxsize=_BRUTE_FORCE_MAX)
def _brute_force_table(m: int) -> CharacterTable:
    diagrams = enumerate_partitions(m)
    sizes: dict[tuple[int, ...], int] = {}
    for g in permutations(range(m)):
        t = _cycle_lengths(g)
        sizes[t] = sizes.get(t, 0) + 1
    cycle_types = diagrams  # same enumeration order
    # a class representative g fixes a tabloid when the positions g moves
    # carry the labels of their images; only those positions are read (the
    # identity moves none, so it reads position 0 twice and fixes them all)
    readers = {}
    for c in cycle_types:
        g = canonical_permutation(c)
        moved = [p for p in range(m) if g[p] != p] or [0]
        readers[c] = itemgetter(*moved), itemgetter(*(g[p] for p in moved))
    irreducibles: list[dict[CycleType, int]] = []
    for mu in diagrams:
        tabloids = tuple(iter_cosets(mu))
        vals = {
            c: sum(1 for lab in tabloids if at(lab) == image(lab))
            for c, (at, image) in readers.items()
        }
        for prev in irreducibles:
            # the sum over all m! permutations, grouped by cycle type; a
            # multiplicity is an integer, so the values stay integers
            mult, rem = divmod(sum(sizes[c] * vals[c] * prev[c] for c in cycle_types), factorial(m))
            if rem:
                raise ArithmeticError(f"non-integral multiplicity in degree {m}")
            if mult:
                vals = {c: vals[c] - mult * prev[c] for c in cycle_types}
        irreducibles.append(vals)
    values = [[vals[c] for c in cycle_types] for vals in irreducibles]
    return CharacterTable(
        m, diagrams, cycle_types, [sizes[c] for c in cycle_types], values
    )


@_suite("characters vs permutation brute force")
def character_suite(max_m: int = 6):
    """Recursive character values vs the tabloid/Gram-Schmidt oracle."""
    for m in range(1, min(max_m, 7) + 1):
        fast = character_table(m)
        slow = brute_force_character_table(m)
        for row_fast, row_slow, d in zip(fast.values, slow.values, fast.diagrams):
            yield None if row_fast == row_slow else (
                f"m={m} diagram {tuple(d)}: {row_fast} vs {row_slow}"
            )
        yield None if fast.class_sizes == slow.class_sizes else (
            f"m={m}: class sizes {fast.class_sizes} vs {slow.class_sizes}"
        )


def inner_product(
    f: Callable[[CycleType], int | Fraction],
    g: Callable[[CycleType], int | Fraction],
    m: int,
) -> Fraction:
    """Class-function inner product (1/m!) sum over classes of size*f*g."""
    if not (callable(f) and callable(g)):
        raise ValueError(f"f and g must be class functions, got {f!r} and {g!r}")
    # exact in int while f and g give ints; one division at the end
    total = sum(size * f(c) * g(c) for c, size in conjugacy_classes(m))
    return Fraction(total, factorial(m))


def permutation_character(c: Sequence[int]) -> int:
    """Character of the natural permutation module: fixed points."""
    return sum(1 for length in CycleType(c) if length == 1)


def _tensor_multiplicity_by_characters(d: Sequence[int]) -> Fraction:
    """Oracle for standard_tensor_multiplicity: the class-function inner
    product of (permutation character) * chi_d with chi_d."""
    m = sum(d)
    table = character_table(m)
    # the inner product over the table's classes, weighted by its class sizes
    total = sum(
        size * permutation_character(c) * chi * chi
        for c, size, chi in zip(table.cycle_types, table.class_sizes, table.row(d))
    )
    return Fraction(total, factorial(m))


@_suite("rectangularity vs tensor multiplicity")
def rectangularity_suite(max_m: int = 8):
    """Distinct-part count vs the character inner product, and
    multiplicity 1 exactly on rectangular diagrams."""
    for m in range(1, max_m + 1):
        for d in enumerate_partitions(m):
            mult = standard_tensor_multiplicity(d)
            oracle = _tensor_multiplicity_by_characters(d)
            ok = mult == oracle and (mult == 1) == is_rectangular(d)
            yield None if ok else f"{tuple(d)}: multiplicity {mult}, inner product {oracle}"


@_suite("transposition restriction sums")
def restriction_suite(max_m: int = 10):
    """Trivial/sign multiplicities under a 2-cycle sum to the dimension."""
    for m in range(2, max_m + 1):
        for d in enumerate_partitions(m):
            alpha, beta = restrict_to_transposition(d)
            ok = alpha >= 0 and beta >= 0 and alpha + beta == dimension(d)
            yield None if ok else f"{tuple(d)}: alpha={alpha} beta={beta} dim={dimension(d)}"


def _all_specs(n: int):
    # every spec is still built and validated; the blocks of one position
    # and rep, one per rank, are built once per call and shared by the specs
    # that carry them
    blocks: dict[tuple, tuple[BundleBlock, ...]] = {}

    def position_blocks(i: int, rep) -> tuple[BundleBlock, ...]:
        key = (i, rep)
        if key not in blocks:
            blocks[key] = tuple(BundleBlock(rank, f"e{i + 1}", rep) for rank in (1, 2, 3))
        return blocks[key]

    for lam in enumerate_partitions(n):
        comp = LabeledComposition(lam)
        for reps in product(*(enumerate_partitions(part) for part in lam)):
            # in rank-tuple order, as product((1, 2, 3), repeat=k)
            for chosen in product(*(position_blocks(i, rep) for i, rep in enumerate(reps))):
                yield BundleSpec(comp, chosen)


def c1_via_blowup(b: DivisorClass, invariant_rank: int) -> DivisorClass:
    """Assemble the Chern class from the surface part and the rank of the
    sign-twisted restriction to the pairwise diagonal (the blowup route)."""
    if not isinstance(b, DivisorClass):
        raise ValueError(f"expected a DivisorClass, got {b!r}")
    delta = b.delta - _as_rational(invariant_rank)
    return DivisorClass._trusted(b.surface, delta).require_integral("c1_via_blowup")


@lru_cache(maxsize=256)
def _same_label_pair_counts(parts: tuple[int, ...]) -> dict[int, int]:
    # Brute-force census: how many cosets give positions 1 and 2 the same
    # label i.  Counted by scanning the enumeration, never by formula.
    counts: dict[int, int] = {}
    for labels in iter_cosets(parts):
        if labels[0] == labels[1]:
            counts[labels[0]] = counts.get(labels[0], 0) + 1
    return counts


@lru_cache(maxsize=1024)
def _transposition_character(rep: Partition) -> int:
    # the Murnaghan-Nakayama value at a 2-cycle, from character() and never
    # from the content formula that r_number is built on; once per diagram
    return character(rep, transposition_type(rep.n))


def invariant_restriction_rank(spec: BundleSpec) -> int:
    """Rank of the invariants of the sign-twisted restriction to the
    pairwise diagonal, via the trace of the swap.

    Independent oracle for r_number: rank = (dim - trace)/2 where dim is the
    full fibre dimension and the trace gets a contribution only from cosets
    fixed by swapping positions 1 and 2 (both positions carrying one label i),
    each worth r_i * (s / r_i^2) * chi_i(transposition) * (w / w_i).
    Returns 0 when n < 2 (there is no pairwise diagonal).
    """
    if not isinstance(spec, BundleSpec):
        raise ValueError(f"expected a BundleSpec, got {spec!r}")
    return _swap_trace_rank(spec)


def _swap_trace_rank(spec: BundleSpec) -> int:
    # invariant_restriction_rank on a spec the caller built
    if spec.n < 2:
        return 0
    # the census checks the coset cap when it enumerates; a composition it
    # already counted was within the cap
    s, w = spec.s, spec.w
    trace = 0
    for i, cnt in _same_label_pair_counts(spec.lam).items():
        blk = spec.blocks[i - 1]
        # a fixed coset forces at least two copies of label i, so r_i^2 | s
        chi = _transposition_character(blk.rep)
        trace += cnt * blk.rank * (s // blk.rank**2) * chi * (w // blk.rep_dim)
    dim = rank_G(spec)
    if (dim - trace) % 2:
        raise IntegralityError(f"odd swap trace defect: dim {dim}, trace {trace}")
    return (dim - trace) // 2


@_suite("chern delta coefficient vs swap-trace oracle")
def rank_oracle_suite(max_n: int = 6):
    """Closed-form delta coefficient vs the swap-trace oracle, full sweep.

    Two checks per spec, whatever the first one finds: the delta
    coefficients, then c1 against b_class - oracle * delta.
    """
    for n in range(2, max_n + 1):
        for spec in _all_specs(n):
            closed = r_number(spec)
            oracle = _swap_trace_rank(spec)
            yield None if closed == oracle else (
                f"lam={tuple(spec.lam)} ranks={[b.rank for b in spec.blocks]} "
                f"reps={[tuple(b.rep) for b in spec.blocks]}: {closed} vs {oracle}"
            )
            # compared part by part, without building the second class
            full, b = c1(spec), b_class(spec)
            ok = full.surface == b.surface and full.delta == b.delta - oracle and full.is_integral
            yield None if ok else f"lam={tuple(spec.lam)}: c1 routes disagree"


# The largest degree whose whole polynomial the generating suite expands:
# at most 35 monomials.
_EXPANDED_MAX_N = 4


@_suite("generating polynomial coefficients")
def generating_suite(max_n: int = 6):
    """Generating-polynomial coefficients vs per-shape closed formulas.

    Up to degree _EXPANDED_MAX_N the coefficients are read from the whole
    expanded polynomial.  Above it each checked coefficient is computed
    alone, by the closed form `generating --coeff` uses, so no other
    monomial is built.
    """
    rank_cycle = (2, 1, 3)
    for n in range(2, max_n + 1):
        inputs = [(rank_cycle[i % 3], f"e{i + 1}") for i in range(n)]
        for variant in ("trivial", "sign"):
            if n <= _EXPANDED_MAX_N:
                coefficient = generating_polynomial(n, inputs, variant).coefficient_of
            else:
                coefficient = partial(_generating_coefficient, n, inputs, variant=variant)
            for lam in enumerate_partitions(n):
                expts = tuple(lam) + (0,) * (n - len(lam))
                reps = [(part,) if variant == "trivial" else (1,) * part for part in lam]
                blocks = [(*inputs[i], rep) for i, rep in enumerate(reps)]
                spec = BundleSpec.build(tuple(lam), blocks)
                ok = coefficient(expts) == c1(spec)
                yield None if ok else f"n={n} {variant} lam={tuple(lam)}: coefficient mismatch"


def regular_checksum_via_irreps(n: int, rank: int, symbol: str) -> DivisorClass:
    """Oracle for regular_checksum: the same total, assembled irreducible
    by irreducible as the dimension-weighted sum of c1 (the slow route)."""
    total = DivisorClass.zero()
    for d in enumerate_partitions(n):
        spec = BundleSpec.build((n,), [(rank, symbol, d)])
        total = total + c1(spec) * dimension(d)
    return total


@_suite("regular-representation checksum")
def regular_suite(max_n: int = 6):
    """Closed-form checksum vs the dimension-weighted sum over irreducibles."""
    for n in range(2, max_n + 1):
        for rank in (1, 2, 3):
            ok = regular_checksum(n, rank, "e") == regular_checksum_via_irreps(n, rank, "e")
            yield None if ok else f"n={n} rank={rank}: checksum mismatch"


def vanishing_by_enumeration(lam: Sequence[int], table: HomTable) -> VanishingReport:
    """Oracle for offdiagonal_ext1_vanishing: the degree-1 dimension of
    every nontrivial coset in coset order, stopping at the first nonzero."""
    from .moduli import VanishingReport

    lam = LabeledComposition(lam)
    ident = lam.identity_labels()
    n = lam.n
    hom, ext1 = table.hom, table.ext1
    for labels in iter_cosets(lam):
        if labels == ident:
            continue
        h = [hom[ident[p] - 1][labels[p] - 1] for p in range(n)]
        zeros = h.count(0)
        if zeros >= 2:
            continue
        e = [ext1[ident[p] - 1][labels[p] - 1] for p in range(n)]
        if zeros == 1:
            p0 = h.index(0)
            deg1 = e[p0] * prod(h[p] for p in range(n) if p != p0)
        else:
            full = prod(h)
            deg1 = sum(e[p] * (full // h[p]) for p in range(n))
        if deg1:
            return VanishingReport(False, LabeledSetPartition(labels), deg1)
    return VanishingReport(True, None, 0)


def stability_by_enumeration(lam: Sequence[int], table: HomTable) -> StabilityCertificate:
    """Oracle for stability_certificate: a slope witness searched on every
    nontrivial coset in coset order, stopping at the first without one."""
    from .moduli import StabilityCertificate

    lam = LabeledComposition(lam)
    ident = lam.identity_labels()
    labels_of = table.iso_labels
    slopes = table.slopes
    witnesses: list[tuple[LabeledSetPartition, int]] = []
    for labels in iter_cosets(lam):
        if labels == ident:
            continue
        found = 0
        for p in range(lam.n):
            a, b = ident[p] - 1, labels[p] - 1
            if labels_of[a] != labels_of[b] and slopes[a] >= slopes[b]:
                found = p + 1
                break
        if not found:
            return StabilityCertificate(False, tuple(witnesses), LabeledSetPartition(labels))
        witnesses.append((LabeledSetPartition(labels), found))
    return StabilityCertificate(True, tuple(witnesses), None)


def _compositions(n: int):
    # every composition of n, each subset of the n - 1 gaps cut once
    for cuts in product((False, True), repeat=n - 1):
        parts = [1]
        for cut in cuts:
            if cut:
                parts.append(1)
            else:
                parts[-1] += 1
        yield tuple(parts)


def _coset_scan_tables(k: int, rng: random.Random):
    # identity Hom (every coset scanned), all-nonzero Hom/Ext^1 (first coset
    # fails), random entries and labels, then one adjacent and one
    # non-adjacent repeated label; Hom diagonals are 1, as ext requires
    from .moduli import HomTable

    def matrix(low: int, high: int):
        return [[rng.randint(low, high) for _ in range(k)] for _ in range(k)]

    def table(hom, ext1, labels):
        for i in range(k):
            hom[i][i] = 1
        slope_of = {name: Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for name in labels}
        return HomTable(hom, ext1, labels, [slope_of[name] for name in labels])

    distinct = [f"L{i}" for i in range(k)]
    yield "identity-hom", table(matrix(0, 0), matrix(0, 2), distinct)
    yield "all-nonzero", table(matrix(1, 2), matrix(1, 2), distinct)
    yield "random", table(matrix(0, 2), matrix(0, 2), [f"L{rng.randrange(k)}" for _ in range(k)])
    if k >= 2:
        a = rng.randrange(k - 1)
        yield "adjacent repeat", table(matrix(0, 2), matrix(0, 2), distinct[: a + 1] + distinct[a:-1])
    if k >= 3:
        a = rng.randrange(k - 2)
        labels = list(distinct)
        labels[rng.randrange(a + 2, k)] = labels[a]
        yield "non-adjacent repeat", table(matrix(0, 2), matrix(0, 2), labels)


@_suite("double-coset scans vs coset enumeration")
def coset_scan_suite(max_n: int = 7):
    """Double-coset vanishing and closed-form stability vs coset enumeration
    on every composition of n <= max_n, under seeded tables."""
    from .moduli import offdiagonal_ext1_vanishing, stability_certificate

    rng = random.Random(20261017)
    for n in range(1, max_n + 1):
        for lam in _compositions(n):
            for kind, table in _coset_scan_tables(len(lam), rng):
                fast, slow = offdiagonal_ext1_vanishing(lam, table), vanishing_by_enumeration(lam, table)
                yield None if fast == slow else f"lam={lam} {kind}: vanishing {fast} vs {slow}"
                cert, oracle = stability_certificate(lam, table), stability_by_enumeration(lam, table)
                ok = (cert.ok, cert.failing_coset, len(cert.witnesses)) == (
                    oracle.ok, oracle.failing_coset, len(oracle.witnesses)
                ) and tuple(cert.witnesses[:11]) == oracle.witnesses[:11]
                yield None if ok else f"lam={lam} {kind}: stability certificates differ"


def grouping_by_search(table: HomTable) -> tuple[tuple[int, ...], ...] | None:
    """Oracle for check_conditions on tables with a simple diagonal:
    backtracking over ordered set partitions, groups built left to right and
    candidate subsets tried by size, then lexicographically.  Returns the
    first grouping found (1-based) or None; exponential when none exists."""

    def same_ok(i: int, j: int) -> bool:
        return table.hom[i][j] == 0 and table.hom[j][i] == 0

    def before_ok(i: int, j: int) -> bool:
        # i in an earlier group than j: maps from j back to i must vanish
        return table.hom[j][i] == 0 and table.ext1[j][i] == 0

    def search(remaining: tuple[int, ...], earlier: tuple[int, ...], placed):
        if not remaining:
            return tuple(placed)
        for size in range(1, len(remaining) + 1):
            for subset in combinations(remaining, size):
                if all(same_ok(a, b) for a, b in combinations(subset, 2)) and all(
                    before_ok(e, s) for e in earlier for s in subset
                ):
                    rest = tuple(x for x in remaining if x not in subset)
                    found = search(rest, earlier + subset, placed + [subset])
                    if found:
                        return found
        return None

    grouping = search(tuple(range(table.k)), (), [])
    if grouping is None:
        return None
    return tuple(tuple(i + 1 for i in group) for group in grouping)


def _grouping_tables(k: int, rng: random.Random, count: int):
    # identity Hom (any order), a 3-cycle of Homs on the last three blocks
    # (pairwise fine, no grouping), a chain forcing the reverse order, mutual
    # Ext^1 pairs that must each share a group, then count random tables
    # with about k pairwise relations
    from .moduli import HomTable

    def table(hom, ext1):
        for i in range(k):
            hom[i][i] = 1
        return HomTable(hom, ext1, [f"L{i}" for i in range(k)], [0] * k)

    def zero():
        return [[0] * k for _ in range(k)]

    yield "identity-hom", table(zero(), zero())
    if k >= 3:
        hom = zero()
        hom[k - 3][k - 2] = hom[k - 2][k - 1] = hom[k - 1][k - 3] = 1
        yield "3-cycle", table(hom, zero())
    if k >= 2:
        hom = zero()
        for i in range(k - 1):
            hom[i + 1][i] = 1
        yield "chain", table(hom, zero())
    if k >= 4:
        ext1 = zero()
        ext1[0][1] = ext1[1][0] = ext1[k - 2][k - 1] = ext1[k - 1][k - 2] = 1
        yield "mutual pairs", table(zero(), ext1)
    for _ in range(count):
        hom, ext1 = zero(), zero()
        for i, j in combinations(range(k), 2):
            a, b = rng.sample((i, j), 2)
            roll = rng.random() * k / 4
            if roll < 0.4:  # a must come first
                (hom if roll < 0.2 else ext1)[a][b] = 1
            elif roll < 0.5:  # one group
                ext1[a][b] = ext1[b][a] = 1
            elif roll < 0.505:  # no arrangement
                hom[a][b] = hom[b][a] = 1
        yield "random", table(hom, ext1)


@_suite("grouping components vs backtracking search")
def grouping_suite():
    """Strongly-connected-component grouping vs the backtracking search on
    structured and seeded random tables with k <= 7 blocks, fewer of them
    where the search costs more (1,083 tables in all)."""
    from .moduli import check_conditions

    rng = random.Random(20261018)
    for k in range(8):
        count = min(200, 20 * 3 ** (7 - k)) if k else 0
        for kind, table in _grouping_tables(k, rng, count):
            fast, slow = check_conditions(table).grouping, grouping_by_search(table)
            yield None if fast == slow else (
                f"k={k} {kind} {table.hom} {table.ext1}: {fast} vs {slow}"
            )


def verify_all(max_n: int = 6) -> list[SuiteResult]:
    """Run seven oracle suites with bounds tied to max_n; from max_n = 2 on,
    each suite makes at least one check.

    The size caps the suites would meet are checked first, before any work:
    partitions of max_n + 4 and max_n! cosets.  The largest accepted bound
    is max_n = 9.
    """
    if not partitions._is_int(max_n) or max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n!r}")
    if max_n + 4 > partitions.MAX_PARTITION_N:
        # read first, so that a huge max_n builds nothing
        raise SizeLimitError(
            f"max_n = {max_n} needs partitions of {max_n + 4}, "
            f"past the partition bound {partitions.MAX_PARTITION_N}"
        )
    bounded_index_p((1,) * max_n)
    # built at each call, so that a suite rebound on the module is the one run
    suites = (
        (coset_count_suite, max_n),
        (character_suite, min(max_n, 6)),
        (rectangularity_suite, max_n + 2),
        (restriction_suite, max_n + 4),
        (rank_oracle_suite, max_n),
        (generating_suite, max_n),
        (regular_suite, max_n),
    )
    return [suite(bound) for suite, bound in suites]
