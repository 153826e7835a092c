"""Cross-checks pitting every closed formula against its brute-force oracle.

Every oracle of the suites `verify_all` runs lives here, beside its suite;
the product modules hold only closed forms and searches, and the two suites
that only the tests run, with the coset-scan and grouping oracles of the
Hom/Ext layer, live in `scan_oracles`.  Each suite is written as a
generator of check outcomes, one per comparison: None when the two routes
agree, else the failure line.  One runner, `_suite`, turns it into the
public suite function, which counts the outcomes, collects the failures and
times the run into a `SuiteResult`.  The CLI `verify` subcommand runs seven
of them through `verify_all`; the acceptance tests reuse them with pinned
bounds.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import lru_cache, partial, wraps
from itertools import permutations, product
from math import comb, factorial
from operator import eq, itemgetter
from typing import Callable, NamedTuple, Sequence

from . import partitions
from .characters import (
    CharacterTable,
    CycleType,
    _border_strips,
    character,
    character_table,
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
from .divisors import _ZERO_SYMBOLS, DivisorClass
from .errors import IntegralityError, SizeLimitError, _brief
from .partitions import (
    LabeledComposition,
    Partition,
    bounded_index_p,
    content_sum,
    dimension,
    enumerate_partitions,
    index_p,
    is_rectangular,
    iter_cosets,
    standard_tensor_multiplicity,
)


class SuiteResult(NamedTuple):
    name: str
    checks: int
    failures: list[str]
    seconds: float

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


def _reduction_counts(lam: tuple[int, ...]) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    # (singles, pairs): singles[i] cosets give position 1 the label i, and
    # pairs[(i, j)], i <= j, give positions 1 and 2 the labels (i, j), with
    # (i, i) only when block i has two positions.  Each is the multinomial
    # of the composition left after removing those labels.
    def left(*labels: int) -> int:
        parts = list(lam)
        for i in labels:
            parts[i - 1] -= 1
        return partitions._multinomial(parts)

    k = len(lam)
    singles = {i: left(i) for i in range(1, k + 1)}
    pairs = {
        (i, j): left(i, j)
        for i in range(1, k + 1)
        for j in range(i, k + 1)
        if i != j or lam[i - 1] >= 2
    }
    return singles, pairs


@_suite("coset counts vs index numbers")
def coset_count_suite(max_n: int = 6):
    """Coset enumeration vs the multinomial index numbers."""
    for lam in _sweep_compositions(max_n):
        singles, pairs = _reduction_counts(lam)
        index = index_p(lam)
        count, identity_first, first_counts, pair_counts = _coset_census(lam)
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
            ok = first_counts[i - 1] == expected
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
    if not partitions._is_int(m) or m < 1:
        raise ValueError(f"degree must be a positive integer, got {_brief(m)}")
    if m > _BRUTE_FORCE_MAX:
        raise SizeLimitError(f"brute-force table capped at degree {_BRUTE_FORCE_MAX}")
    # the diagrams, which are also the cycle types, in the table's order
    shapes = enumerate_partitions(m)
    sizes = Counter(map(_cycle_lengths, permutations(range(m))))
    # a class representative g fixes a tabloid t when t read through g,
    # (t[g(0)], ..., t[g(m - 1)]), is t itself; at degree 1 itemgetter of
    # one index would return the label alone, and the one permutation there,
    # the identity, reads t whole
    images = {
        c: itemgetter(*canonical_permutation(c)) if m > 1 else itemgetter(slice(None))
        for c in shapes
    }
    irreducibles: list[dict[CycleType, int]] = []
    for mu in shapes:
        tabloids = tuple(iter_cosets(mu))
        vals = {c: sum(map(eq, tabloids, map(image, tabloids))) for c, image in images.items()}
        for prev in irreducibles:
            # the sum over all m! permutations, grouped by cycle type; a
            # multiplicity is an integer, so the values stay integers
            mult, rem = divmod(sum(sizes[c] * vals[c] * prev[c] for c in shapes), factorial(m))
            if rem:
                raise IntegralityError(f"non-integral multiplicity in degree {_brief(m)}")
            if mult:
                vals = {c: vals[c] - mult * prev[c] for c in shapes}
        irreducibles.append(vals)
    values = [[vals[c] for c in shapes] for vals in irreducibles]
    return CharacterTable(m, [sizes[c] for c in shapes], values)


@_suite("characters vs permutation brute force")
def character_suite(max_m: int = 6):
    """Recursive characters and hook-length dimensions vs the tabloid oracle,
    for each degree up to max_m; past _BRUTE_FORCE_MAX the oracle raises
    SizeLimitError."""
    for m in range(1, max_m + 1):
        fast = character_table(m)
        slow = brute_force_character_table(m)
        for row_fast, row_slow, d in zip(fast.values, slow.values, fast.partitions):
            # the dimension is the value at the identity, the last cycle type
            ok = row_fast == row_slow and dimension(d) == row_slow[-1]
            yield None if ok else (
                f"m={m} diagram {tuple(d)}: {row_fast} vs {row_slow}"
            )
        yield None if fast.class_sizes == slow.class_sizes else (
            f"m={m}: class sizes {fast.class_sizes} vs {slow.class_sizes}"
        )


def inner_product(f: Callable[[CycleType], int], g: Callable[[CycleType], int], m: int) -> int:
    """Class-function inner product (1/m!) sum over classes of size*f*g,
    for characters, or class functions whose inner product is an integer;
    on any other input m! does not divide the sum: IntegralityError."""
    if not (callable(f) and callable(g)):
        raise ValueError(f"f and g must be class functions, got {_brief(f)} and {_brief(g)}")
    # the class sizes of the cached table: conjugacy_classes(m) would
    # recompute each one at every call
    table = character_table(m)
    total = sum(size * f(c) * g(c) for c, size in zip(table.partitions, table.class_sizes))
    quotient, rem = divmod(total, factorial(m))
    if rem:
        raise IntegralityError(f"inner product in degree {_brief(m)} is not an integer")
    return quotient


def permutation_character(c: Sequence[int]) -> int:
    """Character of the natural permutation module: fixed points."""
    return sum(1 for length in CycleType(c) if length == 1)


def _tensor_multiplicity_by_characters(d: Sequence[int]) -> int:
    """Oracle for standard_tensor_multiplicity: the class-function inner
    product of (permutation character) * chi_d with chi_d."""
    m = sum(d)
    table = character_table(m)
    chi = dict(zip(table.partitions, table.row(d))).__getitem__
    return inner_product(lambda c: permutation_character(c) * chi(c), chi, m)


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
    """Trivial/sign multiplicities under a 2-cycle sum to the dimension.

    The value at the 2-cycle is Frobenius's content formula,
    chi = dim * content_sum / C(m, 2) (Macdonald, Symmetric Functions and
    Hall Polynomials, I.7 Ex. 7), and it must equal the domino rule: the
    signed sum of the dimensions left by each border strip of length 2.
    The multiplicities are (dim +- chi)/2; a remainder in either division
    fails the check.
    """
    for m in range(2, max_m + 1):
        for d in enumerate_partitions(m):
            dim = dimension(d)
            chi, rem = divmod(dim * content_sum(d), comb(m, 2))
            dominoes = sum(sign * dimension(rest) for sign, rest in _border_strips(d, 2))
            alpha, beta = (dim + chi) // 2, (dim - chi) // 2
            ok = not rem and chi == dominoes and alpha >= 0 and beta >= 0 and alpha + beta == dim
            yield None if ok else f"{tuple(d)}: alpha={alpha} beta={beta} dim={dim}"


def _specs_by_shape(n: int):
    # every spec of degree n, one iterator per composition and choice of
    # block representations, each in rank-tuple order as product((1, 2, 3),
    # repeat=k); lazy, as 3^9 specs with their classes would double the
    # memory of a --max-n 9 sweep.  Every spec is still built and
    # validated; the blocks of one position and rep, one per rank, are
    # built once per call and shared by the specs that carry them.  An
    # iterator reads `comp` as its specs are drawn, so they are drawn
    # before the next iterator is asked for.
    blocks: dict[tuple, tuple[BundleBlock, ...]] = {}

    def position_blocks(i: int, rep) -> tuple[BundleBlock, ...]:
        key = (i, rep)
        if key not in blocks:
            blocks[key] = tuple(BundleBlock(rank, f"e{i + 1}", rep) for rank in (1, 2, 3))
        return blocks[key]

    for lam in enumerate_partitions(n):
        comp = LabeledComposition(lam)
        for reps in product(*(enumerate_partitions(part) for part in lam)):
            chosen = product(*(position_blocks(i, rep) for i, rep in enumerate(reps)))
            yield (BundleSpec(comp, b) for b in chosen)


def c1_via_blowup(b: DivisorClass, invariant_rank: int) -> DivisorClass:
    """Assemble the Chern class from the surface part and the rank of the
    sign-twisted restriction to the pairwise diagonal (the blowup route)."""
    if not isinstance(b, DivisorClass):
        raise ValueError(f"expected a DivisorClass, got {_brief(b)}")
    if not partitions._is_int(invariant_rank):
        raise ValueError(f"the rank must be an integer, got {type(invariant_rank).__name__}")
    return DivisorClass._trusted(b.surface, b.delta - invariant_rank)


@lru_cache(maxsize=256)
def _coset_census(parts: tuple[int, ...]) -> tuple[int, bool, tuple[int, ...], dict]:
    # The one census of the cosets, by enumeration and never by formula: the
    # count; whether the identity (the one non-decreasing labeling) comes
    # first and nowhere else; how many cosets give position 1 the label i
    # (entry i - 1); how many give positions 1 and 2 the labels (i, j), in
    # order.  coset_count_suite checks it against the multinomials and the
    # swap-trace checks read it; 256 entries hold all of its largest sweep.
    ident = LabeledComposition(parts).identity_labels()
    count = 0
    identity_first = True
    firsts = [0] * len(parts)
    pairs: dict[tuple[int, ...], int] = {}
    for labels in iter_cosets(parts):
        if (labels == ident) != (count == 0):
            identity_first = False
        count += 1
        firsts[labels[0] - 1] += 1
        key = labels[:2]
        pairs[key] = pairs.get(key, 0) + 1
    return count, identity_first, tuple(firsts), pairs


@lru_cache(maxsize=1024)
def _transposition_character(rep: Partition) -> int:
    # the Murnaghan-Nakayama value at a 2-cycle, from character() and never
    # from the content formula that r_number is built on; once per diagram
    return character(rep, transposition_type(rep.n))


def invariant_restriction_rank(spec: BundleSpec) -> int:
    """Rank of the invariants of the sign-twisted restriction to the
    pairwise diagonal, via the trace of the swap.

    Independent oracle for r_number: rank = (dim - trace)/2 where dim is the
    full fibre dimension, the counted cosets times s * w, and the trace gets
    a contribution only from cosets fixed by swapping positions 1 and 2
    (both positions carrying one label i), each worth
    r_i * (s / r_i^2) * chi_i(transposition) * (w / w_i).
    Returns 0 when n < 2 (there is no pairwise diagonal).
    """
    if not isinstance(spec, BundleSpec):
        raise ValueError(f"expected a BundleSpec, got {_brief(spec)}")
    if spec.n < 2:
        return 0
    return _swap_trace(_swap_trace_shape(spec), spec)[1]


# (count * w, ((trace term, c1 symbol or None, position-1 count * w) per block))
_Shape = tuple[int, tuple[tuple[int, str | None, int], ...]]


def _swap_trace_shape(spec: BundleSpec) -> _Shape:
    # The rank-free half of the swap-trace oracle, read from the census and
    # the blocks only, so one value serves every spec of the same
    # composition, representations and symbols: the counted cosets times w;
    # and per block i, the cosets fixed by the swap (labels i at positions 1
    # and 2) times chi_i(transposition) times w / w_i, its c1 symbol (None
    # for a zero symbol), and the cosets that give position 1 the label i,
    # times w.  The census checks the coset cap when it enumerates; a
    # composition it already counted was within the cap.
    count, _, firsts, pairs = _coset_census(spec.lam)
    w = spec.w
    blocks = []
    for i, (blk, first) in enumerate(zip(spec.blocks, firsts), start=1):
        fixed = pairs.get((i, i))
        term = fixed * _transposition_character(blk.rep) * (w // blk.rep_dim) if fixed else 0
        symbol = None if blk.c1_symbol in _ZERO_SYMBOLS else blk.c1_symbol
        blocks.append((term, symbol, first * w))
    return count * w, tuple(blocks)


def _swap_trace(shape: _Shape, spec: BundleSpec) -> tuple[int, int, dict[str, int]]:
    # the per-spec half, in one pass over the blocks: the fibre dimension,
    # the rank of the invariants and the surface part.  The fibre dimension
    # takes the factor s; block i's fixed-coset term takes r_i * (s / r_i^2),
    # which is s / r_i because a coset with label i at positions 1 and 2
    # forces r_i^2 | s; its position-1 count takes s / r_i too.
    dim_w, blocks = shape
    s = spec.s
    trace = 0
    surface: dict[str, int] = {}
    for blk, (term, symbol, first_w) in zip(spec.blocks, blocks):
        share = s // blk.rank
        trace += term * share
        if symbol is not None:
            surface[symbol] = surface.get(symbol, 0) + first_w * share
    dim = dim_w * s
    if (dim - trace) % 2:
        raise IntegralityError(f"odd swap trace defect: dim {_brief(dim)}, trace {_brief(trace)}")
    return dim, (dim - trace) // 2, surface


@_suite("chern delta coefficient vs swap-trace oracle")
def rank_oracle_suite(max_n: int = 6):
    """Closed-form rank and c1 vs the coset census, full sweep.

    Two checks per spec, whatever the first one finds: the delta
    coefficient against the swap-trace oracle, then the surface part of c1
    against the one counted from the same census.  The oracle's rank-free
    half is built once per composition and choice of representations, and
    its per-spec half is evaluated for each of the 3^k rank tuples.  The
    spec that builds the half also compares rank_G with the fibre dimension
    that the oracle counts, and reads its surface part through b_class.
    """
    for n in range(2, max_n + 1):
        for specs in _specs_by_shape(n):
            shape = None
            for spec in specs:
                closed = r_number(spec)
                # rank_G and b_class are read on the spec that builds the
                # shape; every other spec reads the class r_number memoised,
                # whose surface is the dict b_class would share
                if shape is None:
                    shape = _swap_trace_shape(spec)
                    rank, closed_surface = rank_G(spec), b_class(spec).surface
                else:
                    rank, closed_surface = None, c1(spec).surface
                dim, oracle, surface = _swap_trace(shape, spec)
                if closed != oracle:
                    yield (
                        f"lam={tuple(spec.lam)} ranks={[b.rank for b in spec.blocks]} "
                        f"reps={[tuple(b.rep) for b in spec.blocks]}: {closed} vs {oracle}"
                    )
                elif rank is not None and rank != dim:
                    yield f"lam={tuple(spec.lam)}: rank {rank} vs fibre dimension {dim}"
                else:
                    yield None
                # compared as stored surfaces, without building a second class
                ok = closed_surface == surface
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
                terms = generating_polynomial(n, inputs, variant)
                coefficient = lambda expts: terms.get(expts, DivisorClass.zero())  # noqa: E731
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


def verify_all(max_n: int = 6) -> list[SuiteResult]:
    """Run seven oracle suites with bounds tied to max_n; from max_n = 2 on,
    each suite makes at least one check.

    The size caps the suites would meet are checked first, before any work:
    partitions of max_n + 4 and max_n! cosets.  The largest accepted bound
    is max_n = 9.
    """
    if not partitions._is_int(max_n) or max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {_brief(max_n)}")
    if max_n + 4 > partitions.MAX_PARTITION_N:
        # read first, so that a huge max_n builds nothing
        raise SizeLimitError(
            f"max_n = {_brief(max_n)} needs partitions of {_brief(max_n + 4)}, "
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
