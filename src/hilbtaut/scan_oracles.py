"""The coset-scan and grouping oracles, which only the tests run.

`coset_scan_suite` checks the double-coset vanishing scan, the closed-form
stability certificate, its witnesses and the Ext dimensions of `moduli`
against explicit coset enumeration (`vanishing_by_enumeration`,
`stability_by_enumeration`); `grouping_suite` checks the component
grouping of `check_conditions` against a backtracking search
(`grouping_by_search`).  Neither is one of the suites `verify_all` runs, so
they live apart from `verify`: a `verify` process neither compiles nor
loads this module, nor the `moduli` layer it imports.  The package root
does not register it; import it as `hilbtaut.scan_oracles`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, islice, product
from math import prod
from typing import NamedTuple, Sequence

from .chern import BundleSpec
from .moduli import (
    HomTable,
    VanishingReport,
    check_conditions,
    equivariant_end_dims,
    offdiagonal_ext1_vanishing,
    stability_certificate,
    stability_witnesses,
)
from .partitions import LabeledComposition, enumerate_partitions, iter_cosets
from .verify import _suite, _tensor_multiplicity_by_characters


def vanishing_by_enumeration(lam: Sequence[int], table: HomTable) -> VanishingReport:
    """Oracle for offdiagonal_ext1_vanishing: the degree-1 dimension of
    every nontrivial coset in coset order, stopping at the first nonzero."""
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
            return VanishingReport(False, labels, deg1)
    return VanishingReport(True, None, 0)


class EnumeratedStability(NamedTuple):
    """The verdict, every (coset, witness position) pair before the failing
    coset, and the failing coset, as stability_by_enumeration finds them."""

    ok: bool
    witnesses: tuple[tuple[tuple[int, ...], int], ...]
    failing_coset: tuple[int, ...] | None


def stability_by_enumeration(lam: Sequence[int], table: HomTable) -> EnumeratedStability:
    """Oracle for stability_certificate and stability_witnesses: a slope
    witness searched on every nontrivial coset in coset order, stopping at
    the first without one."""
    lam = LabeledComposition(lam)
    ident = lam.identity_labels()
    labels_of = table.iso_labels
    slopes = table.slopes
    witnesses: list[tuple[tuple[int, ...], int]] = []
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
            return EnumeratedStability(False, tuple(witnesses), labels)
        witnesses.append((labels, found))
    return EnumeratedStability(True, tuple(witnesses), None)


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
    """Double-coset vanishing, closed-form stability, its first witnesses
    and the Ext dimensions vs coset enumeration on every composition of
    n <= max_n, under seeded tables and block representations.

    The Ext dimensions are recomputed from the oracles: end1 weighs each
    self-extension count by the character inner product of its block's
    representation, the flag and the failing coset come from the coset
    enumeration, and the image dimension is the sum of the self-extension
    counts.
    """
    rng, rep_rng = random.Random(20261017), random.Random(20261019)
    for n in range(1, max_n + 1):
        for lam in _compositions(n):
            for kind, table in _coset_scan_tables(len(lam), rng):
                fast, slow = offdiagonal_ext1_vanishing(lam, table), vanishing_by_enumeration(lam, table)
                yield None if fast == slow else f"lam={lam} {kind}: vanishing {fast} vs {slow}"
                cert, oracle = stability_certificate(lam, table), stability_by_enumeration(lam, table)
                ok = cert == (oracle.ok, len(oracle.witnesses), oracle.failing_coset) and (
                    tuple(islice(stability_witnesses(lam, table), 11)) == oracle.witnesses[:11]
                )
                yield None if ok else f"lam={lam} {kind}: stability certificates differ"
                reps = [rep_rng.choice(enumerate_partitions(part)) for part in lam]
                spec = BundleSpec.build(lam, [(1, "", rep) for rep in reps])
                end1 = sum(
                    _tensor_multiplicity_by_characters(rep) * count
                    for rep, count in zip(reps, table.end1_self)
                )
                expected = (1, end1, slow.holds, slow.failing_coset, sum(table.end1_self))
                dims = equivariant_end_dims(spec, table)
                yield None if dims == expected else (
                    f"lam={lam} {kind} reps={reps}: end dims {dims} vs {expected}"
                )


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
            roll = rng.randrange(1000 * k)
            if roll < 1600:  # a must come first
                (hom if roll < 800 else ext1)[a][b] = 1
            elif roll < 2000:  # one group
                ext1[a][b] = ext1[b][a] = 1
            elif roll < 2020:  # no arrangement
                hom[a][b] = hom[b][a] = 1
        yield "random", table(hom, ext1)


@_suite("grouping components vs backtracking search")
def grouping_suite():
    """Strongly-connected-component grouping vs the backtracking search on
    structured and seeded random tables with k <= 7 blocks, fewer of them
    where the search costs more (1,083 tables in all)."""
    rng = random.Random(20261018)
    for k in range(8):
        count = min(200, 20 * 3 ** (7 - k)) if k else 0
        for kind, table in _grouping_tables(k, rng, count):
            fast, slow = check_conditions(table).grouping, grouping_by_search(table)
            yield None if fast == slow else (
                f"k={k} {kind} {table.hom} {table.ext1}: {fast} vs {slow}"
            )
