"""Exact character theory of symmetric groups.

Irreducible characters are computed by the Murnaghan-Nakayama rule on beta
numbers (memoised, exact integers).  A brute-force oracle builds the same
table for small degrees from nothing but explicit permutations and tabloid
counts, so the two routes can be checked against each other.  The value at
a transposition comes from Frobenius's content formula instead, for blocks
of any size; the Chern closed forms read the content sum it is built on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, prod
from typing import Callable, NamedTuple, Sequence

from .errors import ShapeMismatchError, SizeLimitError
from .partitions import (
    MAX_PARTITION_N,
    Partition,
    YoungDiagram,
    content_sum,
    dimension,
    enumerate_partitions,
    iter_cosets,
)

# A cycle type is a partition of m listing cycle lengths.
CycleType = Partition

_BRUTE_FORCE_MAX = 7


def class_size(c: Sequence[int]) -> int:
    """Size of the conjugacy class with the given cycle type."""
    c = CycleType(c)
    mult: dict[int, int] = {}
    for length in c:
        mult[length] = mult.get(length, 0) + 1
    centraliser = prod(length**m * factorial(m) for length, m in mult.items())
    return factorial(c.n) // centraliser


def conjugacy_classes(m: int) -> list[tuple[CycleType, int]]:
    """(cycle type, class size) pairs in descending lexicographic order."""
    return [(c, class_size(c)) for c in enumerate_partitions(m)]


def identity_type(m: int) -> CycleType:
    return CycleType((1,) * m)


def transposition_type(m: int) -> CycleType:
    if m < 2:
        raise ValueError(f"no transposition in degree {m}")
    return CycleType((2,) + (1,) * (m - 2))


def _beta_to_parts(beta: list[int]) -> tuple[int, ...]:
    # beta ascending and distinct; recover the partition and strip zero parts.
    r = len(beta)
    parts = tuple(beta[r - 1 - i] - (r - 1 - i) for i in range(r))
    return tuple(p for p in parts if p)


# bounded; a cold degree-14 table needs about 22,300 entries
@lru_cache(maxsize=32768)
def _mn(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    # Murnaghan-Nakayama on first-column beta numbers: removing a border
    # strip of length l moves one beta number down by l, with sign given by
    # the number of beta numbers jumped over.
    if not cycles:
        return 1
    length, rest = cycles[0], cycles[1:]
    r = len(parts)
    beta = sorted(parts[i] + r - 1 - i for i in range(r))
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - length
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        sub = sorted(bset - {b} | {nb})
        term = _mn(_beta_to_parts(sub), rest)
        total += -term if height % 2 else term
    return total


def character(d: Sequence[int], c: Sequence[int]) -> int:
    """Irreducible character of the diagram d at the cycle type c."""
    d = YoungDiagram(d)
    c = CycleType(c)
    if d.n != c.n:
        raise ShapeMismatchError(f"diagram of {d.n} evaluated at a type of {c.n}")
    return _mn(tuple(d), tuple(sorted(c, reverse=True)))


class CharacterTable:
    """Full character table of a symmetric group.

    Rows are Young diagrams, columns cycle types, both in descending
    lexicographic order; values are exact integers.
    """

    def __init__(self, degree: int, diagrams, cycle_types, class_sizes, values):
        self.degree = degree
        self.diagrams = tuple(diagrams)
        self.cycle_types = tuple(cycle_types)
        self.class_sizes = tuple(class_sizes)
        self.values = tuple(tuple(row) for row in values)
        self._row_index = {d: i for i, d in enumerate(self.diagrams)}
        self._col_index = {c: i for i, c in enumerate(self.cycle_types)}

    def value(self, d: Sequence[int], c: Sequence[int]) -> int:
        return self.values[self._row_index[Partition(d)]][self._col_index[Partition(c)]]

    def row(self, d: Sequence[int]) -> tuple[int, ...]:
        return self.values[self._row_index[Partition(d)]]


@lru_cache(maxsize=MAX_PARTITION_N)
def character_table(m: int) -> CharacterTable:
    """Character table of degree m, kept for each degree the partition cap allows."""
    classes = conjugacy_classes(m)
    diagrams = enumerate_partitions(m)
    values = [[character(d, c) for c, _ in classes] for d in diagrams]
    return CharacterTable(
        m, diagrams, [c for c, _ in classes], [s for _, s in classes], values
    )


def inner_product(
    f: Callable[[CycleType], int | Fraction],
    g: Callable[[CycleType], int | Fraction],
    m: int,
) -> Fraction:
    """Class-function inner product (1/m!) sum over classes of size*f*g."""
    total = sum(
        Fraction(size) * f(c) * g(c) for c, size in conjugacy_classes(m)
    )
    return Fraction(total, factorial(m))


def permutation_character(c: Sequence[int]) -> int:
    """Character of the natural permutation module: fixed points."""
    return sum(1 for length in CycleType(c) if length == 1)


def sign_character(c: Sequence[int]) -> int:
    c = CycleType(c)
    return -1 if (c.n - len(c)) % 2 else 1


def regular_character_value(m: int, c: Sequence[int]) -> int:
    """Character of the regular representation: m! at the identity, else 0."""
    return factorial(m) if CycleType(c) == identity_type(m) else 0


class RestrictionPair(NamedTuple):
    """Multiplicities (trivial, sign) of a restriction to a 2-cycle subgroup."""

    alpha: int
    beta: int


def restrict_to_transposition(d: Sequence[int]) -> RestrictionPair:
    """Decompose the restriction of an irreducible to the subgroup generated
    by a single transposition into trivial and sign isotypic multiplicities.

    The character value at the transposition is Frobenius's content formula,
    chi(tau) = dim * sum_i [C(d_i, 2) - C(d'_i, 2)] / C(n, 2) (Macdonald,
    Symmetric Functions and Hall Polynomials, I.7 Ex. 7), which takes O(n)
    steps for any size; character() stays its oracle.
    """
    d = YoungDiagram(d)
    if d.n < 2:
        raise ValueError(f"restriction needs degree >= 2, got {d.n}")
    dim = dimension(d)
    # sum_i [C(d_i, 2) - C(d'_i, 2)] is the content sum of the cells
    chi, rem = divmod(dim * content_sum(d), comb(d.n, 2))
    if rem:
        raise ArithmeticError(f"content formula not integral for {d}")
    if (dim + chi) % 2:
        raise ArithmeticError(f"parity failure for {d}: dim {dim}, trace {chi}")
    return RestrictionPair((dim + chi) // 2, (dim - chi) // 2)


def cycle_type_of(perm: Sequence[int]) -> CycleType:
    """Cycle type of a permutation given as a 0-based image tuple."""
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
    return CycleType(sorted(lengths, reverse=True))


def canonical_permutation(c: Sequence[int]) -> tuple[int, ...]:
    """A 0-based permutation with the given cycle type (consecutive cycles)."""
    image = []
    start = 0
    for length in CycleType(c):
        image.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return tuple(image)


@lru_cache(maxsize=None)
def brute_force_character_table(m: int) -> CharacterTable:
    """Character table built without the Murnaghan-Nakayama rule.

    Class sizes come from enumerating all m! permutations, permutation-module
    characters from counting tabloids fixed by an explicit permutation, and
    irreducible characters from Gram-Schmidt in descending lexicographic
    order (which refines dominance, so each step strips off exactly the
    previously extracted constituents), with inner products weighted by
    those counted class sizes.  Exact and slow; degree <= 7.
    """
    if m > _BRUTE_FORCE_MAX:
        raise SizeLimitError(f"brute-force table capped at degree {_BRUTE_FORCE_MAX}")
    diagrams = enumerate_partitions(m)
    sizes: dict[CycleType, int] = {}
    for g in permutations(range(m)):
        t = cycle_type_of(g)
        sizes[t] = sizes.get(t, 0) + 1
    cycle_types = diagrams  # same enumeration order
    reps = {c: canonical_permutation(c) for c in cycle_types}

    def fixed_tabloids(tabloids: tuple, g: tuple[int, ...]) -> int:
        total = 0
        for labels in tabloids:
            if all(labels[g[p]] == labels[p] for p in range(m)):
                total += 1
        return total

    def dot(f_vals: dict, g_vals: dict) -> Fraction:
        # the sum over all m! permutations, grouped by cycle type
        total = sum(sizes[t] * f_vals[t] * g_vals[t] for t in cycle_types)
        return Fraction(total, factorial(m))

    irreducibles: list[dict[CycleType, Fraction]] = []
    for mu in diagrams:
        tabloids = tuple(iter_cosets(mu))
        vals: dict[CycleType, Fraction] = {
            c: Fraction(fixed_tabloids(tabloids, reps[c])) for c in cycle_types
        }
        for prev in irreducibles:
            mult = dot(vals, prev)
            if mult:
                vals = {c: vals[c] - mult * prev[c] for c in cycle_types}
        irreducibles.append(vals)

    values = []
    for vals in irreducibles:
        row = []
        for c in cycle_types:
            v = vals[c]
            if v.denominator != 1:
                raise ArithmeticError(f"non-integral character value {v}")
            row.append(int(v))
        values.append(row)
    return CharacterTable(
        m, diagrams, cycle_types, [sizes[c] for c in cycle_types], values
    )
