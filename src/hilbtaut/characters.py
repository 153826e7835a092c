"""Exact character theory of symmetric groups.

Irreducible characters are computed by the Murnaghan-Nakayama rule on beta
numbers (memoised, exact integers).  Its oracle, a table built for small
degrees from nothing but explicit permutations and tabloid counts, lives in
verify.py.  The value at a transposition comes from Frobenius's content
formula instead, for blocks of any size; the Chern closed forms read the
content sum it is built on.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod
from typing import NamedTuple, Sequence

from .errors import ShapeMismatchError
from .partitions import (
    MAX_PARTITION_N,
    Partition,
    YoungDiagram,
    _all_of,
    _is_int,
    content_sum,
    dimension,
    enumerate_partitions,
)

# A cycle type is a partition of m listing cycle lengths.
CycleType = Partition


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
    if not _is_int(m) or m < 0:
        raise ValueError(f"degree must be a non-negative integer, got {m!r}")
    return CycleType((1,) * m)


def transposition_type(m: int) -> CycleType:
    if not _is_int(m) or m < 2:
        raise ValueError(f"no transposition in degree {m!r}")
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
        def is_sequence(x) -> bool:
            return isinstance(x, (list, tuple))

        if not _is_int(degree) or not (
            _all_of((diagrams, cycle_types, class_sizes), is_sequence) and _all_of(values, is_sequence)
        ):
            raise ValueError(
                "a character table needs an integer degree and lists or tuples of "
                "diagrams, cycle types, class sizes and value rows"
            )
        self.degree = degree
        self.diagrams = tuple(diagrams)
        self.cycle_types = tuple(cycle_types)
        self.class_sizes = tuple(class_sizes)
        self.values = tuple(tuple(row) for row in values)
        self._row_index = {d: i for i, d in enumerate(self.diagrams)}
        self._col_index = {c: i for i, c in enumerate(self.cycle_types)}

    def value(self, d: Sequence[int], c: Sequence[int]) -> int:
        return self.row(d)[self._lookup(self._col_index, c, "cycle type")]

    def row(self, d: Sequence[int]) -> tuple[int, ...]:
        return self.values[self._lookup(self._row_index, d, "diagram")]

    def _lookup(self, index: dict, p: Sequence[int], kind: str) -> int:
        p = Partition(p)
        if p not in index:
            raise ShapeMismatchError(
                f"{kind} {tuple(p)} of {p.n} is not in the table of degree {self.degree}"
            )
        return index[p]


@lru_cache(maxsize=MAX_PARTITION_N)
def character_table(m: int) -> CharacterTable:
    """Character table of degree m, kept for each degree the partition cap allows."""
    classes = conjugacy_classes(m)
    diagrams = enumerate_partitions(m)
    values = [[character(d, c) for c, _ in classes] for d in diagrams]
    return CharacterTable(
        m, diagrams, [c for c, _ in classes], [s for _, s in classes], values
    )


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
