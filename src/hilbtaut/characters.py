"""Exact character theory of symmetric groups.

Irreducible characters are computed by the Murnaghan-Nakayama rule on beta
numbers, in exact integers: each table from the cached tables of lower
degree, a single value by folding its cycles over the diagrams they leave.
Its oracle, a table built for small degrees from nothing but explicit
permutations and tabloid counts, lives in verify.py.  The value at a
transposition comes from Frobenius's content formula instead, for blocks of
any size; the Chern closed forms read the content sum it is built on.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod
from typing import NamedTuple, Sequence

from .errors import ShapeMismatchError
from .partitions import (
    MAX_PARTITION_N,
    Partition,
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


def transposition_type(m: int) -> CycleType:
    if not _is_int(m) or m < 2:
        raise ValueError(f"no transposition in degree {m!r}")
    return CycleType((2,) + (1,) * (m - 2))


def _beta_to_parts(beta: list[int]) -> tuple[int, ...]:
    # beta ascending and distinct; recover the partition and strip zero parts.
    r = len(beta)
    parts = tuple(beta[r - 1 - i] - (r - 1 - i) for i in range(r))
    return tuple(p for p in parts if p)


def _border_strips(parts: tuple[int, ...], length: int) -> list[tuple[int, tuple[int, ...]]]:
    # (sign, what is left) for each border strip of the given length, on
    # first-column beta numbers: removing a strip of length l moves one beta
    # number down by l, with sign given by the number of beta numbers jumped
    # over.
    r = len(parts)
    beta = sorted(parts[i] + r - 1 - i for i in range(r))
    bset = set(beta)
    strips = []
    for b in beta:
        nb = b - length
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        strips.append((-1 if height % 2 else 1, _beta_to_parts(sorted(bset - {b} | {nb}))))
    return strips


def character(d: Sequence[int], c: Sequence[int]) -> int:
    """Irreducible character of the diagram d at the cycle type c."""
    d = Partition(d)
    c = CycleType(c)
    if d.n != c.n:
        raise ShapeMismatchError(f"diagram of {d.n} evaluated at a type of {c.n}")
    # Murnaghan-Nakayama, one cycle at a time, longest first: each diagram
    # left after the cycles so far maps to its signed coefficient, so the
    # work follows the number of diagrams reached, never a recursion depth
    layer = {tuple(d): 1}
    for length in c:
        nxt: dict[tuple[int, ...], int] = {}
        for parts, coeff in layer.items():
            for sign, rest in _border_strips(parts, length):
                nxt[rest] = nxt.get(rest, 0) + sign * coeff
        layer = {parts: coeff for parts, coeff in nxt.items() if coeff}
    return layer.get((), 0)


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
        self.diagrams = tuple(self._of_degree(d, "diagram") for d in diagrams)
        self.cycle_types = tuple(self._of_degree(c, "cycle type") for c in cycle_types)
        self.class_sizes = tuple(class_sizes)
        self.values = tuple(tuple(row) for row in values)
        width = len(self.cycle_types)
        if len(self.values) != len(self.diagrams):
            raise ShapeMismatchError(
                f"{len(self.values)} value rows for {len(self.diagrams)} diagrams"
            )
        if len(self.class_sizes) != width or not all(map(_is_int, self.class_sizes)):
            raise ShapeMismatchError(
                f"the table needs one integer class size for each of {width} cycle types"
            )
        for d, row in zip(self.diagrams, self.values):
            if len(row) != width or not all(map(_is_int, row)):
                raise ShapeMismatchError(
                    f"the row of {tuple(d)} needs one integer for each of {width} cycle types"
                )
        self._row_index = {d: i for i, d in enumerate(self.diagrams)}
        self._col_index = {c: i for i, c in enumerate(self.cycle_types)}

    def _of_degree(self, p: Sequence[int], kind: str) -> Partition:
        p = Partition(p)
        if p.n != self.degree:
            raise ShapeMismatchError(f"{kind} {tuple(p)} is not a partition of {self.degree}")
        return p

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


def character_table(m: int) -> CharacterTable:
    """Character table of degree m, kept for each degree the partition cap allows.

    Built from the cached tables of lower degree by the Murnaghan-Nakayama
    rule: removing the longest cycle l of a type c leaves c[1:], a type of
    m - l, so chi_d(c) is the signed sum of chi_mu(c[1:]) over the border
    strips of length l of d, each leaving a diagram mu of m - l.
    """
    # checked before the cache, which would hash the argument first
    if not _is_int(m):
        raise ValueError(f"degree must be an integer, got {m!r}")
    return _character_table(m)


@lru_cache(maxsize=MAX_PARTITION_N)
def _character_table(m: int) -> CharacterTable:
    classes = conjugacy_classes(m)
    diagrams = enumerate_partitions(m)
    lengths = sorted({c[0] for c, _ in classes})
    lower = {length: _character_table(m - length) for length in lengths if length < m}
    values = []
    for d in diagrams:
        strips = {length: _border_strips(d, length) for length in lengths}
        row = []
        for c, _ in classes:
            if c[0] == m:
                # the empty partition is left, whose only value is 1
                row.append(sum(sign for sign, _ in strips[m]))
                continue
            table = lower[c[0]]
            col = table._col_index[c[1:]]
            row.append(
                sum(sign * table.values[table._row_index[mu]][col] for sign, mu in strips[c[0]])
            )
        values.append(row)
    return CharacterTable(
        m, diagrams, [c for c, _ in classes], [s for _, s in classes], values
    )


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
    d = Partition(d)
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
