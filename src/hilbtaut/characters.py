"""Exact character theory of symmetric groups.

Irreducible characters are computed by the Murnaghan-Nakayama rule on beta
numbers, in exact integers: each table from the cached tables of lower
degree, a single value by folding its cycles over the diagrams they leave.
Its oracle, a table built for small degrees from nothing but explicit
permutations and tabloid counts, lives in verify.py.  The value at a
transposition also has a closed form, Frobenius's content formula
dim * content_sum / C(m, 2), written out only where it is read: in the
Chern closed forms and in verify.py's restriction suite.  The tests check
it against these values.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from typing import Sequence

from .errors import ShapeMismatchError, SizeLimitError, _brief
from .partitions import (
    MAX_PARTITION_N,
    Partition,
    _all_ints,
    _all_of,
    _is_int,
    enumerate_partitions,
)

# A cycle type is a partition of m listing cycle lengths.
CycleType = Partition


def _check_degree(m: int) -> None:
    if m > MAX_PARTITION_N:
        raise SizeLimitError(f"degree {_brief(m)} exceeds the partition bound {MAX_PARTITION_N}")


def class_size(c: Sequence[int]) -> int:
    """Size of the conjugacy class with the given cycle type."""
    c = CycleType(c)
    _check_degree(c.n)
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
        raise ValueError(f"no transposition in degree {_brief(m)}")
    _check_degree(m)
    return CycleType((2,) + (1,) * (m - 2))


def _border_strips(parts: tuple[int, ...], length: int) -> list[tuple[int, Partition]]:
    # (sign, what is left) for each border strip of the given length, in
    # ascending order of the beta number it moves.  The first-column beta
    # numbers beta_i = parts[i] + r - 1 - i are read in place, descending:
    # the strip whose top row is i moves beta_i down by the length, to a
    # free value between beta_{j-1} and beta_j, and its sign is the parity
    # of the j - i - 1 numbers jumped over.  What is left keeps the rows
    # before i and from j on; rows i+1 .. j-1 move up a row with one cell
    # fewer, row j - 1 gets moved - (r - j) cells, and rows emptied at the
    # bottom are dropped.  Each leftover is a Partition by construction.
    r = len(parts)
    beta = [p + r - 1 - i for i, p in enumerate(parts)]
    new = tuple.__new__
    strips = []
    for i in range(r - 1, -1, -1):
        moved = beta[i] - length
        if moved < 0:
            continue
        j = i + 1
        while j < r and beta[j] > moved:
            j += 1
        if j < r and beta[j] == moved:
            continue
        rest = [*parts[:i], *[p - 1 for p in parts[i + 1 : j]], moved + j - r, *parts[j:]]
        while rest and not rest[-1]:
            rest.pop()
        strips.append((-1 if (j - i - 1) % 2 else 1, new(Partition, rest)))
    return strips


def character(d: Sequence[int], c: Sequence[int]) -> int:
    """Irreducible character of the diagram d at the cycle type c."""
    d = Partition(d)
    c = CycleType(c)
    if d.n != c.n:
        raise ShapeMismatchError(f"diagram of {_brief(d.n)} evaluated at a type of {_brief(c.n)}")
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

    Rows are Young diagrams and columns cycle types: both are the partitions
    of the degree in descending lexicographic order, held once as
    `partitions`.  Class sizes and values are exact integers.
    """

    def __init__(self, degree: int, class_sizes, values):
        def is_sequence(x) -> bool:
            return isinstance(x, (list, tuple))

        # enumerate_partitions checks the degree
        self.degree, self.partitions = degree, tuple(enumerate_partitions(degree))
        if not (is_sequence(class_sizes) and _all_of(values, is_sequence)):
            raise ValueError(
                "a character table needs lists or tuples of class sizes and value rows"
            )
        self.class_sizes = tuple(class_sizes)
        self.values = tuple(tuple(row) for row in values)
        width = len(self.partitions)
        if len(self.values) != width:
            raise ShapeMismatchError(f"{len(self.values)} value rows for {width} diagrams")
        if len(self.class_sizes) != width or not _all_ints(self.class_sizes):
            raise ShapeMismatchError(
                f"the table needs one integer class size for each of {width} cycle types"
            )
        for d, row in zip(self.partitions, self.values):
            if len(row) != width or not _all_ints(row):
                raise ShapeMismatchError(
                    f"the row of {_brief(d)} needs one integer for each of {width} cycle types"
                )
        self._index = {p: i for i, p in enumerate(self.partitions)}

    def row(self, d: Sequence[int]) -> tuple[int, ...]:
        d = Partition(d)
        if d not in self._index:
            raise ShapeMismatchError(
                f"diagram {_brief(d)} is not in the table of degree {self.degree}"
            )
        return self.values[self._index[d]]


def character_table(m: int) -> CharacterTable:
    """Character table of degree m, kept for each degree the partition cap allows.

    Built from the cached tables of lower degree by the Murnaghan-Nakayama
    rule: removing the longest cycle l of a type c leaves c[1:], a type of
    m - l, so chi_d(c) is the signed sum of chi_mu(c[1:]) over the border
    strips of length l of d, each leaving a diagram mu of m - l.
    """
    # checked before the cache, which would hash the argument first
    if not _is_int(m):
        raise ValueError(f"degree must be an integer, got {_brief(m)}")
    return _character_table(m)


@lru_cache(maxsize=MAX_PARTITION_N)
def _character_table(m: int) -> CharacterTable:
    partitions = enumerate_partitions(m)
    lower = {length: _character_table(m - length) for length in range(1, m)}
    values = []
    for d in partitions:
        strips = {length: _border_strips(d, length) for length in range(1, m + 1)}
        row = []
        for c in partitions:
            if c[0] == m:
                # the empty partition is left, whose only value is 1
                row.append(sum(sign for sign, _ in strips[m]))
                continue
            table = lower[c[0]]
            col = table._index[c[1:]]
            row.append(sum(sign * table.values[table._index[mu]][col] for sign, mu in strips[c[0]]))
        values.append(row)
    return CharacterTable(m, [size for _, size in conjugacy_classes(m)], values)
