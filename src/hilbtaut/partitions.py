"""Integer partitions, labeled compositions and Young-subgroup cosets.

The combinatorial layer everything else sits on: partitions of n in a fixed
deterministic order, Young diagrams with their hook-length dimension, and the
right cosets of a Young subgroup of the symmetric group, realised as labeled
set partitions of the positions 1..n.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from .errors import SizeLimitError

# Safety bounds, read at each check; there is no per-call override.
MAX_PARTITION_N = 14
MAX_COSETS = 10**6


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _all_of(values, check) -> bool:
    # a list or tuple (never a string) whose every entry passes check
    return isinstance(values, (list, tuple)) and all(check(v) for v in values)


class Partition(tuple):
    """A partition: non-increasing tuple of positive integers.

    The empty partition (of 0) is allowed; it shows up as the result of
    reducing small compositions.  A Partition passed in is returned as it
    is: it was validated when it was made.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if type(parts) is cls:
            return parts
        try:
            t = tuple(parts)
        except TypeError:
            raise ValueError(f"partition must be a sequence of integers, got {parts!r}") from None
        if not all(map(_is_int, t)):
            raise ValueError(f"partition parts must be integers, got {t!r}")
        if t and t[-1] < 1:
            raise ValueError(f"partition parts must be positive, got {t}")
        for a, b in zip(t, t[1:]):
            if a < b:
                raise ValueError(f"partition parts must be non-increasing, got {t}")
        return super().__new__(cls, t)

    @property
    def n(self) -> int:
        return sum(self)


class LabeledComposition(tuple):
    """Ordered block sizes (lambda_1, ..., lambda_k), every entry positive.

    Unlike a partition the order is significant: block j owns the positions
    I_j = [1 + sum(lambda_i, i < j), sum(lambda_i, i <= j)], in order.
    A LabeledComposition passed in is returned as it is.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]):
        if type(parts) is cls:
            return parts
        try:
            t = tuple(parts)
        except TypeError:
            raise ValueError(f"composition must be a sequence of integers, got {parts!r}") from None
        if not all(map(_is_int, t)):
            raise ValueError(f"composition parts must be integers, got {t!r}")
        if any(p < 1 for p in t):
            raise ValueError(f"composition parts must be positive, got {t}")
        return super().__new__(cls, t)

    @property
    def n(self) -> int:
        return sum(self)

    @property
    def k(self) -> int:
        return len(self)

    def identity_labels(self) -> tuple[int, ...]:
        return tuple(j + 1 for j, p in enumerate(self) for _ in range(p))


class LabeledSetPartition(tuple):
    """One block label (1-based) per position; entry p-1 labels position p.

    Represents a right coset of the Young subgroup for a composition lambda:
    the coset of g assigns position p the label of the block containing g(p).
    """

    __slots__ = ()

    def __new__(cls, labels: Iterable[int] = ()):
        if type(labels) is cls:
            return labels
        try:
            t = tuple.__new__(cls, labels)
        except TypeError:
            raise ValueError(f"labels must be a sequence of integers, got {labels!r}") from None
        if not all(_is_int(lab) and lab >= 1 for lab in t):
            raise ValueError(f"labels must be positive integers, got {t!r}")
        return t


# one key per (n, largest) the partition cap allows; the entries are
# Partitions, valid by construction, so they are built once and shared
@lru_cache(maxsize=(MAX_PARTITION_N + 1) ** 2)
def _partitions_desc(n: int, largest: int) -> tuple[Partition, ...]:
    if n == 0:
        return (Partition(),)
    new = tuple.__new__
    return tuple(
        new(Partition, (first, *rest))
        for first in range(min(n, largest), 0, -1)
        for rest in _partitions_desc(n - first, first)
    )


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in descending lexicographic order.

    The first entry is (n), the last is (1,)*n.  The order is the canonical
    enumeration order used throughout the package.
    """
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if n > MAX_PARTITION_N:
        raise SizeLimitError(f"n = {n} exceeds the partition bound {MAX_PARTITION_N}")
    return list(_partitions_desc(n, n))


def conjugate(d: Sequence[int]) -> Partition:
    """Transpose of a Young diagram."""
    d = Partition(d)
    if not d:
        return d
    return Partition(sum(1 for row in d if row > j) for j in range(d[0]))


def is_rectangular(d: Sequence[int]) -> bool:
    """True iff the diagram has at most one distinct part length."""
    return len(set(Partition(d))) <= 1


def standard_tensor_multiplicity(d: Sequence[int]) -> int:
    """Multiplicity of the irreducible d inside (permutation module) x d.

    The permutation module is induced from the trivial module of S_{m-1},
    so the product is Ind Res d, and by the branching rule its multiplicity
    of d is the number of removable corners of d: its distinct part count.
    Equals 1 exactly for rectangular diagrams and is >= 2 otherwise.
    """
    d = Partition(d)
    if not d:
        raise ValueError("degree must be >= 1")
    return len(set(d))


def dimension(d: Sequence[int]) -> int:
    """Number of standard tableaux of the shape, by the hook-length formula."""
    return _hook_dimension(Partition(d))


@lru_cache(maxsize=1024)
def _hook_dimension(d: Partition) -> int:
    # memoised: every BundleSpec of a sweep asks again for the few shapes
    # its blocks carry
    if d.n == 0:
        return 1
    conj = conjugate(d)
    hooks = prod(
        (row - j) + (conj[j] - i) - 1 for i, row in enumerate(d) for j in range(row)
    )
    q, rem = divmod(factorial(d.n), hooks)
    if rem:
        raise ArithmeticError(f"hook product {hooks} does not divide {d.n}!")
    return q


def content_sum(d: Sequence[int]) -> int:
    """Sum of the contents (column - row) over the cells of the diagram."""
    # row i (0-based) holds the contents -i, 1 - i, ..., d_i - 1 - i
    return sum(row * (row - 1) // 2 - i * row for i, row in enumerate(Partition(d)))


def multinomial_index(parts: Sequence[int]) -> int:
    """(sum parts)! / prod(parts!); the index of a Young subgroup."""
    if not _all_of(parts, lambda p: _is_int(p) and p >= 0):
        raise ValueError(f"parts must be a list or tuple of non-negative integers, got {parts!r}")
    return _multinomial(parts)


def _multinomial(parts: Sequence[int]) -> int:
    # multinomial_index on parts the caller has already checked
    return factorial(sum(parts)) // prod(factorial(p) for p in parts)


def index_p(lam: Sequence[int]) -> int:
    """Number of right cosets of the Young subgroup of a composition."""
    return _index(LabeledComposition(lam))


@lru_cache(maxsize=1024)
def _index(lam: LabeledComposition) -> int:
    # memoised: a sweep builds thousands of specs on a few compositions
    return _multinomial(lam)


def bounded_index_p(lam: Sequence[int]) -> int:
    """index_p(lam), refusing with SizeLimitError when it exceeds MAX_COSETS.

    The one coset cap: every enumeration or scan that is bounded by a coset
    count checks it here, before any work.
    """
    count = index_p(lam)
    if count > MAX_COSETS:
        raise SizeLimitError(f"{count} cosets exceed the bound {MAX_COSETS}")
    return count


def _check_block_index(i: int, k: int) -> None:
    if not _is_int(i):
        raise ValueError(f"block index must be an integer, got {i!r}")
    if not 1 <= i <= k:
        raise IndexError(f"block index {i} out of range 1..{k}")


def reduce_once(lam: Sequence[int], i: int) -> Partition:
    """Decrement block i (1-based), drop zero parts, re-sort canonically."""
    lam = LabeledComposition(lam)
    _check_block_index(i, lam.k)
    parts = list(lam)
    parts[i - 1] -= 1
    return Partition(sorted((p for p in parts if p), reverse=True))


def reduce_twice(lam: Sequence[int], i: int, j: int) -> Partition:
    """Decrement blocks i and j (i == j takes 2 from one block; needs size >= 2)."""
    lam = LabeledComposition(lam)
    _check_block_index(i, lam.k)
    _check_block_index(j, lam.k)
    parts = list(lam)
    if i == j:
        if parts[i - 1] < 2:
            raise ValueError(f"block {i} has size {parts[i - 1]} < 2")
        parts[i - 1] -= 2
    else:
        parts[i - 1] -= 1
        parts[j - 1] -= 1
    return Partition(sorted((p for p in parts if p), reverse=True))


def p_reduced(lam: Sequence[int]) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Index numbers of all single and double reductions of a composition.

    Returns (singles, pairs): singles[i] counts cosets whose position 1 carries
    label i; pairs[(i, j)] (i <= j, with (i, i) present only when block i has
    size >= 2) counts cosets with prescribed labels on positions 1 and 2.
    Both dicts are fresh, so callers may change them.
    """
    lam = LabeledComposition(lam)
    singles = {i: _multinomial(reduce_once(lam, i)) for i in range(1, lam.k + 1)}
    pairs = {
        (i, j): _multinomial(reduce_twice(lam, i, j))
        for i in range(1, lam.k + 1)
        for j in range(i, lam.k + 1)
        if i != j or lam[i - 1] >= 2
    }
    return singles, pairs


def _arrangements(parts: tuple[int, ...]) -> Iterator[LabeledSetPartition]:
    # All arrangements of the multiset {1^parts[0], 2^parts[1], ...} in
    # lexicographic order, by repeated next-permutation; the identity
    # labeling comes first.
    seq = [j + 1 for j, p in enumerate(parts) for _ in range(p)]
    n = len(seq)
    new = tuple.__new__  # the labels are valid by construction
    while True:
        yield new(LabeledSetPartition, seq)
        i = n - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = seq[:i:-1]


def iter_cosets(lam: Sequence[int]) -> Iterator[LabeledSetPartition]:
    """Lazily yield the cosets of the Young subgroup, as labeled set partitions.

    Deterministic lexicographic order on the label tuples; the identity coset
    comes first.  The bound is checked eagerly, at the call, so
    SizeLimitError is raised before anything is enumerated; the cosets are
    then produced one at a time and nothing is kept.
    """
    lam = LabeledComposition(lam)
    bounded_index_p(lam)
    return _arrangements(tuple(lam))
