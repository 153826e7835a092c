"""Integer partitions, labeled compositions and Young-subgroup cosets.

The combinatorial layer everything else sits on: partitions of n in a fixed
deterministic order, Young diagrams with their dimension, and the
right cosets of a Young subgroup of the symmetric group, each a plain tuple
that gives every position 1..n the label of its block.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations, islice, repeat
from math import comb, factorial, prod
from operator import ge, gt, mul, neg, sub
from typing import Iterable, Iterator, Sequence

from .errors import IntegralityError, SizeLimitError, _brief

# Safety bounds, read at each check; there is no per-call override.
MAX_PARTITION_N = 14
MAX_COSETS = 10**6


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _all_ints(values) -> bool:
    # every entry passes _is_int, in two passes that stay in C: a 10**6-part
    # diagram is checked without a Python call per part
    return all(map(isinstance, values, repeat(int))) and bool not in map(type, values)


def _all_of(values, check) -> bool:
    # a list or tuple (never a string) whose every entry passes check
    return isinstance(values, (list, tuple)) and all(check(v) for v in values)


def _int_parts(parts, kind: str) -> tuple[int, ...]:
    # the entries of parts as a tuple of ints, never coerced
    try:
        if isinstance(parts, (str, Mapping)):
            # it would iterate as its characters or its keys
            raise TypeError
        t = tuple(parts)
    except TypeError:
        raise ValueError(f"{kind} must be a sequence of integers, got {_brief(parts)}") from None
    if not _all_ints(t):
        raise ValueError(f"{kind} parts must be integers, got {_brief(t)}")
    return t


class Partition(tuple):
    """A partition: non-increasing tuple of positive integers.

    The empty partition (of 0) is allowed; it ends the recursion that
    enumerates partitions.  A Partition passed in is returned as it is: it
    was validated when it was made.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if type(parts) is cls:
            return parts
        t = _int_parts(parts, "partition")
        if t and t[-1] < 1:
            raise ValueError(f"partition parts must be positive, got {_brief(t)}")
        if not all(map(ge, t, islice(t, 1, None))):
            raise ValueError(f"partition parts must be non-increasing, got {_brief(t)}")
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
        t = _int_parts(parts, "composition")
        if any(p < 1 for p in t):
            raise ValueError(f"composition parts must be positive, got {_brief(t)}")
        return super().__new__(cls, t)

    @property
    def n(self) -> int:
        return sum(self)

    @property
    def k(self) -> int:
        return len(self)

    def identity_labels(self) -> tuple[int, ...]:
        return tuple(j + 1 for j, p in enumerate(self) for _ in range(p))


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
        raise ValueError(f"n must be >= 1, got {_brief(n)}")
    if n > MAX_PARTITION_N:
        raise SizeLimitError(f"n = {_brief(n)} exceeds the partition bound {MAX_PARTITION_N}")
    return list(_partitions_desc(n, n))


def conjugate(d: Sequence[int]) -> Partition:
    """Transpose of a Young diagram."""
    d = Partition(d)
    # column j holds the rows longer than j: from the last row up, each run
    # of equal rows, found by bisection, adds the columns it has beyond the
    # rows below it, so the cost is in runs and columns, not cells
    cols: list[int] = []
    i = len(d)
    while i:
        cols += [i] * (d[i - 1] - len(cols))
        i = bisect_left(d, -d[i - 1], key=neg)
    return tuple.__new__(Partition, cols)


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
    return _dimension(Partition(d))


@lru_cache(maxsize=1024)
def _dimension(d: Partition) -> int:
    # memoised: every BundleSpec of a sweep asks again for the few shapes
    # its blocks carry.  In Frobenius coordinates, with r the side of the
    # Durfee square, a_i = d_i - i and b_i = d'_i - i for i = 1..r (d' the
    # conjugate), the hook-length formula reads
    #   n! prod_{i<j} (a_i - a_j)(b_i - b_j) / prod_i a_i! b_i! prod_{i,j} (a_i + b_j + 1),
    # and n! / prod_i a_i! b_i! = r! multinomial(a, b, r), as every cell
    # is in the first r rows or columns.  Past the multinomial it takes
    # about 2 r^2 factors, and r^2 <= n, r <= min(rows, columns): a row, a
    # column or a hook has r = 1.  Column i holds r cells of the square and
    # below_i cells under it, counted in the rows past the square, none
    # longer than r, so the conjugate of a long row is never built.
    r = sum(map(gt, d, range(d[0] if d else 0)))
    below = conjugate(tuple.__new__(Partition, d[r:])) + (0,) * r
    a = [part - i for i, part in enumerate(d[:r], start=1)]
    b = [r + part - i for i, part in enumerate(below[:r], start=1)]
    num = factorial(r) * _multinomial(a + b + [r])
    num *= prod(x - y for c in (a, b) for x, y in combinations(c, 2))
    q, rem = divmod(num, prod(x + y + 1 for x in a for y in b))
    if rem:
        raise IntegralityError(f"the hook-length formula leaves a remainder on {_brief(d)}")
    return q


def content_sum(d: Sequence[int]) -> int:
    """Sum of the contents (column - row) over the cells of the diagram."""
    # row i (0-based) holds the contents -i, 1 - i, ..., d_i - 1 - i, which
    # sum to d_i (d_i - 1 - 2i) / 2, an integer; the sum is one pass in C
    d = Partition(d)
    return sum(map(mul, d, map(sub, d, range(1, 2 * len(d), 2)))) // 2


def _multinomial(parts: Sequence[int]) -> int:
    # (sum parts)! / prod(parts!), on non-negative parts the caller checked,
    # as a running product of binomials, with no factorial of the sum
    total, count = 0, 1
    for p in parts:
        total += p
        count *= comb(total, p)
    return count


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
    lam = LabeledComposition(lam)
    cap = MAX_COSETS
    # the count is a running product of binomials C(total, p), each at
    # least 1; with j = min(p, total - p), C(total, p) >= (total / j)^j >= 2^j,
    # so a factor whose j reaches the cap's bit length already passes the
    # cap, and it is refused before a factor of the product is computed
    total = 0
    for p in lam:
        total += p
        j = min(p, total - p)
        if j >= cap.bit_length():
            raise SizeLimitError(f"at least 2^{j} cosets exceed the bound {cap}")
    count = _index(lam)
    if count > cap:
        raise SizeLimitError(f"{_brief(count)} cosets exceed the bound {cap}")
    return count


def _arrangements(parts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # All arrangements of the multiset {1^parts[0], 2^parts[1], ...} in
    # lexicographic order, by repeated next-permutation; the identity
    # labeling comes first.
    seq = [j + 1 for j, p in enumerate(parts) for _ in range(p)]
    n = len(seq)
    while True:
        yield tuple(seq)
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


def iter_cosets(lam: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Lazily yield the cosets of the Young subgroup, as label tuples.

    Entry p - 1 of a tuple is the 1-based label of position p: the coset of
    g gives position p the label of the block containing g(p).
    Deterministic lexicographic order on the label tuples; the identity coset
    comes first.  The bound is checked eagerly, at the call, so
    SizeLimitError is raised before anything is enumerated; the cosets are
    then produced one at a time and nothing is kept.
    """
    lam = LabeledComposition(lam)
    bounded_index_p(lam)
    return _arrangements(tuple(lam))
