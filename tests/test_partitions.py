"""Partition, composition and coset layer.

Expected values are frozen from independent oracles: a partition-count
recurrence, brute-force standard-tableau counting, and direct censuses of
the enumerated cosets.
"""

from __future__ import annotations

import itertools

import pytest

from hilbtaut import partitions, verify
from hilbtaut.errors import SizeLimitError
from hilbtaut.partitions import (
    LabeledComposition,
    LabeledSetPartition,
    Partition,
    bounded_index_p,
    conjugate,
    dimension,
    enumerate_partitions,
    index_p,
    is_rectangular,
    iter_cosets,
    multinomial_index,
    p_reduced,
    reduce_once,
    reduce_twice,
)
from hilbtaut.verify import count_standard_tableaux


def _partition_count(n: int) -> int:
    # independent oracle: the bounded-largest-part recurrence
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for largest in range(n + 1):
        table[0][largest] = 1
    for m in range(1, n + 1):
        for largest in range(1, n + 1):
            table[m][largest] = table[m][largest - 1]
            if m >= largest:
                table[m][largest] += table[m - largest][largest]
    return table[n][n]


def test_partition_validation():
    assert Partition((3, 1, 1)) == (3, 1, 1)
    assert Partition(()).n == 0
    assert Partition((4,)).n == 4
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_typed_arguments_are_reused_not_revalidated():
    p = Partition((2, 1))
    assert Partition(p) is p
    lam = LabeledComposition((1, 2))
    assert LabeledComposition(lam) is lam
    # another type is validated as before, even a tuple subclass
    with pytest.raises(ValueError):
        Partition(lam)
    as_composition = LabeledComposition(p)
    assert type(as_composition) is LabeledComposition
    assert as_composition == (2, 1)


def test_enumerate_partitions_order():
    assert enumerate_partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert enumerate_partitions(1) == [(1,)]
    sixes = enumerate_partitions(6)
    assert sixes[0] == (6,)
    assert sixes[-1] == (1,) * 6
    # descending lexicographic order
    assert sixes == sorted(sixes, reverse=True)


@pytest.mark.parametrize("n", range(1, 13))
def test_enumerate_partitions_count(n):
    assert len(enumerate_partitions(n)) == _partition_count(n)


def test_partition_count_frozen():
    assert len(enumerate_partitions(10)) == 42


def test_enumerate_partitions_bounds(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(SizeLimitError):
        enumerate_partitions(15)
    monkeypatch.setattr(partitions, "MAX_PARTITION_N", 20)
    assert len(enumerate_partitions(15)) == 176


@pytest.mark.parametrize("kind", [Partition, LabeledComposition])
@pytest.mark.parametrize("parts", ["21", (2.7, 1), (2.5, 1), (2.0, 1), (True,), (2, False)])
def test_parts_are_never_coerced(kind, parts):
    with pytest.raises(ValueError, match="parts must be integers"):
        kind(parts)


def test_composition_basics():
    lam = LabeledComposition((1, 2))
    assert lam.n == 3 and lam.k == 2
    assert lam.identity_labels() == (1, 2, 2)
    with pytest.raises(ValueError):
        LabeledComposition((2, 0))


def test_conjugate_and_rectangular():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)
    assert is_rectangular((3, 3))
    assert is_rectangular((5,))
    assert is_rectangular((1, 1, 1))
    assert not is_rectangular((2, 1))
    assert not is_rectangular((3, 3, 1))


def test_dimension_frozen():
    assert dimension((2, 2)) == 2
    assert dimension((2, 1)) == 2
    for m in range(2, 8):
        assert dimension((m - 1, 1)) == m - 1
        assert dimension((m,)) == 1
        assert dimension((1,) * m) == 1


def test_dimension_vs_backtracking_oracle():
    for m in range(1, 8):
        for d in enumerate_partitions(m):
            assert dimension(d) == count_standard_tableaux(d), d


def test_hook_product_remainder_raises_without_assert(monkeypatch):
    # a hook product that does not divide n! raises ArithmeticError, which
    # `python -O` keeps; 3! + 1 is not a multiple of the hook product 3
    real = partitions.factorial
    monkeypatch.setattr(partitions, "factorial", lambda m: real(m) + (m == 3))
    partitions._hook_dimension.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="^hook product 3 does not divide 3!$"):
            dimension((2, 1))
    finally:
        partitions._hook_dimension.cache_clear()


def test_multinomial_index():
    assert multinomial_index(()) == 1
    assert multinomial_index((3,)) == 1
    assert index_p((1, 1)) == 2
    assert index_p((2, 1)) == 3
    assert index_p((1,) * 5) == 120


def test_reduce_once():
    assert reduce_once((2, 1), 1) == (1, 1)
    assert reduce_once((2, 1), 2) == (2,)
    assert reduce_once((1, 3), 1) == (3,)
    with pytest.raises(IndexError):
        reduce_once((2, 1), 3)
    with pytest.raises(IndexError):
        reduce_once((2, 1), 0)


def test_reduce_twice():
    assert reduce_twice((2, 1), 1, 1) == (1,)
    assert reduce_twice((2, 1), 1, 2) == (1,)
    assert reduce_twice((2, 2), 1, 2) == (1, 1)
    assert reduce_twice((2,), 1, 1) == ()
    with pytest.raises(ValueError):
        reduce_twice((2, 1), 2, 2)
    with pytest.raises(IndexError):
        reduce_twice((2, 1), 1, 3)


def test_p_reduced_examples():
    singles, pairs = p_reduced((2, 1))
    assert singles == {1: 2, 2: 1}
    assert pairs == {(1, 2): 1, (1, 1): 1}
    singles, pairs = p_reduced((1, 1, 1))
    assert singles == {1: 2, 2: 2, 3: 2}
    assert pairs == {(1, 2): 1, (1, 3): 1, (2, 3): 1}


@pytest.mark.parametrize("n", range(1, 10))
def test_single_reduction_sum(n):
    for lam in enumerate_partitions(n):
        singles, _ = p_reduced(tuple(lam))
        assert sum(singles.values()) == index_p(tuple(lam))


@pytest.mark.parametrize("n", range(2, 10))
def test_pair_reduction_sum(n):
    # ordered double reductions partition the cosets
    for lam in enumerate_partitions(n):
        _, pairs = p_reduced(tuple(lam))
        total = sum(p if i == j else 2 * p for (i, j), p in pairs.items())
        assert total == index_p(tuple(lam))


def test_enumerate_cosets_examples():
    assert list(iter_cosets((1, 1))) == [(1, 2), (2, 1)]
    assert list(iter_cosets((2, 1))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    ident = LabeledComposition((1, 2)).identity_labels()
    assert list(iter_cosets((1, 2)))[0] == ident == (1, 2, 2)


def test_enumerate_cosets_sorted_and_counted():
    for lam in [(3,), (2, 2), (1, 1, 2), (2, 1, 1), (1, 1, 1, 1)]:
        cosets = list(iter_cosets(lam))
        assert len(cosets) == index_p(lam)
        assert cosets == sorted(cosets)
        assert len(set(cosets)) == len(cosets)


def test_coset_position_label_census():
    # counting cosets by the labels of positions 1 and 2 reproduces the
    # single and double reduction index numbers
    shapes = []
    for n in range(2, 7):
        for part in enumerate_partitions(n):
            shapes.append(tuple(part))
            if tuple(reversed(part)) != tuple(part):
                shapes.append(tuple(reversed(part)))
    for lam in shapes:
        cosets = list(iter_cosets(lam))
        singles, pairs = p_reduced(lam)
        for i in singles:
            assert sum(1 for c in cosets if c[0] == i) == singles[i], (lam, i)
        for (i, j), expected in pairs.items():
            assert sum(1 for c in cosets if (c[0], c[1]) == (i, j)) == expected
            assert sum(1 for c in cosets if (c[0], c[1]) == (j, i)) == expected


def test_enumerate_cosets_bound(monkeypatch):
    with pytest.raises(SizeLimitError):
        list(iter_cosets((1,) * 13))  # 13! cosets, checked before enumerating
    monkeypatch.setattr(partitions, "MAX_COSETS", 5)
    with pytest.raises(SizeLimitError):
        list(iter_cosets((1, 1, 1, 1)))
    monkeypatch.setattr(partitions, "MAX_COSETS", 3)
    assert len(list(iter_cosets((2, 1)))) == 3


def test_bounded_index_p(monkeypatch):
    assert bounded_index_p((2, 1, 1)) == index_p((2, 1, 1)) == 12
    monkeypatch.setattr(partitions, "MAX_COSETS", 6)
    assert bounded_index_p((2, 2)) == 6
    monkeypatch.setattr(partitions, "MAX_COSETS", 5)
    with pytest.raises(SizeLimitError, match="^6 cosets exceed the bound 5$"):
        bounded_index_p((2, 2))


def test_iter_cosets_lazy_and_capped(monkeypatch):
    cosets = iter_cosets((2, 1, 1))
    assert next(cosets) == LabeledComposition((2, 1, 1)).identity_labels()
    assert isinstance(next(cosets), LabeledSetPartition)
    # the distinct arrangements of the label multiset, in lexicographic order
    assert list(iter_cosets((2, 1, 1))) == sorted(set(itertools.permutations((1, 1, 2, 3))))
    # the bound is checked at the call, before the first coset is asked for
    with pytest.raises(SizeLimitError):
        iter_cosets((1,) * 13)
    monkeypatch.setattr(partitions, "MAX_COSETS", 5)
    with pytest.raises(SizeLimitError):
        iter_cosets((2, 2))
    monkeypatch.setattr(partitions, "MAX_COSETS", 10**10)
    assert next(iter_cosets((1,) * 13)) == tuple(range(1, 14))


def test_labeled_set_partition_api():
    coset = LabeledSetPartition((2, 1, 1))
    with pytest.raises(ValueError, match="^labels must be positive integers"):
        LabeledSetPartition((1, 0))
    assert LabeledSetPartition(coset) is coset


def test_coset_count_suite_reports_a_misplaced_identity(monkeypatch):
    # a non-identity coset first: the suite sees the identity out of place
    real = verify.iter_cosets

    def identity_last(lam):
        cosets = list(real(lam))
        return iter(cosets[1:] + cosets[:1])

    monkeypatch.setattr(verify, "iter_cosets", identity_last)
    result = verify.coset_count_suite(3)
    assert result.failures
    assert all(f.endswith("identity coset not unique or not first") for f in result.failures)
    assert len(result.failures) == sum(1 for lam in verify._sweep_compositions(3) if len(lam) > 1)


def test_coset_count_suite_reports_single_reductions_off_the_index(monkeypatch):
    # one single reduction raised by one: the total belongs to each
    # composition's first check, which reports it, and no check is added
    clean = verify.coset_count_suite(4)
    real = verify.p_reduced

    def raised(lam):
        singles, pairs = real(lam)
        singles[1] += 1
        return singles, pairs

    monkeypatch.setattr(verify, "p_reduced", raised)
    result = verify.coset_count_suite(4)
    totals = [f for f in result.failures if f.endswith("do not sum to the index")]
    assert totals == [
        f"lam={lam}: single reductions do not sum to the index"
        for lam in verify._sweep_compositions(4)
    ]
    assert (clean.failures, result.checks) == ([], clean.checks)
