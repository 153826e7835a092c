"""Partition, composition and coset layer.

Expected values are frozen from independent oracles: a partition-count
recurrence, Frobenius's determinant formula, and direct censuses of the
enumerated cosets.
"""

from __future__ import annotations

import itertools
import math

import pytest

from hilbtaut import partitions, verify
from hilbtaut.errors import IntegralityError, SizeLimitError
from hilbtaut.partitions import (
    LabeledComposition,
    Partition,
    bounded_index_p,
    conjugate,
    content_sum,
    dimension,
    enumerate_partitions,
    index_p,
    is_rectangular,
    iter_cosets,
)
from hilbtaut.verify import _reduction_counts


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
    # a string is refused whole, any other value part by part
    message = "must be a sequence of integers" if isinstance(parts, str) else "parts must be integers"
    with pytest.raises(ValueError, match=message):
        kind(parts)


@pytest.mark.parametrize("kind", [Partition, LabeledComposition])
@pytest.mark.parametrize("parts", ["", "2", {}, {3: 1}, {"3": 1}], ids=repr)
def test_strings_and_mappings_are_not_sequences_of_parts(kind, parts):
    # either would iterate as its characters or its keys
    with pytest.raises(ValueError, match="must be a sequence of integers, got "):
        kind(parts)


def test_iterators_are_sequences_of_parts():
    # conjugate builds its result from a generator
    assert Partition(p for p in (3, 1)) == (3, 1)
    assert LabeledComposition(iter([1, 2])) == (1, 2)


class _Part(int):
    pass


@pytest.mark.parametrize("kind", [Partition, LabeledComposition])
def test_parts_pass_the_int_predicate_exactly(kind):
    # an int subclass is an int; a bool is refused, at any place, in the
    # same words as one part at a time would give
    assert kind((_Part(3), 2)) == (3, 2)
    word = "partition" if kind is Partition else "composition"
    for parts in [(True,), (3, 2, False), (_Part(2), True)]:
        with pytest.raises(ValueError) as info:
            kind(parts)
        assert str(info.value) == f"{word} parts must be integers, got {parts!r}"
    with pytest.raises(ValueError) as info:
        Partition((3, 1, 2))
    assert str(info.value) == "partition parts must be non-increasing, got (3, 1, 2)"


def test_all_ints_is_is_int_on_every_entry():
    # the two-pass rule the part checks and the character table read
    values = [3, 0, -2, _Part(1), True, False, 1.0, "1", None, 10**30]
    for length in range(3):
        for seq in itertools.product(values, repeat=length):
            assert partitions._all_ints(seq) == all(map(partitions._is_int, seq)), seq


def _cell_contents(d) -> int:
    return sum(col - row for row, length in enumerate(d) for col in range(length))


def test_content_sum_is_the_sum_over_the_cells():
    # the closed form against its definition, cell by cell, on every
    # partition the cap allows and on diagrams far past it
    for n in range(1, partitions.MAX_PARTITION_N + 1):
        for d in enumerate_partitions(n):
            assert content_sum(d) == _cell_contents(d), d
    big = 10**6
    for d in [(1,) * big, (big,), (7,) * 3 + (4,) * 1000 + (1,) * 20]:
        assert content_sum(d) == _cell_contents(d)
    assert content_sum((1,) * big) == -math.comb(big, 2)
    assert content_sum((big,)) == math.comb(big, 2)
    assert content_sum(()) == 0


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


def test_conjugate_counts_the_rows_longer_than_each_column():
    # the run-by-run transpose against its definition, cell by cell, and
    # an involution, on every partition the cap allows
    for n in range(1, partitions.MAX_PARTITION_N + 1):
        for d in enumerate_partitions(n):
            conj = conjugate(d)
            assert conj == tuple(sum(1 for row in d if row > j) for j in range(d[0])), d
            assert type(conj) is Partition and conjugate(conj) == d, d


def test_dimension_frozen():
    assert dimension((2, 2)) == 2
    assert dimension((2, 1)) == 2
    for m in range(2, 8):
        assert dimension((m - 1, 1)) == m - 1
        assert dimension((m,)) == 1
        assert dimension((1,) * m) == 1
    # hooks and two-row rectangles, whose Durfee squares have sides 1 and
    # 2, however long their arms
    assert dimension((999_999, 1)) == 999_999
    assert dimension((2,) + (1,) * 99_999) == 100_000
    assert dimension((1000,) + (1,) * 999) == math.comb(1998, 999)
    assert dimension((720_000,) + (1,) * 1200) == math.comb(721_199, 1200)
    assert dimension((5000, 5000)) == math.comb(10_000, 5000) // 5001


def _frobenius_dimension(d) -> int:
    # Frobenius's determinant formula, independent of hook lengths: for a
    # diagram of k rows, n! * prod_{i<j} (l_i - l_j) / prod_i l_i!, with
    # l_i = d_i + k - i (1-based)
    ell = [part + len(d) - i for i, part in enumerate(d, start=1)]
    num = math.factorial(sum(d)) * math.prod(a - b for a, b in itertools.combinations(ell, 2))
    quotient, rem = divmod(num, math.prod(map(math.factorial, ell)))
    assert rem == 0, d
    return quotient


def test_dimension_vs_frobenius_formula():
    # on every partition the cap allows, and on larger diagrams whose
    # Durfee squares, of sides 15, 12, 2, 3 and 4, no partition of degree
    # <= 14 has
    checked = 0
    for n in range(1, partitions.MAX_PARTITION_N + 1):
        for d in enumerate_partitions(n):
            assert dimension(d) == _frobenius_dimension(d), d
            checked += 1
    assert checked == 507
    for d in [
        tuple(range(30, 0, -1)),
        (12,) * 12,
        (60, 60, 2) + (1,) * 40,
        (40, 3, 3, 3) + (1,) * 50,
        (9, 7, 7, 6, 4, 4, 2, 1, 1),
    ]:
        assert dimension(d) == _frobenius_dimension(d), d


def test_hook_product_remainder_raises_without_assert(monkeypatch):
    # a remainder raises IntegralityError, which `python -O` keeps: (2, 1)
    # has r = 1 and a = b = (1,), and multinomial(1, 1, 1) + 1 = 7 is not a
    # multiple of its one Durfee hook, 3
    real = partitions._multinomial
    monkeypatch.setattr(partitions, "_multinomial", lambda parts: real(parts) + 1)
    partitions._dimension.cache_clear()
    try:
        with pytest.raises(
            IntegralityError, match=r"^the hook-length formula leaves a remainder on \(2, 1\)$"
        ):
            dimension((2, 1))
    finally:
        partitions._dimension.cache_clear()


def test_multinomial_index():
    # zero parts count as 0! = 1, as the reduction counts need
    assert partitions._multinomial(()) == 1
    assert partitions._multinomial((3,)) == 1
    assert partitions._multinomial((2, 0, 1)) == 3
    assert index_p((1, 1)) == 2
    assert index_p((2, 1)) == 3
    assert index_p((1,) * 5) == 120
    # the running product of binomials against the factorial quotient
    for parts in itertools.product(range(5), repeat=3):
        quotient = math.factorial(sum(parts)) // math.prod(map(math.factorial, parts))
        assert partitions._multinomial(parts) == quotient, parts


def test_reduce_once():
    # a single count is the index of the composition with one position of
    # block i removed: (2, 1) leaves (1, 1) and (2,), (1, 3) leaves (3,) and
    # (1, 2)
    assert _reduction_counts((2, 1))[0] == {1: index_p((1, 1)), 2: index_p((2,))}
    assert _reduction_counts((1, 3))[0] == {1: index_p((3,)), 2: index_p((1, 2))}


def test_reduce_twice():
    # a pair count removes one position of blocks i and j, two of block i
    # when i == j; (2, 2) is absent from (2, 1), whose block 2 has one
    assert _reduction_counts((2, 1))[1] == {(1, 1): index_p((1,)), (1, 2): index_p((1,))}
    assert _reduction_counts((2, 2))[1] == {
        (1, 1): index_p((2,)), (1, 2): index_p((1, 1)), (2, 2): index_p((2,)),
    }
    assert _reduction_counts((2,))[1] == {(1, 1): 1}
    assert _reduction_counts((1,)) == ({1: 1}, {})


def test_p_reduced_examples():
    singles, pairs = _reduction_counts((2, 1))
    assert singles == {1: 2, 2: 1}
    assert pairs == {(1, 2): 1, (1, 1): 1}
    singles, pairs = _reduction_counts((1, 1, 1))
    assert singles == {1: 2, 2: 2, 3: 2}
    assert pairs == {(1, 2): 1, (1, 3): 1, (2, 3): 1}


@pytest.mark.parametrize("n", range(1, 10))
def test_single_reduction_sum(n):
    for lam in enumerate_partitions(n):
        singles, _ = _reduction_counts(tuple(lam))
        assert sum(singles.values()) == index_p(tuple(lam))


@pytest.mark.parametrize("n", range(2, 10))
def test_pair_reduction_sum(n):
    # ordered double reductions partition the cosets
    for lam in enumerate_partitions(n):
        _, pairs = _reduction_counts(tuple(lam))
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
        singles, pairs = _reduction_counts(lam)
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



def _compositions(n: int):
    # every ordered tuple of positive parts summing to n
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first, *rest)


def test_bounded_index_p_refuses_exactly_past_the_cap(monkeypatch):
    # the early refusal (a binomial factor of at least 2^j) and the computed
    # count must draw the same line: refused exactly when index_p > cap
    shapes = [(lam, index_p(lam)) for n in range(1, 11) for lam in _compositions(n)]
    assert len(shapes) == 2**10 - 1
    routes = {"early": 0, "counted": 0}
    for cap in range(1, 201):
        monkeypatch.setattr(partitions, "MAX_COSETS", cap)
        for lam, count in shapes:
            try:
                answer = bounded_index_p(lam)
            except SizeLimitError as exc:
                assert count > cap, (lam, cap)
                routes["early" if str(exc).startswith("at least 2^") else "counted"] += 1
            else:
                assert (answer, count <= cap) == (count, True), (lam, cap)
    # both routes to a refusal are taken, so neither is checked vacuously
    assert min(routes.values()) > 0, routes

def test_iter_cosets_lazy_and_capped(monkeypatch):
    cosets = iter_cosets((2, 1, 1))
    assert next(cosets) == LabeledComposition((2, 1, 1)).identity_labels()
    assert type(next(cosets)) is tuple
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


def test_coset_count_suite_reports_a_misplaced_identity(monkeypatch):
    # a non-identity coset first: the suite sees the identity out of place
    real = verify.iter_cosets

    def identity_last(lam):
        cosets = list(real(lam))
        return iter(cosets[1:] + cosets[:1])

    # the census is memoised: emptied before, so that it scans the patched
    # cosets, and after, so that no later test reads what it kept of them
    verify._coset_census.cache_clear()
    monkeypatch.setattr(verify, "iter_cosets", identity_last)
    try:
        result = verify.coset_count_suite(3)
    finally:
        verify._coset_census.cache_clear()
    assert result.failures
    assert all(f.endswith("identity coset not unique or not first") for f in result.failures)
    assert len(result.failures) == sum(1 for lam in verify._sweep_compositions(3) if len(lam) > 1)


def test_coset_count_suite_reports_single_reductions_off_the_index(monkeypatch):
    # one single reduction raised by one: the total belongs to each
    # composition's first check, which reports it, and no check is added
    clean = verify.coset_count_suite(4)
    real = verify._reduction_counts

    def raised(lam):
        singles, pairs = real(lam)
        singles[1] += 1
        return singles, pairs

    monkeypatch.setattr(verify, "_reduction_counts", raised)
    result = verify.coset_count_suite(4)
    totals = [f for f in result.failures if f.endswith("do not sum to the index")]
    assert totals == [
        f"lam={lam}: single reductions do not sum to the index"
        for lam in verify._sweep_compositions(4)
    ]
    assert (clean.failures, result.checks) == ([], clean.checks)
