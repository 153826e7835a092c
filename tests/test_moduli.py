"""Hom table conditions, equivariant End dimensions, stability certificates.

The per-coset degree-1 shortcut is checked against a direct census over
explicit permutations with no shortcuts.
"""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from hilbtaut import partitions
from hilbtaut.chern import BundleSpec
from hilbtaut.errors import (
    ModuliDimensionMismatchError,
    ShapeMismatchError,
    SizeLimitError,
)
from hilbtaut.moduli import (
    HomTable,
    check_conditions,
    equivariant_end_dims,
    moduli_component_dim,
    offdiagonal_ext1_vanishing,
    stability_certificate,
)
from hilbtaut.partitions import enumerate_partitions, iter_cosets
from hilbtaut.verify import (
    _grouping_tables,
    coset_scan_suite,
    grouping_suite,
    stability_by_enumeration,
)


def _table(hom, ext1, labels=None, slopes=None, **kw):
    k = len(hom)
    labels = labels if labels is not None else [f"L{i+1}" for i in range(k)]
    slopes = slopes if slopes is not None else [0] * k
    return HomTable(
        tuple(map(tuple, hom)),
        tuple(map(tuple, ext1)),
        tuple(labels),
        tuple(Fraction(s) for s in slopes),
        **kw,
    )


RUNNING_TABLE = _table(
    [[1, 0], [0, 1]], [[2, 0], [0, 4]], ["A", "B"], [Fraction(1, 2), Fraction(1, 2)]
)
RUNNING_SPEC = BundleSpec.build((2, 1), [(2, "e1", (2,)), (1, "e2", (1,))])


def test_table_validation():
    with pytest.raises(ShapeMismatchError):
        _table([[1, 0]], [[0]])
    with pytest.raises(ShapeMismatchError):
        HomTable(((1,),), ((0,),), ("A",), (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        _table([[1, -1], [0, 1]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        _table([[0]], [[0]])  # identity map missing
    with pytest.raises(ValueError):
        _table([[1, 0], [0, 1]], [[0, 0], [0, 0]], ["A", "A"], [0, 1])
    t = _table([[1]], [[7]], ext2=[[5]], locally_free=False)
    assert t.ext2 == ((5,),)
    assert not t.locally_free
    assert t.end1_self == (7,)
    assert RUNNING_TABLE.k == 2
    # floats and bools are refused as slopes
    for slopes in ((0.1, 1), (True, 1)):
        with pytest.raises(ValueError, match="^slopes must be exact fractions"):
            HomTable(((1, 0), (0, 1)), ((0, 0), (0, 0)), ("A", "B"), slopes)


def test_table_json_roundtrip():
    blob = RUNNING_TABLE.to_json_dict()
    assert blob["k"] == 2
    assert blob["slopes"] == ["1/2", "1/2"]
    assert HomTable.from_json_dict(blob) == RUNNING_TABLE
    t = _table([[1]], [[3]], ext2=[[2]], locally_free=False)
    assert HomTable.from_json_dict(t.to_json_dict()) == t
    with pytest.raises(ValueError):
        HomTable.from_json_dict({"hom": [[1]], "ext1": [[0]], "labels": ["A"]})
    with pytest.raises(ValueError):
        blob2 = RUNNING_TABLE.to_json_dict()
        blob2["k"] = 3
        HomTable.from_json_dict(blob2)
    with pytest.raises(ValueError):
        blob3 = RUNNING_TABLE.to_json_dict()
        blob3["mystery"] = 1
        HomTable.from_json_dict(blob3)


def test_check_conditions_basic():
    assert check_conditions(_table([[1]], [[5]])).grouping == ((1,),)
    report = check_conditions(RUNNING_TABLE)
    assert report.satisfied and report.distinct_ok
    assert report.grouping == ((1,), (2,))
    assert report.witnesses == ()


def test_check_conditions_order_sensitive():
    # hom from block 2 to block 1 survives, so block 2 must come first
    t = _table([[1, 0], [1, 1]], [[0, 0], [0, 0]])
    assert check_conditions(t).grouping == ((2,), (1,))
    # same with a backward ext1 only
    t2 = _table([[1, 0], [0, 1]], [[0, 0], [1, 0]])
    assert check_conditions(t2).grouping == ((2,), (1,))


def test_check_conditions_joint_group():
    # mutual ext1 blocks both orders; homs vanish, so one group takes both
    t = _table([[1, 0], [0, 1]], [[0, 1], [1, 0]])
    assert check_conditions(t).grouping == ((1, 2),)


def test_check_conditions_unsat_pairwise():
    t = _table([[1, 1], [1, 1]], [[0, 0], [0, 0]])
    report = check_conditions(t)
    assert not report.satisfied
    assert report.grouping is None
    assert any("no arrangement" in w for w in report.witnesses)


def test_check_conditions_unsat_cycle():
    # pairwise placements exist but the order constraints form a cycle
    hom = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    ext1 = [[0] * 3 for _ in range(3)]
    report = check_conditions(_table(hom, ext1))
    assert not report.satisfied
    assert report.witnesses == (
        "no ordered grouping satisfies the vanishing constraints",
    )


def test_check_conditions_non_simple():
    report = check_conditions(_table([[2, 0], [0, 1]], [[0, 0], [0, 0]]))
    assert not report.satisfied
    assert any("not simple" in w for w in report.witnesses)


def _structured(k):
    # the structured tables of the grouping suite: identity Hom, a 3-cycle of
    # Homs on the last three blocks, a chain forcing the reverse order, and
    # mutual Ext^1 pairs on blocks 1, 2 and k - 1, k
    return dict(_grouping_tables(k, random.Random(0), 0))


def test_check_conditions_distinct_flag_and_bound():
    t = _table([[1, 0], [0, 1]], [[0, 0], [0, 0]], ["A", "A"], [0, 0])
    report = check_conditions(t)
    assert report.satisfied and not report.distinct_ok
    # no block cap: eleven blocks with identity Hom get one group each
    report = check_conditions(_structured(11)["identity-hom"])
    assert report.grouping == tuple((i,) for i in range(1, 12))


def test_grouping_matches_backtracking_search():
    result = grouping_suite()
    assert result.checks > 1000
    assert result.failures == []


@pytest.mark.parametrize(
    "k, kind, grouping",
    [
        (5, "identity-hom", ((1,), (2,), (3,), (4,), (5,))),
        (5, "3-cycle", None),
        (5, "chain", ((5,), (4,), (3,), (2,), (1,))),
        (5, "mutual pairs", ((3,), (1, 2), (4, 5))),
        (0, "identity-hom", ()),
    ],
    ids=["identity-hom", "3-cycle", "chain", "mutual-ext1-pairs", "k=0"],
)
def test_check_conditions_structured(k, kind, grouping):
    report = check_conditions(_structured(k)[kind])
    assert report.grouping == grouping
    if grouping is None:
        assert report.witnesses == ("no ordered grouping satisfies the vanishing constraints",)


def test_check_conditions_three_cycle_at_ten_blocks_budget():
    # the backtracking search tried every ordered set partition here
    table = _structured(10)["3-cycle"]
    started = time.perf_counter()
    report = check_conditions(table)
    assert time.perf_counter() - started < 0.5
    assert report.grouping is None
    assert report.witnesses == ("no ordered grouping satisfies the vanishing constraints",)


def test_check_conditions_hundred_blocks():
    k = 100
    tables = _structured(k)
    for kind, grouping in (
        ("chain", tuple((i,) for i in range(k, 0, -1))),
        ("identity-hom", tuple((i,) for i in range(1, k + 1))),
    ):
        started = time.perf_counter()
        assert check_conditions(tables[kind]).grouping == grouping
        assert time.perf_counter() - started < 1.0


def test_vanishing_running_example():
    report = offdiagonal_ext1_vanishing((2, 1), RUNNING_TABLE)
    assert report.holds
    assert report.failing_coset is None and report.degree1_dim == 0


def test_vanishing_failure_frozen():
    t = _table([[1, 1], [1, 1]], [[0, 0], [1, 0]])
    report = offdiagonal_ext1_vanishing((2, 1), t)
    assert not report.holds
    assert tuple(report.failing_coset) == (1, 2, 1)
    assert report.degree1_dim == 1


def _brute_vanishing(lam, table):
    # no-shortcut oracle: visit label tuples through explicit permutations
    ident = []
    for i, part in enumerate(lam, start=1):
        ident.extend([i] * part)
    n = len(ident)
    seen = {}
    for perm in itertools.permutations(range(n)):
        labels = tuple(ident[p] for p in perm)
        seen[labels] = seen.get(labels, 0) + 1
    stab = 1
    for part in lam:
        for v in range(1, part + 1):
            stab *= v
    assert all(v == stab for v in seen.values())
    for labels in sorted(seen):
        if labels == tuple(ident):
            continue
        deg1 = 0
        for p in range(n):
            term = table.ext1[ident[p] - 1][labels[p] - 1]
            for q in range(n):
                if q != p:
                    term *= table.hom[ident[q] - 1][labels[q] - 1]
            deg1 += term
        if deg1:
            return (False, labels, deg1)
    return (True, None, 0)


def test_vanishing_vs_permutation_oracle():
    rng = random.Random(421)
    shapes = []
    for n in range(2, 6):
        for part in enumerate_partitions(n):
            shapes.append(tuple(part))
            if tuple(reversed(part)) != tuple(part):
                shapes.append(tuple(reversed(part)))
    for lam in shapes:
        k = len(lam)
        for _ in range(6):
            hom = [
                [1 if i == j else rng.randrange(3) for j in range(k)]
                for i in range(k)
            ]
            ext1 = [[rng.randrange(3) for _ in range(k)] for i in range(k)]
            t = _table(hom, ext1)
            got = offdiagonal_ext1_vanishing(lam, t)
            want = _brute_vanishing(lam, t)
            assert got.holds == want[0], (lam, hom, ext1)
            coset = None if got.failing_coset is None else tuple(got.failing_coset)
            assert (coset, got.degree1_dim) == (want[1], want[2])


def test_vanishing_bounds_and_shape(monkeypatch):
    with pytest.raises(ShapeMismatchError):
        offdiagonal_ext1_vanishing((2, 1, 1), RUNNING_TABLE)
    monkeypatch.setattr(partitions, "MAX_COSETS", 2)
    with pytest.raises(SizeLimitError):
        offdiagonal_ext1_vanishing((2, 1), RUNNING_TABLE)


def test_end_dims_running_example():
    dims = equivariant_end_dims(RUNNING_SPEC, RUNNING_TABLE)
    assert dims.end0 == 1
    assert dims.end1 == 6
    assert dims.offdiagonal_vanishes
    assert dims.failing_coset is None


def test_end_dims_multiplicity():
    # single full block: rectangular rep contributes once, hook rep twice
    for d in (1, 3, 20):
        t1 = _table([[1]], [[d]])
        rect = BundleSpec.build((3,), [(1, "e", (3,))])
        hook = BundleSpec.build((3,), [(1, "e", (2, 1))])
        assert equivariant_end_dims(rect, t1).end1 == d
        assert equivariant_end_dims(hook, t1).end1 == 2 * d


def test_end_dims_offdiagonal_failure():
    t = _table([[1, 1], [1, 1]], [[2, 0], [1, 4]])
    dims = equivariant_end_dims(RUNNING_SPEC, t)
    assert not dims.offdiagonal_vanishes
    assert dims.end1 == 6  # identity-coset part only
    assert tuple(dims.failing_coset) == (1, 2, 1)
    with pytest.raises(ValueError):
        moduli_component_dim(t, RUNNING_SPEC)


def test_end_dims_requires_simple():
    t = _table([[2, 0], [0, 1]], [[2, 0], [0, 4]])
    with pytest.raises(ValueError):
        equivariant_end_dims(RUNNING_SPEC, t)
    with pytest.raises(ValueError):
        moduli_component_dim(t, RUNNING_SPEC)


def test_moduli_component_dim():
    assert moduli_component_dim(RUNNING_TABLE, RUNNING_SPEC) == 6
    t20 = _table([[1]], [[20]])
    spec = BundleSpec.build((3,), [(1, "e", (3,))])
    assert moduli_component_dim(t20, spec) == 20


def test_moduli_component_dim_mismatch():
    t = _table([[1]], [[2]])
    hook = BundleSpec.build((3,), [(1, "e", (2, 1))])
    with pytest.raises(ModuliDimensionMismatchError) as exc:
        moduli_component_dim(t, hook)
    assert exc.value.image_dim == 2
    assert exc.value.tangent_dim == 4


def test_stability_running_example():
    cert = stability_certificate((2, 1), RUNNING_TABLE)
    assert cert.ok
    assert cert.failing_coset is None
    assert [(tuple(c), p) for c, p in cert.witnesses] == [
        ((1, 2, 1), 2),
        ((2, 1, 1), 1),
    ]


def test_stability_single_block_vacuous():
    t = _table([[1]], [[0]])
    cert = stability_certificate((3,), t)
    assert cert.ok and cert.witnesses == ()


def test_stability_duplicate_label_fails():
    t = _table([[1, 0], [0, 1]], [[0, 0], [0, 0]], ["A", "A"], [0, 0])
    cert = stability_certificate((2, 1), t)
    assert not cert.ok
    assert tuple(cert.failing_coset) == tuple(list(iter_cosets((2, 1)))[1])


def test_stability_iff_distinct_labels():
    rng = random.Random(422)
    for n in range(2, 6):
        for part in enumerate_partitions(n):
            lam = tuple(part)
            k = len(lam)
            eye = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
            zero = [[0] * k for _ in range(k)]
            slopes = [
                Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                for _ in range(k)
            ]
            distinct = _table(eye, zero, [f"L{i}" for i in range(k)], slopes)
            assert stability_certificate(lam, distinct).ok, lam
            assert len(stability_certificate(lam, distinct).witnesses) == (
                len(list(iter_cosets(lam))) - 1
            )
            if k >= 2:
                labels = [f"L{i}" for i in range(k)]
                a, b = rng.sample(range(k), 2)
                labels[b] = labels[a]
                dup_slopes = list(slopes)
                dup_slopes[b] = dup_slopes[a]
                dup = _table(eye, zero, labels, dup_slopes)
                assert not stability_certificate(lam, dup).ok, lam


def test_stability_bounds_and_shape(monkeypatch):
    with pytest.raises(ShapeMismatchError):
        stability_certificate((2, 1, 1), RUNNING_TABLE)
    monkeypatch.setattr(partitions, "MAX_COSETS", 2)
    with pytest.raises(SizeLimitError):
        stability_certificate((2, 1), RUNNING_TABLE)


def test_stability_witnesses_behave_as_tuple():
    t = _table(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0] * 3] * 3,
        ["A", "B", "C"],
        [2, Fraction(-1, 2), 1],
    )
    for lam in [(2, 1, 2), (3, 1, 1), (1, 1, 1)]:
        lazy = stability_certificate(lam, t).witnesses
        full = stability_by_enumeration(lam, t).witnesses
        assert isinstance(full, tuple)
        assert len(lazy) == len(full) and tuple(lazy) == full
        assert lazy == full and full == lazy and lazy != list(full)
        for key in (slice(None, 10), slice(3, None, 4), slice(None, None, -3), slice(-2, 1, -1)):
            assert lazy[key] == full[key], key
        assert [lazy[i] for i in (0, 2, -1, -len(full))] == [full[i] for i in (0, 2, -1, -len(full))]
        with pytest.raises(IndexError):
            lazy[len(full)]
        assert hash(stability_certificate(lam, t)) == hash(stability_certificate(lam, t))
    vacuous = stability_certificate((3,), _table([[1]], [[0]])).witnesses
    assert vacuous == () and not vacuous and vacuous[:10] == ()


def test_coset_scans_match_enumeration_n7():
    # every composition of n <= 7, unsorted ones included, under identity,
    # all-nonzero, random and repeated-label tables
    result = coset_scan_suite(7)
    assert not result.failures, result.failures
    assert result.checks >= 2 * 127 * 3


def test_coset_scans_memory_bounded():
    lam = (6, 4, 3, 1)  # 840,840 cosets
    k = len(lam)
    eye = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    t = _table(eye, [[1] * k] * k, ["A", "B", "C", "D"], [3, 1, 2, 0])
    tracemalloc.start()
    try:
        assert offdiagonal_ext1_vanishing(lam, t).holds
        cert = stability_certificate(lam, t)
        assert cert.ok and len(cert.witnesses) == 840839
        assert len(cert.witnesses[:10]) == 10
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MB"
