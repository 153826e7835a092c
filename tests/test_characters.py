"""Symmetric group character machinery.

The recursive character evaluation is checked against a brute-force table
built from explicit permutations, plus orthogonality and frozen values.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hilbtaut import characters, verify
from hilbtaut.characters import (
    CharacterTable,
    character,
    character_table,
    class_size,
    conjugacy_classes,
    transposition_type,
)
from hilbtaut.errors import IntegralityError, ShapeMismatchError, SizeLimitError
from hilbtaut.partitions import (
    Partition,
    content_sum,
    dimension,
    enumerate_partitions,
    is_rectangular,
    standard_tensor_multiplicity,
)
from hilbtaut.verify import (
    _tensor_multiplicity_by_characters,
    brute_force_character_table,
    canonical_permutation,
    inner_product,
    permutation_character,
)


def _class_types(m):
    return [c for c, _ in conjugacy_classes(m)]


def test_conjugacy_classes_small():
    assert conjugacy_classes(3) == [((3,), 2), ((2, 1), 3), ((1, 1, 1), 1)]
    assert class_size((2, 2)) == 3
    assert class_size((4,)) == 6


@pytest.mark.parametrize("m", range(1, 10))
def test_class_sizes_sum(m):
    assert sum(size for _, size in conjugacy_classes(m)) == math.factorial(m)
    for c, size in conjugacy_classes(m):
        assert class_size(c) == size


def test_special_types():
    assert transposition_type(4) == (2, 1, 1)
    assert transposition_type(2) == (2,)
    with pytest.raises(ValueError):
        transposition_type(1)


def test_character_frozen_degree_3():
    values = {
        d: tuple(character(d, c) for c in _class_types(3))
        for d in enumerate_partitions(3)
    }
    # columns in descending lexicographic order: (3), (2,1), (1,1,1)
    assert values[(3,)] == (1, 1, 1)
    assert values[(2, 1)] == (-1, 0, 2)
    assert values[(1, 1, 1)] == (1, -1, 1)


@pytest.mark.parametrize("m", range(1, 7))
def test_trivial_and_sign_rows(m):
    for c in _class_types(m):
        assert character((m,), c) == 1
        assert character((1,) * m, c) == (-1) ** (m - len(c))


def test_character_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        character((2, 1), (2, 2))


def test_table_lookup_of_another_degree_is_a_shape_mismatch():
    table = character_table(3)
    assert table.row((2, 1)) == (-1, 0, 2)
    for diagram in ((5,), (2, 2)):
        with pytest.raises(ShapeMismatchError):
            table.row(diagram)
    with pytest.raises(ValueError):
        table.row((1, 2))


_D3 = [(3,), (2, 1), (1, 1, 1)]
_S3 = [2, 3, 1]
_V3 = [[1, 1, 1], [-1, 0, 2], [1, -1, 1]]


def test_character_table_of_the_right_shape_is_built():
    table = CharacterTable(3, _S3, _V3)
    assert table.partitions == tuple(_D3)
    assert table.row((1, 1, 1)) == (1, -1, 1)
    assert table.values == character_table(3).values


@pytest.mark.parametrize(
    "args",
    [
        ("3", _S3, _V3),
        (15, _S3, _V3),
        (3, [1, 3, 2], [[1]]),
        (3, _S3, _V3[:2]),
        (3, _S3, [[1, 1], [-1, 0], [1, -1]]),
        (3, _S3, [[1, 1, 1, 1], [-1, 0, 2, 0], [1, -1, 1, 0]]),
        (3, _S3, [[1, 1, "a"], [-1, 0, 2], [1, -1, 1]]),
        (3, _S3, [[1, 1, 1.0], [-1, 0, 2], [1, -1, 1]]),
        (3, [2, 3], _V3),
        (3, [2, 3, "1"], _V3),
        (3, "231", _V3),
        (3, _S3, ["111", "-102", "1-11"]),
    ],
    ids=[
        "str-degree", "degree-past-the-cap", "one-row-one-value", "missing-row",
        "short-rows", "long-rows", "str-value", "float-value", "missing-size", "str-size",
        "str-sizes", "str-rows",
    ],
)
def test_character_table_checks_its_shape(args):
    with pytest.raises(ValueError):
        CharacterTable(*args)


@pytest.mark.parametrize("m", range(1, 15))
def test_table_agrees_with_single_values(m):
    # the table is built from lower-degree tables, character() by folding
    # the cycles of one type; each checks the other, every cell up to degree 10
    table = character_table(m)
    cells = [(d, j, c) for d in table.partitions for j, c in enumerate(table.partitions)]
    if m > 10:
        cells = random.Random(m).sample(cells, 200)
    for d, j, c in cells:
        assert table.row(d)[j] == character(d, c), (d, c)


def _rim_hooks(d, length):
    # independent of beta numbers: every diagram mu inside d with `length`
    # fewer cells whose skew d/mu is a rim hook (edge-connected, with no 2x2
    # square), as (sign, mu), the sign (-1)^(rows - 1), lowest top row first
    cells = {(i, j) for i, row in enumerate(d) for j in range(row)}
    left = sum(d) - length
    hooks = []
    for mu in enumerate_partitions(left) if left else [Partition()]:
        inner = {(i, j) for i, row in enumerate(mu) for j in range(row)}
        if not inner <= cells:
            continue
        skew = cells - inner
        if any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= skew for i, j in skew):
            continue
        seen, todo = set(), [min(skew)]
        while todo:
            i, j = todo.pop()
            if (i, j) in skew and (i, j) not in seen:
                seen.add((i, j))
                todo += [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]
        if seen != skew:
            continue
        rows = {i for i, _ in skew}
        hooks.append((min(rows), (-1) ** (len(rows) - 1), tuple(mu)))
    return [(sign, mu) for _, sign, mu in sorted(hooks, reverse=True)]


def test_border_strips_vs_rim_hooks_of_cells():
    # _border_strips moves one beta number and lists the strips in
    # ascending order of the number moved, which is the order of the top
    # rows, lowest first; every diagram of degree <= 10 and every length.
    # What is left is a Partition already, so dimension() does not check it
    # again.
    checked = 0
    for m in range(1, 11):
        for d in enumerate_partitions(m):
            for length in range(1, m + 1):
                strips = characters._border_strips(d, length)
                assert [(sign, tuple(rest)) for sign, rest in strips] == _rim_hooks(d, length)
                assert all(type(rest) is Partition for _, rest in strips)
                checked += 1
    assert checked == 1106


def test_character_answers_deep_inputs():
    # one fold step per cycle, no stack frame per cycle: a thousand cycles
    # raised RecursionError when each cycle was a recursive call
    assert character((1000,), (1,) * 1000) == 1
    assert character((999, 1), (1,) * 1000) == 999
    assert character((1000,), (2,) * 500) == 1


_MEMORY_PROBE = """
import tracemalloc
from hilbtaut.characters import character_table
tracemalloc.start()
character_table(14)
print(tracemalloc.get_traced_memory()[0])
"""


def test_character_tables_retain_little_memory():
    # a fresh process with every table cold, so that no memo an earlier
    # test warmed hides what building them keeps
    src = str(Path(characters.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    retained = int(proc.stdout)
    assert retained < 3_000_000, f"{retained} bytes retained after character_table(14)"


@pytest.mark.parametrize("m", range(1, 8))
def test_table_vs_brute_force(m):
    table = character_table(m)
    brute = brute_force_character_table(m)
    assert table.partitions == brute.partitions
    assert table.class_sizes == brute.class_sizes
    assert table.values == brute.values


def test_brute_force_never_uses_murnaghan_nakayama(monkeypatch):
    expected = {m: character_table(m) for m in range(1, 8)}

    def refuse(*args):
        raise AssertionError("the oracle must not evaluate characters")

    monkeypatch.setattr(characters, "_border_strips", refuse)
    monkeypatch.setattr(characters, "character", refuse)
    monkeypatch.setattr(verify, "character", refuse)
    for m, table in expected.items():
        brute = brute_force_character_table(m)
        assert brute.partitions == table.partitions
        assert (brute.class_sizes, brute.values) == (table.class_sizes, table.values)


@pytest.mark.parametrize("m", range(1, 9))
def test_row_orthonormality(m):
    table = character_table(m)

    def chi(d):
        # the class function of one row
        return dict(zip(table.partitions, table.row(d))).__getitem__

    for a in table.partitions:
        assert inner_product(chi(a), chi(a), m) == 1
    if m <= 6:
        for a, b in itertools.combinations(table.partitions, 2):
            assert inner_product(chi(a), chi(b), m) == 0


@pytest.mark.parametrize("m", range(1, 11))
def test_dimension_column_and_sum_of_squares(m):
    ident = (1,) * m
    dims = [character(d, ident) for d in enumerate_partitions(m)]
    assert dims == [dimension(d) for d in enumerate_partitions(m)]
    assert sum(x * x for x in dims) == math.factorial(m)


@pytest.mark.parametrize("m", range(2, 8))
def test_permutation_character_decomposition(m):
    # fixed points = trivial + standard, each once
    assert inner_product(
        lambda c: permutation_character(c), lambda c: character((m,), c), m
    ) == 1
    assert inner_product(
        lambda c: permutation_character(c),
        lambda c: character((m - 1, 1), c),
        m,
    ) == 1


@pytest.mark.parametrize("m", range(1, 7))
def test_regular_character_multiplicities(m):
    for d in enumerate_partitions(m):
        mult = inner_product(
            lambda c: math.factorial(m) if c == (1,) * m else 0,
            lambda c: character(d, c),
            m,
        )
        assert mult == dimension(d)


def test_restriction_frozen():
    # trivial and sign multiplicities (dim + chi) / 2 and (dim - chi) / 2
    # under a 2-cycle, with chi by the border-strip rule and by the content
    # formula
    frozen = {(2, 1): (1, 1), (3,): (1, 0), (1, 1): (0, 1), (2, 2): (1, 1), (3, 1): (2, 1)}
    for d, pair in frozen.items():
        m, dim = sum(d), dimension(d)
        chi = character(d, transposition_type(m))
        assert dim * content_sum(d) == chi * math.comb(m, 2)
        assert ((dim + chi) // 2, (dim - chi) // 2) == pair
    with pytest.raises(ValueError):
        transposition_type(1)


@pytest.mark.parametrize("m", range(2, 13))
def test_restriction_sums(m):
    # Frobenius's content formula, which restriction_suite and c1 read,
    # against the border-strip value; the multiplicities (dim +- chi) / 2
    # are then non-negative integers summing to the dimension
    tau = transposition_type(m)
    for d in enumerate_partitions(m):
        dim, chi = dimension(d), character(d, tau)
        assert dim * content_sum(d) == chi * math.comb(m, 2)
        assert abs(chi) <= dim and (dim + chi) % 2 == 0


def test_restriction_suite_reports_a_wrong_content_sum(monkeypatch):
    # a content sum one too large breaks the formula's division or the
    # parity on every diagram of degree 2 or 3, one failure per check
    clean = verify.restriction_suite(3)
    monkeypatch.setattr(verify, "content_sum", lambda d: content_sum(d) + 1)
    result = verify.restriction_suite(3)
    assert clean.ok and result.checks == clean.checks == 5
    assert [f.split(":")[0] for f in result.failures] == [
        "(2,)", "(1, 1)", "(3,)", "(2, 1)", "(1, 1, 1)"
    ]


def test_restriction_suite_reports_a_negated_content_sum(monkeypatch):
    # a negated content sum keeps every division and parity of the formula;
    # the domino rule, which reads no content, fails each diagram whose
    # content sum is not 0, with the same count of checks
    clean = verify.restriction_suite(10)
    monkeypatch.setattr(verify, "content_sum", lambda d: -content_sum(d))
    result = verify.restriction_suite(10)
    assert clean.ok and result.checks == clean.checks == 137
    moved = [d for m in range(2, 11) for d in enumerate_partitions(m) if content_sum(d)]
    assert len(moved) > 100
    assert [f.split(":")[0] for f in result.failures] == [str(tuple(d)) for d in moved]


def test_character_suite_reports_a_dimension_off_by_one(monkeypatch):
    # the brute-force table's identity column is the hook-length formula's
    # oracle: every diagram's check fails, and the count does not change
    clean = verify.character_suite(4)
    monkeypatch.setattr(verify, "dimension", lambda d: dimension(d) + 1)
    result = verify.character_suite(4)
    assert clean.ok and result.checks == clean.checks
    diagrams = [d for m in range(1, 5) for d in enumerate_partitions(m)]
    assert [f.split(":")[0] for f in result.failures] == [
        f"m={sum(d)} diagram {tuple(d)}" for d in diagrams
    ]


def test_character_suite_refuses_a_bound_past_the_brute_force_table():
    # the bound is never shrunk to what the oracle reaches: a larger one is
    # refused, not reported as passed with fewer checks
    with pytest.raises(SizeLimitError, match="^brute-force table capped at degree 7$"):
        verify.character_suite(8)


def test_standard_tensor_multiplicity_frozen():
    assert standard_tensor_multiplicity((1,)) == 1
    assert standard_tensor_multiplicity((2, 1)) == 2
    assert standard_tensor_multiplicity((2, 2)) == 1
    assert standard_tensor_multiplicity((5,)) == 1
    assert standard_tensor_multiplicity((3, 1)) == 2
    with pytest.raises(ValueError, match="degree must be >= 1"):
        standard_tensor_multiplicity(())


@pytest.mark.parametrize("m", range(1, 13))
def test_standard_tensor_multiplicity_rectangular(m):
    # multiplicity one exactly at rectangular diagrams, and the distinct-part
    # count agrees with the character inner product
    for d in enumerate_partitions(m):
        mult = standard_tensor_multiplicity(d)
        assert mult == _tensor_multiplicity_by_characters(d), d
        if is_rectangular(d):
            assert mult == 1, d
        else:
            assert mult >= 2, d


def test_cycle_type_roundtrip():
    # the brute-force table counts class sizes by the cycle lengths of all
    # m! permutations, and reads each class through canonical_permutation
    assert verify._cycle_lengths((1, 0, 2)) == (2, 1)
    assert verify._cycle_lengths((0, 1, 2)) == (1, 1, 1)
    for m in range(1, 7):
        for c in _class_types(m):
            assert verify._cycle_lengths(canonical_permutation(c)) == c


def test_brute_force_multiplicity_remainder_raises(monkeypatch):
    # 3! moved by 1 leaves the first Gram-Schmidt multiplicity a remainder
    real = verify.factorial
    monkeypatch.setattr(verify, "factorial", lambda m: real(m) + (m == 3))
    with pytest.raises(IntegralityError, match="^non-integral multiplicity in degree 3$"):
        verify.brute_force_character_table(3)


def test_inner_product_is_exact():
    # an int when m! divides the sum, else IntegralityError
    val = inner_product(
        lambda c: permutation_character(c),
        lambda c: permutation_character(c),
        4,
    )
    assert type(val) is int and val == 2
    with pytest.raises(IntegralityError, match="^inner product in degree 4 is not an integer$"):
        inner_product(lambda c: 1, lambda c: int(c == (1, 1, 1, 1)), 4)
