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
from fractions import Fraction
from pathlib import Path

import pytest

from hilbtaut import characters, verify
from hilbtaut.characters import (
    CharacterTable,
    character,
    character_table,
    class_size,
    conjugacy_classes,
    restrict_to_transposition,
    transposition_type,
)
from hilbtaut.errors import ShapeMismatchError
from hilbtaut.partitions import (
    dimension,
    enumerate_partitions,
    is_rectangular,
    standard_tensor_multiplicity,
)
from hilbtaut.verify import (
    _tensor_multiplicity_by_characters,
    brute_force_character_table,
    canonical_permutation,
    cycle_type_of,
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


@pytest.mark.parametrize("m", range(1, 7))
def test_class_sizes_vs_enumeration(m):
    census: dict[tuple, int] = {}
    for perm in itertools.permutations(range(m)):
        c = cycle_type_of(perm)
        census[c] = census.get(c, 0) + 1
    assert census == dict(conjugacy_classes(m))


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
    assert table.value((2, 1), (1, 1, 1)) == 2
    assert table.row((2, 1)) == (-1, 0, 2)
    for call in (
        lambda: table.value((5,), (1, 1, 1)),
        lambda: table.value((2, 1), (2, 2)),
        lambda: table.row((2, 2)),
    ):
        with pytest.raises(ShapeMismatchError):
            call()
    with pytest.raises(ValueError):
        table.row((1, 2))


_D3 = [(3,), (2, 1), (1, 1, 1)]
_S3 = [2, 3, 1]
_V3 = [[1, 1, 1], [-1, 0, 2], [1, -1, 1]]


def test_character_table_of_the_right_shape_is_built():
    table = CharacterTable(3, _D3, _D3, _S3, _V3)
    assert table.row((1, 1, 1)) == (1, -1, 1)
    assert table.values == character_table(3).values


@pytest.mark.parametrize(
    "args",
    [
        (3, [(3,), (2, 1), (2, 2)], _D3, _S3, _V3),
        (3, [(3,), (1, 2), (1, 1, 1)], _D3, _S3, _V3),
        (3, _D3, [(3,), (2, 1), (1, 1)], _S3, _V3),
        (3, _D3, _D3, [1, 3, 2], [[1]]),
        (3, _D3, _D3, _S3, _V3[:2]),
        (3, _D3, _D3, _S3, [[1, 1], [-1, 0], [1, -1]]),
        (3, _D3, _D3, _S3, [[1, 1, 1, 1], [-1, 0, 2, 0], [1, -1, 1, 0]]),
        (3, _D3, _D3, _S3, [[1, 1, "a"], [-1, 0, 2], [1, -1, 1]]),
        (3, _D3, _D3, _S3, [[1, 1, 1.0], [-1, 0, 2], [1, -1, 1]]),
        (3, _D3, _D3, [2, 3], _V3),
        (3, _D3, _D3, [2, 3, "1"], _V3),
    ],
    ids=[
        "diagram-of-4", "diagram-not-a-partition", "type-of-2", "one-row-one-value",
        "missing-row", "short-rows", "long-rows", "str-value", "float-value",
        "missing-size", "str-size",
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
    cells = [(d, c) for d in table.diagrams for c in table.cycle_types]
    if m > 10:
        cells = random.Random(m).sample(cells, 200)
    for d, c in cells:
        assert table.value(d, c) == character(d, c), (d, c)


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
    assert table.diagrams == brute.diagrams
    assert table.cycle_types == brute.cycle_types
    assert table.class_sizes == brute.class_sizes
    assert table.values == brute.values


def test_brute_force_never_uses_murnaghan_nakayama(monkeypatch):
    expected = {m: character_table(m) for m in range(1, 8)}

    def refuse(*args):
        raise AssertionError("the oracle must not evaluate characters")

    monkeypatch.setattr(characters, "_border_strips", refuse)
    monkeypatch.setattr(characters, "character", refuse)
    monkeypatch.setattr(verify, "character", refuse)
    verify._brute_force_table.cache_clear()
    for m, table in expected.items():
        brute = brute_force_character_table(m)
        assert (brute.diagrams, brute.cycle_types) == (table.diagrams, table.cycle_types)
        assert (brute.class_sizes, brute.values) == (table.class_sizes, table.values)


@pytest.mark.parametrize("m", range(1, 9))
def test_row_orthonormality(m):
    table = character_table(m)
    for a in table.diagrams:
        assert inner_product(
            lambda c: table.value(a, c), lambda c: table.value(a, c), m
        ) == 1
    if m <= 6:
        for a, b in itertools.combinations(table.diagrams, 2):
            assert inner_product(
                lambda c: table.value(a, c), lambda c: table.value(b, c), m
            ) == 0


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
    assert restrict_to_transposition((2, 1)) == (1, 1)
    assert restrict_to_transposition((3,)) == (1, 0)
    assert restrict_to_transposition((1, 1)) == (0, 1)
    assert restrict_to_transposition((2, 2)) == (1, 1)
    with pytest.raises(ValueError):
        restrict_to_transposition((1,))


@pytest.mark.parametrize("m", range(2, 13))
def test_restriction_sums(m):
    tau = transposition_type(m)
    for d in enumerate_partitions(m):
        alpha, beta = restrict_to_transposition(d)
        assert alpha >= 0 and beta >= 0
        assert alpha + beta == dimension(d)
        assert alpha - beta == character(d, tau)


def test_standard_tensor_multiplicity_frozen():
    assert standard_tensor_multiplicity((1,)) == 1
    assert standard_tensor_multiplicity((2, 1)) == 2
    assert standard_tensor_multiplicity((2, 2)) == 1
    assert standard_tensor_multiplicity((5,)) == 1
    assert standard_tensor_multiplicity((3, 1)) == 2


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
    assert cycle_type_of((1, 0, 2)) == (2, 1)
    assert cycle_type_of((0, 1, 2)) == (1, 1, 1)
    for m in range(1, 7):
        for c in _class_types(m):
            assert cycle_type_of(canonical_permutation(c)) == c


def test_inner_product_is_exact():
    val = inner_product(
        lambda c: permutation_character(c),
        lambda c: permutation_character(c),
        4,
    )
    assert isinstance(val, (int, Fraction))
    assert val == 2
