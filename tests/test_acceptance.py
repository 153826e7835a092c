"""Acceptance gate: ten criteria, one test and one printed verdict each.

Every criterion is exact arithmetic under a pinned wall-clock budget.
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial

from hilbtaut import characters
from hilbtaut.characters import character_table
from hilbtaut.chern import (
    BundleSpec,
    b_class,
    c1,
    generating_polynomial,
)
from hilbtaut.cli import EXIT_OK, dispatch
from hilbtaut.divisors import DivisorClass
from hilbtaut.moduli import (
    HomTable,
    check_conditions,
    equivariant_end_dims,
    stability_certificate,
)
from hilbtaut.partitions import enumerate_partitions, iter_cosets
from hilbtaut.verify import (
    character_suite,
    generating_suite,
    rank_oracle_suite,
    rectangularity_suite,
    regular_suite,
    restriction_suite,
)


def _verdict(num: int, description: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if elapsed < budget else "FAIL"
    print(f"criterion {num:2d} {status} ({elapsed:6.2f}s / budget {budget:g}s): {description}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


def _run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(list(argv))
    return code, buf.getvalue()


def _taut_spec_json(n: int, r: int) -> str:
    return json.dumps(
        {
            "n": n,
            "blocks": [
                {"size": n - 1, "rank": 1, "c1": "0", "rep": [n - 1]},
                {"size": 1, "rank": r, "c1": "e", "rep": [1]},
            ],
        }
    )


def test_criterion_01_tautological_specialisation():
    started = time.perf_counter()
    for n in range(2, 11):
        for r in range(1, 6):
            code, out = _run_cli("chern", "--spec", _taut_spec_json(n, r))
            assert code == EXIT_OK
            assert out == f"1*e - {r}*delta\n", (n, r)
    _verdict(1, "tautological c1 = 1*e - r*delta for n <= 10, r <= 5 via the CLI", started, 1.0)


def test_criterion_02_all_singletons_specialisation():
    started = time.perf_counter()
    for n in range(2, 7):
        for ranks in itertools.product((1, 2, 3), repeat=n):
            blocks = [(r, f"e{i + 1}", (1,)) for i, r in enumerate(ranks)]
            spec = BundleSpec.build((1,) * n, blocks)
            s = 1
            for r in ranks:
                s *= r
            scale = factorial(n - 1) * s
            # every r_i divides s, and (n-1)! * n = n! is even from n = 2
            assert all(scale % r == 0 for r in ranks) and scale * n % 2 == 0
            expected = DivisorClass(
                {f"e{i + 1}": scale // r for i, r in enumerate(ranks)},
                -(scale * n // 2),
            )
            assert c1(spec) == expected, ranks
    _verdict(2, "all-singleton c1 = (n-1)!*s*(sum e_i/r_i - (n/2)*delta) for n <= 6", started, 1.0)


def test_criterion_03_swap_correction_oracle():
    started = time.perf_counter()
    result = rank_oracle_suite(6)
    assert not result.failures, result.failures
    assert result.checks >= 7000
    _verdict(
        3,
        f"closed-form swap correction matches the trace oracle on {result.checks} specs (n <= 6)",
        started,
        60.0,
    )


def test_criterion_04_generating_function_consistency():
    started = time.perf_counter()
    result = generating_suite(6)
    assert not result.failures, result.failures
    _verdict(
        4,
        f"generating-polynomial coefficients reproduce per-shape c1 in {result.checks} checks, both variants",
        started,
        10.0,
    )


def test_criterion_05_regular_representation_checksum():
    started = time.perf_counter()
    result = regular_suite(7)
    assert not result.failures, result.failures
    assert result.checks >= 18
    _verdict(
        5,
        "dimension-weighted c1 sum equals n!r^(n-1)e - (n!/2)r^n delta for n <= 7, r <= 3",
        started,
        30.0,
    )


def test_criterion_06_representation_theory_suite():
    started = time.perf_counter()
    for result in [
        character_suite(6),
        restriction_suite(10),
        rectangularity_suite(10),
    ]:
        assert not result.failures, (result.name, result.failures)
    for m in range(1, 13):
        table = character_table(m)
        ident = table.partitions.index((1,) * m)
        dims = [table.row(d)[ident] for d in table.partitions]
        assert sum(x * x for x in dims) == factorial(m)
        order = factorial(m)
        for d in table.partitions:
            row = table.row(d)
            norm = sum(
                size * v * v for v, size in zip(row, table.class_sizes)
            )
            assert norm == order, d
        if m <= 7:
            for a, b in zip(table.partitions, table.partitions[1:]):
                mixed = sum(
                    size * u * v
                    for u, v, size in zip(table.row(a), table.row(b), table.class_sizes)
                )
                assert mixed == 0
    _verdict(
        6,
        "orthogonality, sum of dim^2 = m! (m <= 12), brute-force characters (m <= 6), "
        "restriction sums and rectangularity (m <= 10)",
        started,
        30.0,
    )


def _random_vanishing_setup(rng: random.Random):
    k = rng.randrange(1, 4)
    size_pool = {1: (3, 4, 5), 2: (3, 4), 3: (3,)}[k]
    lam = tuple(rng.choice(size_pool) for _ in range(k))
    rect = {
        3: [(3,), (1, 1, 1)],
        4: [(4,), (2, 2), (1, 1, 1, 1)],
        5: [(5,), (1, 1, 1, 1, 1)],
    }
    reps = [rng.choice(rect[sz]) for sz in lam]
    hom = [[0] * k for _ in range(k)]
    ext1 = [[0] * k for _ in range(k)]
    for i in range(k):
        hom[i][i] = 1
        ext1[i][i] = rng.randrange(1, 6)
        for j in range(i + 1, k):
            hom[i][j] = rng.randrange(3)
            ext1[i][j] = rng.randrange(3)
    table = HomTable(
        tuple(map(tuple, hom)),
        tuple(map(tuple, ext1)),
        tuple(f"B{i + 1}" for i in range(k)),
        tuple(Fraction(i) for i in range(k)),
    )
    blocks = [(1, f"e{i + 1}", reps[i]) for i in range(k)]
    return BundleSpec.build(lam, blocks), table


def _non_rectangular(size: int, rng: random.Random) -> tuple[int, ...]:
    options = [
        tuple(d) for d in enumerate_partitions(size) if len(set(d)) > 1
    ]
    return rng.choice(options)


def test_criterion_07_ext_dimension_suite():
    started = time.perf_counter()
    rng = random.Random(20260817)
    for _ in range(100):
        spec, table = _random_vanishing_setup(rng)
        assert check_conditions(table).satisfied
        dims = equivariant_end_dims(spec, table)
        assert dims.end0 == 1
        assert dims.offdiagonal_vanishes
        assert dims.end1 == sum(table.end1_self)
        assert dims.image_dim == dims.end1  # the moduli component dimension

        pick = rng.randrange(spec.k)
        bent = list((blk.rank, blk.c1_symbol, tuple(blk.rep)) for blk in spec.blocks)
        bent[pick] = (
            bent[pick][0],
            bent[pick][1],
            _non_rectangular(spec.lam[pick], rng),
        )
        bent_spec = BundleSpec.build(tuple(spec.lam), bent)
        bent_dims = equivariant_end_dims(bent_spec, table)
        assert bent_dims.end1 > dims.end1, (spec.lam, pick)
    _verdict(
        7,
        "100 random vanishing tables: end1 = sum of self-extensions, and a "
        "non-rectangular rep strictly increases end1",
        started,
        10.0,
    )


def test_criterion_08_stability_certificates():
    started = time.perf_counter()
    rng = random.Random(20260818)
    for n in range(2, 7):
        for part in enumerate_partitions(n):
            lam = tuple(part)
            k = len(lam)
            eye = tuple(
                tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
            )
            zero = tuple((0,) * k for _ in range(k))
            slopes = tuple(
                Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(k)
            )
            distinct = HomTable(eye, zero, tuple(f"L{i}" for i in range(k)), slopes)
            cert = stability_certificate(lam, distinct)
            assert cert.ok, lam
            assert cert.witness_count == len(list(iter_cosets(lam))) - 1
            if k >= 2:
                labels = [f"L{i}" for i in range(k)]
                a, b = rng.sample(range(k), 2)
                labels[b] = labels[a]
                dup_slopes = list(slopes)
                dup_slopes[b] = dup_slopes[a]
                dup = HomTable(eye, zero, tuple(labels), tuple(dup_slopes))
                assert not stability_certificate(lam, dup).ok, lam
    same = HomTable(
        ((1, 0), (0, 1)),
        ((0, 0), (0, 0)),
        ("A", "A"),
        (Fraction(0), Fraction(0)),
    )
    failing = stability_certificate((2, 1), same)
    assert not failing.ok
    assert tuple(failing.failing_coset) == tuple(list(iter_cosets((2, 1)))[1])
    _verdict(
        8,
        "certificates exist iff labels are pairwise distinct (all shapes, n <= 6); "
        "same-label failure lands on the first diagonal-mixing coset",
        started,
        10.0,
    )


def test_criterion_09_integrality():
    started = time.perf_counter()
    classes: list[DivisorClass] = []
    for n in range(1, 6):
        for part in enumerate_partitions(n):
            lam = tuple(part)
            k = len(lam)
            rep_choices = [enumerate_partitions(p) for p in lam]
            for reps in itertools.product(*rep_choices):
                for ranks in itertools.product((1, 2, 3), repeat=k):
                    blocks = [
                        (ranks[i], f"e{i + 1}", reps[i]) for i in range(k)
                    ]
                    spec = BundleSpec.build(lam, blocks)
                    classes.append(c1(spec))
                    classes.append(b_class(spec))
    for n in range(2, 6):
        for variant in ("trivial", "sign"):
            poly = generating_polynomial(n, [(2, "a"), (3, "b")], variant=variant)
            classes.extend(poly.values())
    # the class type stores ints only, so integral means every coefficient is one
    assert all(type(c) is int for cls in classes for c in (cls.delta, *cls.surface.values()))
    _verdict(
        9,
        f"all {len(classes)} emitted divisor classes have integer coefficients",
        started,
        30.0,
    )


def test_criterion_10_performance():
    characters._character_table.cache_clear()
    started = time.perf_counter()
    table = character_table(12)
    table_elapsed = time.perf_counter() - started
    assert len(table.partitions) == 77
    assert table_elapsed < 5.0, f"character table of degree 12 took {table_elapsed:.2f}s"

    started = time.perf_counter()
    code, out = _run_cli("chern", "--spec", _taut_spec_json(10, 3))
    chern_elapsed = time.perf_counter() - started
    assert (code, out) == (EXIT_OK, "1*e - 3*delta\n")
    assert chern_elapsed < 0.1, f"single chern call took {chern_elapsed * 1000:.0f}ms"
    print(
        f"criterion 10 PASS: character table degree 12 in {table_elapsed:.2f}s "
        f"(budget 5s), single chern call in {chern_elapsed * 1000:.1f}ms (budget 100ms)"
    )
