"""Rank and first Chern class of induced bundles.

The closed-form swap correction is checked against the trace oracle, which
recounts invariants directly over the enumerated cosets.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from math import comb, factorial

import pytest

from hilbtaut import chern, verify
from hilbtaut.characters import restrict_to_transposition
from hilbtaut.chern import (
    BundleBlock,
    BundleSpec,
    _generating_coefficient,
    b_class,
    c1,
    generating_polynomial,
    r_number,
    rank_G,
    regular_checksum,
)
from hilbtaut.divisors import DivisorClass
from hilbtaut.errors import ShapeMismatchError, SizeLimitError
from hilbtaut.partitions import content_sum, dimension, enumerate_partitions, p_reduced
from hilbtaut.verify import (
    c1_via_blowup,
    invariant_restriction_rank,
    regular_checksum_via_irreps,
)

RUNNING = BundleSpec.build((2, 1), [(2, "e1", (2,)), (1, "e2", (1,))])


def _taut_spec(n: int, r: int) -> BundleSpec:
    # rank r bundle spread over n points, fully symmetric partner factor
    return BundleSpec.build(
        (n - 1, 1), [(1, "", (n - 1,)), (r, "e", (1,))]
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        BundleSpec.build((2, 1), [(2, "e1", (2,))])  # block count mismatch
    with pytest.raises(ValueError):
        BundleSpec.build((2, 1), [(2, "e1", (3,)), (1, "e2", (1,))])
    with pytest.raises(ValueError):
        BundleSpec.build((2,), [(0, "e1", (2,))])
    for rank in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="^rank must be a positive integer"):
            BundleSpec.build((2,), [(rank, "a", (2,))])
    with pytest.raises(ValueError):
        BundleSpec.build((2,), [(1, "delta", (2,))])
    with pytest.raises(ValueError, match="^invalid surface symbol '1bad'$"):
        BundleSpec.build((2,), [(1, "1bad", (2,))])
    spec = BundleSpec.build((2,), [(3, "0", (1, 1))])
    assert b_class(spec) == DivisorClass.zero()


def test_cached_invariants_leave_equality_alone():
    a = BundleSpec.build((2, 1), [(2, "e1", (2,)), (3, "e2", (1,))])
    b = BundleSpec.build((2, 1), [(2, "e1", (2,)), (3, "e2", (1,))])
    assert (a.s, a.w, a.blocks[0].rep_dim) == (12, 1, 1)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)
    c = BundleSpec.build((2, 1), [(2, "e1", (1, 1)), (3, "e2", (1,))])
    assert c.s == a.s and c != a
    c1(a)  # memoises b_class and r_number on a
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert [f.name for f in fields(BundleSpec)] == ["lam", "blocks"]
    assert [f.name for f in fields(BundleBlock)] == ["rank", "c1_symbol", "rep"]


def test_r_number_closed_form_runs_once_per_spec(monkeypatch):
    calls = []

    def counted(d):
        calls.append(tuple(d))
        return content_sum(d)

    monkeypatch.setattr(chern, "content_sum", counted)
    spec = BundleSpec.build((3, 1), [(2, "e1", (2, 1)), (3, "e2", (1,))])
    r = r_number(spec)
    assert c1(spec) == b_class(spec) + DivisorClass.delta_class(-r)
    assert calls == [(2, 1), (1,)]


def test_swap_trace_suite_reports_one_wrong_closed_form(monkeypatch):
    # every spec still reaches the product path: a closed form that is off
    # by one on a single spec is that spec's one failure, and no check is
    # skipped
    clean = verify.rank_oracle_suite(4)
    target = list(verify._all_specs(4))[40]
    closed_form = verify.r_number
    monkeypatch.setattr(
        verify, "r_number", lambda spec: closed_form(spec) + (spec == target)
    )
    result = verify.rank_oracle_suite(4)
    r = r_number(target)
    assert result.failures == [
        f"lam={tuple(target.lam)} ranks={[b.rank for b in target.blocks]} "
        f"reps={[tuple(b.rep) for b in target.blocks]}: {r + 1} vs {r}"
    ]
    assert (clean.failures, result.checks) == ([], clean.checks)


def test_swap_trace_suite_reports_a_wrong_character_value(monkeypatch):
    # the oracle's 2-cycle value of (2, 1) is 0; moved by 2, the swap trace
    # keeps its parity and every spec with a (2, 1) block on a repeated
    # label must disagree with the closed form
    clean = verify.rank_oracle_suite(4)
    value = verify._transposition_character
    monkeypatch.setattr(
        verify, "_transposition_character", lambda rep: value(rep) + 2 * (rep == (2, 1))
    )
    result = verify.rank_oracle_suite(4)
    delta_failures = [f for f in result.failures if " vs " in f]
    assert delta_failures and all("(2, 1)" in f.split("reps=")[1] for f in delta_failures)
    assert len(result.failures) == 2 * len(delta_failures)
    assert result.checks == clean.checks


def _pair_index_reference(spec: BundleSpec) -> tuple[DivisorClass, int]:
    # the pair-index form: position-1 and positions-1,2 coset counts from
    # p_reduced, same-block pairs weighed by the 2-cycle restriction
    singles, pairs = p_reduced(spec.lam)
    s, w = spec.s, spec.w
    surface: dict[str, int] = {}
    for i, blk in enumerate(spec.blocks, start=1):
        if blk.c1_symbol not in ("", "0"):
            coeff = s // blk.rank * w * singles[i]
            surface[blk.c1_symbol] = surface.get(blk.c1_symbol, 0) + coeff
    total = 0
    for (i, j), p in pairs.items():
        if i != j:
            total += s * w * p
            continue
        blk = spec.blocks[i - 1]
        alpha, beta = restrict_to_transposition(blk.rep)
        weight = alpha * comb(blk.rank, 2) + beta * comb(blk.rank + 1, 2)
        term, rem = divmod(s * w * p * weight, blk.rank**2 * blk.rep_dim)
        assert rem == 0
        total += term
    return DivisorClass(surface), total


def test_closed_forms_match_the_pair_index_form():
    rng = random.Random(909)
    specs = []
    for _ in range(2000):
        sizes = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        symbols = [rng.choice(("a", "b", "c", "0", "")) for _ in sizes]
        specs.append(BundleSpec.build(sizes, [
            (rng.randint(1, 7), sym, rng.choice(enumerate_partitions(size)))
            for size, sym in zip(sizes, symbols)
        ]))
    specs.append(BundleSpec.build((3000,), [(2, "a", (3000,))]))
    specs.append(BundleSpec.build((2999, 1), [(3, "a", (1,) * 2999), (2, "a", (1,))]))
    row50 = tuple(range(50, 0, -1))
    specs.append(BundleSpec.build((sum(row50), 2), [(4, "a", row50), (5, "b", (1, 1))]))
    for spec in specs:
        assert (b_class(spec), r_number(spec)) == _pair_index_reference(spec), spec


def test_transposition_closed_form_any_block_size():
    # no recursion through Murnaghan-Nakayama: a block of 3000 points
    assert restrict_to_transposition((3000,)) == (1, 0)
    assert restrict_to_transposition((1,) * 3000) == (0, 1)
    n = 3000
    triv = BundleSpec.build((n,), [(2, "e", (n,))])
    sgn = BundleSpec.build((n,), [(2, "e", (1,) * n)])
    # one block of rank r: r^(n-2) * C(r, 2), resp. r^(n-2) * C(r + 1, 2)
    assert r_number(triv) == 2 ** (n - 2)
    assert r_number(sgn) == 3 * 2 ** (n - 2)


def test_rank_examples():
    assert rank_G(RUNNING) == 12
    for n in range(2, 7):
        line = BundleSpec.build((n,), [(1, "", (n,))])
        assert rank_G(line) == 1
        for r in range(1, 4):
            assert rank_G(_taut_spec(n, r)) == n * r


def test_b_class_examples():
    assert b_class(RUNNING) == DivisorClass({"e1": 4, "e2": 4})
    for n in range(2, 7):
        for r in range(1, 4):
            assert b_class(_taut_spec(n, r)) == DivisorClass({"e": 1})
    spec = BundleSpec.build(
        (1, 1, 1), [(1, "e1", (1,)), (2, "e2", (1,)), (3, "e3", (1,))]
    )
    assert b_class(spec) == DivisorClass({"e1": 12, "e2": 6, "e3": 4})


def test_r_number_examples():
    assert r_number(RUNNING) == 5
    # tautological rank r: correction equals r for every n
    for n in range(2, 7):
        for r in range(1, 4):
            assert r_number(_taut_spec(n, r)) == r
    # two points, one block: trivial rep counts strict pairs, sign rep
    # counts pairs with repetition (checked against the trace oracle)
    for r in range(1, 5):
        triv = BundleSpec.build((2,), [(r, "e", (2,))])
        sgn = BundleSpec.build((2,), [(r, "e", (1, 1))])
        assert r_number(triv) == comb(r, 2)
        assert r_number(sgn) == comb(r + 1, 2)
        assert invariant_restriction_rank(triv) == comb(r, 2)
        assert invariant_restriction_rank(sgn) == comb(r + 1, 2)
    # single point per block never meets the diagonal correction alone
    ones = BundleSpec.build((1,), [(2, "e", (1,))])
    assert r_number(ones) == 0


def test_c1_examples():
    assert c1(RUNNING) == DivisorClass({"e1": 4, "e2": 4}, -5)
    assert c1(RUNNING).render_text() == "4*e1 + 4*e2 - 5*delta"
    for n in range(2, 8):
        for r in range(1, 5):
            assert c1(_taut_spec(n, r)) == DivisorClass({"e": 1}, -r)


def test_c1_all_singleton_blocks_closed_form():
    # lam = (1, .., 1): rank (n-1)! * s per symbol slot, correction from
    # unordered block pairs
    for n in range(2, 6):
        for ranks in itertools.product((1, 2, 3), repeat=n):
            blocks = [(r, f"e{i+1}", (1,)) for i, r in enumerate(ranks)]
            spec = BundleSpec.build((1,) * n, blocks)
            s = 1
            for r in ranks:
                s *= r
            surface = {
                f"e{i+1}": Fraction(factorial(n - 1) * s, r)
                for i, r in enumerate(ranks)
            }
            pair_total = sum(
                factorial(n - 2) for _ in itertools.combinations(range(n), 2)
            )
            expected = DivisorClass(surface, -s * pair_total)
            assert c1(spec) == expected, ranks


def _all_specs(n, ranks=(1, 2, 3)):
    shapes = []
    for part in enumerate_partitions(n):
        shapes.append(tuple(part))
        if tuple(reversed(part)) != tuple(part):
            shapes.append(tuple(reversed(part)))
    for lam in shapes:
        k = len(lam)
        rep_choices = [enumerate_partitions(part) for part in lam]
        for reps in itertools.product(*rep_choices):
            for rank_tuple in itertools.product(ranks, repeat=k):
                blocks = [
                    (rank_tuple[i], f"e{i+1}", reps[i]) for i in range(k)
                ]
                yield BundleSpec.build(lam, blocks)


def test_sweep_yields_the_per_spec_specs():
    # the sweep shares each block among its specs; it must still yield the
    # specs one BundleSpec.build per spec gives, in the same order
    for n in range(2, 7):
        expected = [
            BundleSpec.build(
                tuple(lam), [(rank_tuple[i], f"e{i + 1}", reps[i]) for i in range(len(lam))]
            )
            for lam in enumerate_partitions(n)
            for reps in itertools.product(*[enumerate_partitions(part) for part in lam])
            for rank_tuple in itertools.product((1, 2, 3), repeat=len(lam))
        ]
        assert list(verify._all_specs(n)) == expected, n


def test_sweep_builds_each_block_once(monkeypatch):
    # 279 distinct (rank, position, rep) blocks over n = 2..6, against
    # 14,538 block constructions when every spec builds its own
    calls = 0
    validate = BundleBlock.__post_init__

    def counted(self):
        nonlocal calls
        calls += 1
        validate(self)

    monkeypatch.setattr(BundleBlock, "__post_init__", counted)
    result = verify.rank_oracle_suite(6)
    assert result.ok and result.checks == 7116
    assert calls <= 279


def test_swap_trace_suite_runs_both_routes_on_every_spec(monkeypatch):
    # every spec of rank_oracle_suite(6) is built through BundleSpec and
    # meets both the closed form and the oracle: no route is skipped
    calls = {"spec": 0, "closed": 0, "oracle": 0}

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(BundleSpec, "__post_init__", counted("spec", BundleSpec.__post_init__))
    monkeypatch.setattr(verify, "r_number", counted("closed", verify.r_number))
    monkeypatch.setattr(verify, "_swap_trace_rank", counted("oracle", verify._swap_trace_rank))
    result = verify.rank_oracle_suite(6)
    assert result.ok and result.checks == 7116
    assert calls == {"spec": 3558, "closed": 3558, "oracle": 3558}


@pytest.mark.parametrize("max_n", range(2, 10))
def test_generating_suite_check_count(max_n):
    # one check per partition of each degree 2..max_n, in both variants
    result = verify.generating_suite(max_n)
    assert result.ok
    assert result.checks == 2 * sum(len(enumerate_partitions(m)) for m in range(2, max_n + 1))


def test_generating_suite_expands_only_small_degrees(monkeypatch):
    degrees = []
    expand = verify.generating_polynomial

    def recorded(n, inputs, variant="trivial"):
        degrees.append(n)
        return expand(n, inputs, variant)

    monkeypatch.setattr(verify, "generating_polynomial", recorded)
    assert verify.generating_suite(9).ok
    assert degrees and max(degrees) <= 4


def test_generating_suite_reports_a_wrong_single_coefficient(monkeypatch):
    # degree 5 is read coefficient by coefficient: one that is off by one
    # is that check's one failure, and no check is skipped
    clean = verify.generating_suite(6)
    single = verify._generating_coefficient

    def off_by_one(n, inputs, expts, variant="trivial"):
        value = single(n, inputs, expts, variant)
        if (tuple(expts), variant) == ((3, 2, 0, 0, 0), "sign"):
            value = value + DivisorClass.delta_class(1)
        return value

    monkeypatch.setattr(verify, "_generating_coefficient", off_by_one)
    result = verify.generating_suite(6)
    assert result.failures == ["n=5 sign lam=(3, 2): coefficient mismatch"]
    assert (clean.failures, result.checks) == ([], clean.checks)


def test_generating_suite_memory_stays_small():
    # the whole degree-9 polynomial in 9 variables has 24,310 monomials;
    # the suite reads only its 30 checked coefficients of that degree
    tracemalloc.start()
    try:
        assert verify.generating_suite(9).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_trusted_delta_route_equals_the_validating_sum():
    for n in range(1, 6):
        for spec in _all_specs(n):
            full = c1(spec)
            assert full == b_class(spec) + DivisorClass.delta_class(-r_number(spec)), spec
            # c1 is integral, so every stored coefficient is an int
            assert type(full.delta) is int
            assert all(type(coeff) is int for coeff in full.surface.values())
    b = b_class(RUNNING)
    assert c1_via_blowup(b, Fraction(5)) == c1(RUNNING)
    for bad in (5.0, True, "5"):
        with pytest.raises(ValueError):
            c1_via_blowup(b, bad)


@pytest.mark.parametrize("n", range(1, 6))
def test_swap_correction_vs_trace_oracle(n):
    ranks = (1, 2, 3) if n <= 4 else (1, 2)
    for spec in _all_specs(n, ranks):
        oracle = invariant_restriction_rank(spec)
        assert r_number(spec) == oracle, spec
        assert c1(spec) == c1_via_blowup(b_class(spec), oracle)


def test_oracle_edge_cases():
    ones = BundleSpec.build((1,), [(3, "e", (1,))])
    assert invariant_restriction_rank(ones) == 0
    assert invariant_restriction_rank(RUNNING) == 5
    with pytest.raises(SizeLimitError):
        big = BundleSpec.build((1,) * 13, [(1, "e", (1,))] * 13)
        invariant_restriction_rank(big)


def test_oracle_regular_identity():
    # summed over all irreducibles of the full symmetric group, weighted by
    # dimension, the invariant count recovers half the regular square
    for n in range(2, 5):
        for r in range(1, 3):
            total = 0
            for rep in enumerate_partitions(n):
                spec = BundleSpec.build((n,), [(r, "e", rep)])
                total += dimension(rep) * invariant_restriction_rank(spec)
            assert total == factorial(n) * r**n // 2


def test_n_equals_one():
    spec = BundleSpec.build((1,), [(2, "e1", (1,))])
    assert rank_G(spec) == 2
    assert r_number(spec) == 0
    assert c1(spec) == DivisorClass({"e1": 1})


def test_generating_polynomial_frozen():
    poly = generating_polynomial(2, [(2, "e")])
    assert poly.coefficient_of((2,)) == DivisorClass({"e": 2}, -1)
    assert set(poly.terms) == {(2,)}
    assert sum(poly.terms.values(), DivisorClass.zero()) == DivisorClass({"e": 2}, -1)

    sign = generating_polynomial(2, [(2, "e")], variant="sign")
    assert sign.coefficient_of((2,)) == DivisorClass({"e": 2}, -3)

    pair = generating_polynomial(2, [(1, "a"), (1, "b")])
    assert pair.coefficient_of((1, 1)) == DivisorClass({"a": 1, "b": 1}, -1)
    assert pair.coefficient_of((2, 0)) == DivisorClass({"a": 1})


@pytest.mark.parametrize("variant", ["trivial", "sign"])
@pytest.mark.parametrize("n", range(2, 7))
def test_generating_polynomial_vs_block_formula(n, variant):
    # the coefficient of t^lam is the class for the spec whose block reps
    # are all trivial (or all sign)
    rank_cycle = (2, 1, 3)
    inputs = [(rank_cycle[i % 3], f"e{i+1}") for i in range(n)]
    for k in range(1, n + 1):
        poly = generating_polynomial(n, inputs[:k], variant=variant)
        for expts in poly.terms:
            assert sum(expts) == n
        for part in enumerate_partitions(n):
            fits = [lam for lam in itertools.permutations(part, len(part))]
            for lam in set(fits):
                if len(lam) > k:
                    continue
                expts = tuple(lam) + (0,) * (k - len(lam))
                rep_of = (
                    (lambda p: (p,)) if variant == "trivial"
                    else (lambda p: (1,) * p)
                )
                blocks = [
                    (inputs[i][0], inputs[i][1], rep_of(lam[i]))
                    for i in range(len(lam))
                ]
                spec = BundleSpec.build(lam, blocks)
                assert poly.coefficient_of(expts) == c1(spec), (lam, variant)
                assert _generating_coefficient(n, inputs[:k], expts, variant) == c1(spec)


def test_generating_polynomial_validation():
    with pytest.raises(ValueError):
        generating_polynomial(2, [(2, "e")], variant="other")
    with pytest.raises(ValueError):
        generating_polynomial(1, [(2, "e")])
    with pytest.raises(ValueError):
        generating_polynomial(2, [])
    with pytest.raises(ValueError):
        generating_polynomial(2, [(0, "e")])
    for rank in (2.5, True):
        with pytest.raises(ValueError, match="^rank must be a positive integer"):
            generating_polynomial(2, [(rank, "e")])
        with pytest.raises(ValueError, match="^rank must be a positive integer"):
            _generating_coefficient(2, [(rank, "e")], (2,))
    with pytest.raises(ValueError):
        _generating_coefficient(3, [(2, "e"), (1, "f")], (-1, 4))
    with pytest.raises(ShapeMismatchError):
        _generating_coefficient(3, [(2, "e"), (1, "f")], (3,))
    assert _generating_coefficient(3, [(2, "e"), (1, "f")], (2, 2)).is_zero


def test_generating_polynomial_monomial_cap(monkeypatch):
    # comb(n+k-1, k-1) monomials: 10 for n = 3 and k = 3, 15 for n = 4
    inputs = [(1, "a"), (2, "b"), (3, "c")]
    monkeypatch.setattr(chern, "MAX_MONOMIALS", 10)
    assert len(generating_polynomial(3, inputs).terms) == 10
    with pytest.raises(SizeLimitError, match="15 monomials exceed the bound 10"):
        generating_polynomial(4, inputs)
    assert _generating_coefficient(4, inputs, (2, 1, 1)) == c1(
        BundleSpec.build((2, 1, 1), [(1, "a", (2,)), (2, "b", (1,)), (3, "c", (1,))])
    )


def test_regular_checksum():
    assert regular_checksum(2, 1, "e") == DivisorClass({"e": 2}, -1)
    assert regular_checksum(3, 2, "e") == DivisorClass({"e": 24}, -24)
    with pytest.raises(ValueError):
        regular_checksum(1, 1, "e")
    for n in range(2, 6):
        for r in range(1, 4):
            direct = regular_checksum(n, r, "e")
            summed = regular_checksum_via_irreps(n, r, "e")
            assert direct == summed, (n, r)
            assert direct == DivisorClass(
                {"e": factorial(n) * r ** (n - 1)},
                -Fraction(factorial(n), 2) * r**n,
            )


def test_integrality_enforced():
    # every class produced by the closed forms is integral by construction
    for n in range(1, 5):
        for spec in _all_specs(n, (1, 2)):
            assert c1(spec).is_integral
            assert b_class(spec).is_integral
