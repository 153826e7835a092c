"""Rank and first Chern class of induced bundles.

The closed-form swap correction is checked against the trace oracle, which
recounts invariants directly over the enumerated cosets.
"""

from __future__ import annotations

import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest

from hilbtaut import chern, cli, verify
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
from hilbtaut.errors import IntegralityError, ShapeMismatchError, SizeLimitError
from hilbtaut.partitions import MAX_PARTITION_N, content_sum, dimension, enumerate_partitions
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
    c1(a)  # memoises the class on a
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)
    # n, s, w, size, rep_dim, rep_content and the memo live in the instance
    # dict, yet only the declared fields reach equality, hash and repr
    assert {"n", "s", "w"} <= set(vars(b))
    assert set(vars(a)) - set(vars(b)) == {"_c1"}
    assert {"size", "rep_dim", "rep_content"} <= set(vars(a.blocks[0]))
    assert repr(a) == (
        "BundleSpec(lam=(2, 1), blocks=(BundleBlock(rank=2, c1_symbol='e1', rep=(2,)), "
        "BundleBlock(rank=3, c1_symbol='e2', rep=(1,))))"
    )
    assert hash(a) == hash((a.lam, a.blocks))
    assert hash(a.blocks[0]) == hash((2, "e1", (2,)))
    block = BundleBlock(2, "e1", (2,))
    vars(block).update(size=9, rep_dim=9, rep_content=9)
    assert block == a.blocks[0] and hash(block) == hash(a.blocks[0])
    assert repr(block) == "BundleBlock(rank=2, c1_symbol='e1', rep=(2,))"
    for obj, name in ((a, "lam"), (a, "n"), (block, "rank"), (block, "rep_dim")):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, 1)


@pytest.mark.parametrize(
    "sizes, blocks",
    [
        # symbols out of order, repeated, and trivial
        ((2, 1), [(2, "e2", (2,)), (3, "e1", (1,))]),
        ((1, 2, 1), [(3, "e3", (1,)), (1, "e1", (1, 1)), (2, "e2", (1,))]),
        ((2, 2), [(2, "e", (1, 1)), (3, "e", (2,))]),
        ((2, 1), [(2, "0", (2,)), (3, "", (1,))]),
        ((1, 1), [(2, "0", (1,)), (1, "e", (1,))]),
        ((1,), [(4, "e", (1,))]),
    ],
)
def test_one_memo_keeps_both_parts_in_stored_form(sizes, blocks):
    spec = BundleSpec.build(sizes, blocks)
    before = set(vars(spec))
    b, r, full = b_class(spec), r_number(spec), c1(spec)
    assert full.surface == b.surface
    assert all(type(coeff) is int and coeff for coeff in b.surface.values())
    # the blocks' order is the stored order; the same terms in the reverse
    # order are the same class, printed the same
    reverse = DivisorClass(dict(reversed(b.surface.items())))
    assert reverse == b and hash(reverse) == hash(b)
    assert reverse.render_text() == b.render_text()
    assert repr(reverse.to_json_dict()) == repr(b.to_json_dict())
    assert b.delta == 0 and type(r) is int and r == -full.delta
    assert set(vars(spec)) - before == {"_c1"}
    # the memo is the class itself, and b_class and r_number read it
    assert c1(spec) is full and b_class(spec) == b and r_number(spec) == r


def test_r_number_closed_form_runs_once_per_spec(monkeypatch):
    calls = []

    def counted(d):
        calls.append(tuple(d))
        return content_sum(d)

    monkeypatch.setattr(chern, "content_sum", counted)
    spec = BundleSpec.build((3, 1), [(2, "e1", (2, 1)), (3, "e2", (1,))])
    r = r_number(spec)
    assert c1(spec) == b_class(spec) + DivisorClass(delta=-r)
    assert calls == [(2, 1), (1,)]


def _sweep_specs(n: int) -> list[BundleSpec]:
    # the specs rank_oracle_suite sweeps at degree n, in its order
    return [spec for specs in verify._specs_by_shape(n) for spec in specs]


def test_swap_trace_suite_reports_one_wrong_closed_form(monkeypatch):
    # every spec still reaches the product path: a closed form that is off
    # by one on a single spec is that spec's one failure, and no check is
    # skipped
    clean = verify.rank_oracle_suite(4)
    target = _sweep_specs(4)[40]
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


def test_swap_trace_suite_reports_a_wrong_rank(monkeypatch):
    # rank_G meets the fibre dimension the oracle counts on the first spec
    # of each shape: off by one there, it is that spec's one failure, in
    # its first check
    clean = verify.rank_oracle_suite(4)
    target = [next(specs) for specs in verify._specs_by_shape(4)][3]
    monkeypatch.setattr(verify, "rank_G", lambda spec: rank_G(spec) + (spec == target))
    result = verify.rank_oracle_suite(4)
    rank = rank_G(target)
    assert result.failures == [
        f"lam={tuple(target.lam)}: rank {rank + 1} vs fibre dimension {rank}"
    ]
    assert result.checks == clean.checks


def test_swap_trace_suite_reports_a_wrong_character_value(monkeypatch):
    # the oracle's 2-cycle value of (2, 1) is 0; moved by 2, the swap trace
    # keeps its parity and every spec with a (2, 1) block on a repeated
    # label must disagree with the closed form.  The surface check reads no
    # character, so it still passes on each of them.
    clean = verify.rank_oracle_suite(4)
    value = verify._transposition_character
    monkeypatch.setattr(
        verify, "_transposition_character", lambda rep: value(rep) + 2 * (rep == (2, 1))
    )
    result = verify.rank_oracle_suite(4)
    delta_failures = [f for f in result.failures if " vs " in f]
    assert delta_failures and all("(2, 1)" in f.split("reps=")[1] for f in delta_failures)
    assert result.failures == delta_failures
    assert result.checks == clean.checks


def test_swap_trace_integrality_guard_stops_the_suite_and_the_command(monkeypatch, capsys):
    # the 2-cycle value of (2,) moved by 1 makes the first spec's swap trace
    # defect odd (lam=(2,), rank 1: dim 1, trace 2); a parity defect is no
    # mismatch to report but a broken theorem, so the suite raises and
    # `verify` exits 2 with one line on stderr and nothing on stdout
    value = verify._transposition_character
    monkeypatch.setattr(
        verify, "_transposition_character", lambda rep: value(rep) + (rep == (2,))
    )
    with pytest.raises(IntegralityError, match="odd swap trace defect"):
        verify.rank_oracle_suite(3)
    assert cli.dispatch(["verify", "--max-n", "3"]) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "internal consistency failure: odd swap trace defect: dim 1, trace 2"
    ]


@pytest.mark.parametrize(
    "symbols, expts, shift",
    [(("e1", "e2"), (2, 1), 1), (("0", "0"), (2, 2), 2)],
    ids=["surface-share", "pair-count"],
)
def test_generating_coefficient_remainder_raises(monkeypatch, symbols, expts, shift):
    # the multinomial moved by `shift` leaves a remainder: X = 4 in
    # X * 2 / 3, the share of input 1; X = 8 in X * 2 / 4 = 4, then in
    # 4 * (2 - 1) / 3, its pair count
    real = chern._multinomial
    monkeypatch.setattr(chern, "_multinomial", lambda parts: real(parts) + shift)
    inputs = [(1, symbol) for symbol in symbols]
    with pytest.raises(
        IntegralityError,
        match=rf"^generating coefficient \({expts[0]}, {expts[1]}\): input 1 leaves a remainder$",
    ):
        _generating_coefficient(sum(expts), inputs, expts)


def test_swap_trace_suite_reports_a_c1_surface_off_by_one(monkeypatch):
    # c1 off by one in its surface part, for every caller, b_class and
    # r_number included: only the census of the enumerated cosets can tell,
    # so each spec fails its second check and no other
    clean = verify.rank_oracle_suite(3)
    real = chern.c1

    def shifted(spec):
        full = real(spec)
        return full + DivisorClass({next(iter(full.surface)): 1})

    monkeypatch.setattr(chern, "c1", shifted)
    monkeypatch.setattr(verify, "c1", shifted)
    result = verify.rank_oracle_suite(3)
    specs = [spec for n in (2, 3) for spec in _sweep_specs(n)]
    assert result.failures == [f"lam={tuple(spec.lam)}: c1 routes disagree" for spec in specs]
    assert (clean.failures, result.checks) == ([], clean.checks)


def _pair_index_reference(spec: BundleSpec) -> tuple[DivisorClass, int]:
    # the pair-index form: position-1 and positions-1,2 coset counts from
    # the reduction index numbers, same-block pairs weighed by the trivial
    # and sign multiplicities of the 2-cycle, (dim +- chi) / 2 with chi by
    # the content formula
    singles, pairs = verify._reduction_counts(spec.lam)
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
        chi, rem = divmod(blk.rep_dim * content_sum(blk.rep), comb(blk.size, 2))
        assert rem == 0 and (blk.rep_dim + chi) % 2 == 0
        alpha, beta = (blk.rep_dim + chi) // 2, (blk.rep_dim - chi) // 2
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


def _few_rows_or_columns(rng: random.Random, size: int) -> tuple[int, ...]:
    # a diagram of `size` cells with at most three rows, or its conjugate
    cuts = sorted(rng.sample(range(1, size), min(size - 1, rng.randint(0, 2))))
    parts = sorted((b - a for a, b in zip([0, *cuts], [*cuts, size])), reverse=True)
    if rng.randrange(2):
        return tuple(parts)
    ends = [*parts[1:], 0]
    return tuple(j for j, (a, b) in enumerate(zip(parts, ends), start=1) for _ in range(a - b))[::-1]


def test_a_trivial_point_scales_rank_and_surface():
    # appending a block of one point (rank 1, class 0, rep (1)) multiplies
    # the coset index, so rank_G, by n + 1, and leaves each block's share
    # (R / r_i) lambda_i / n of the surface part multiplied by n: a relation
    # between closed forms at sizes no oracle reaches
    rng = random.Random(3517)
    point = BundleBlock(1, "0", (1,))
    for _ in range(300):
        sizes = [rng.randint(1, 10**4 // 3) for _ in range(rng.randint(1, 3))]
        blocks = [
            BundleBlock(rng.randint(1, 3), rng.choice(("a", "b", "0")), rep)
            for rep in (_few_rows_or_columns(rng, size) for size in sizes)
        ]
        spec = BundleSpec(sizes, blocks)
        grown = BundleSpec([*sizes, 1], [*blocks, point])
        n = spec.n
        assert rank_G(grown) == (n + 1) * rank_G(spec), spec
        assert c1(grown).surface == {s: n * c for s, c in c1(spec).surface.items()}, spec


def test_transposition_closed_form_any_block_size():
    # no recursion through Murnaghan-Nakayama: a block of 3000 points, whose
    # 2-cycle value dim * content_sum / C(3000, 2) is 1 on the row (trivial
    # restriction) and -1 on the column (sign restriction)
    assert dimension((3000,)) * content_sum((3000,)) == comb(3000, 2)
    assert dimension((1,) * 3000) * content_sum((1,) * 3000) == -comb(3000, 2)
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
            assert all(factorial(n - 1) * s % r == 0 for r in ranks)
            surface = {
                f"e{i+1}": factorial(n - 1) * s // r
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
        assert _sweep_specs(n) == expected, n


def test_sweep_builds_each_block_once(monkeypatch):
    # 279 distinct (rank, position, rep) blocks over n = 2..6, against
    # 14,538 block constructions when every spec builds its own
    calls = 0
    validate = BundleBlock.__init__

    def counted(self, *args):
        nonlocal calls
        calls += 1
        validate(self, *args)

    monkeypatch.setattr(BundleBlock, "__init__", counted)
    result = verify.rank_oracle_suite(6)
    assert result.ok and result.checks == 7116
    assert calls <= 279


def test_swap_trace_suite_runs_both_routes_on_every_spec(monkeypatch):
    # every spec of rank_oracle_suite(6) is built through BundleSpec and
    # meets both the closed form and the oracle's per-spec half: no route
    # is skipped.  b_class runs once per shape, on the spec that builds the
    # oracle's rank-free half; every other spec reads the surface part of
    # the class that r_number memoised
    calls = {"spec": 0, "closed": 0, "oracle": 0, "surface": 0}

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(BundleSpec, "__init__", counted("spec", BundleSpec.__init__))
    monkeypatch.setattr(verify, "r_number", counted("closed", verify.r_number))
    monkeypatch.setattr(verify, "_swap_trace", counted("oracle", verify._swap_trace))
    monkeypatch.setattr(verify, "b_class", counted("surface", verify.b_class))
    result = verify.rank_oracle_suite(6)
    assert result.ok and result.checks == 7116
    shapes = sum(1 for n in range(2, 7) for _ in verify._specs_by_shape(n))
    assert shapes == 118
    assert calls == {"spec": 3558, "closed": 3558, "oracle": 3558, "surface": shapes}


def test_swap_trace_halves_built_once_per_shape_agree_with_the_per_spec_oracle():
    # the suite builds the rank-free half from the first spec of each shape
    # and evaluates it for every rank tuple; on every spec of n = 2..6 that
    # gives what both halves give when built from the spec itself
    checked = 0
    for n in range(2, 7):
        for specs in map(list, verify._specs_by_shape(n)):
            shape = verify._swap_trace_shape(specs[0])
            for spec in specs:
                dim, rank, surface = verify._swap_trace(shape, spec)
                assert (dim, rank) == (rank_G(spec), invariant_restriction_rank(spec))
                assert surface == verify._swap_trace(verify._swap_trace_shape(spec), spec)[2]
                checked += 1
    assert checked == 3558


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
            value = value + DivisorClass(delta=1)
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
            assert full == b_class(spec) + DivisorClass(delta=-r_number(spec)), spec
            # c1 is integral, so every stored coefficient is an int
            assert type(full.delta) is int
            assert all(type(coeff) is int for coeff in full.surface.values())
    b = b_class(RUNNING)
    assert c1_via_blowup(b, 5) == c1(RUNNING)
    for bad in (5.0, True, "5", Fraction(5)):
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
    assert generating_polynomial(2, [(2, "e")]) == {(2,): DivisorClass({"e": 2}, -1)}
    assert generating_polynomial(2, [(2, "e")], variant="sign") == {
        (2,): DivisorClass({"e": 2}, -3)
    }
    assert generating_polynomial(2, [(1, "a"), (1, "b")]) == {
        (2, 0): DivisorClass({"a": 1}),
        (1, 1): DivisorClass({"a": 1, "b": 1}, -1),
        (0, 2): DivisorClass({"b": 1}),
    }


def test_generating_polynomial_is_a_plain_dict():
    # a new dict on each call, keyed by exponent tuples of arity k, with
    # no zero coefficient
    poly = generating_polynomial(3, [(1, "a"), (1, "0")])
    assert type(poly) is dict and poly is not generating_polynomial(3, [(1, "a"), (1, "0")])
    assert set(poly) == {(3, 0), (2, 1), (1, 2)}
    assert not any(coeff.is_zero for coeff in poly.values())
    assert _generating_coefficient(3, [(1, "a"), (1, "0")], (0, 3)).is_zero
    # the one-coefficient route takes exponents as ints, never coerced:
    # (1.9, 0.2) is not (1, 0)
    for expts in ((1.9, 0.2), ("1", "1"), (True, True), (1, 1.0), 5):
        with pytest.raises(ValueError, match="exponents must be integers"):
            _generating_coefficient(2, [(1, "a"), (2, "b")], expts)


@pytest.mark.parametrize("variant", ["trivial", "sign"])
@pytest.mark.parametrize("n", range(2, 7))
def test_generating_polynomial_vs_block_formula(n, variant):
    # the coefficient of t^lam is the class for the spec whose block reps
    # are all trivial (or all sign)
    rank_cycle = (2, 1, 3)
    inputs = [(rank_cycle[i % 3], f"e{i+1}") for i in range(n)]
    for k in range(1, n + 1):
        poly = generating_polynomial(n, inputs[:k], variant=variant)
        for expts in poly:
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
                assert poly.get(expts, DivisorClass.zero()) == c1(spec), (lam, variant)
                assert _generating_coefficient(n, inputs[:k], expts, variant) == c1(spec)


def test_c1_meets_the_generating_coefficient_past_the_oracles_sizes():
    # all-trivial and all-sign specs of up to MAX_GENERATING_N points against
    # the one-coefficient closed form, with shared and zero symbols, unused
    # inputs and the blocks in another order than the inputs: the two routes
    # store their surfaces in different orders, and print them alike
    rng = random.Random(3301)
    checks = reordered = 0
    for _ in range(120):
        k = rng.randint(1, 4)
        inputs = [(rng.randint(1, 3), rng.choice(("e1", "e2", "h", "", "0"))) for _ in range(k)]
        n = rng.randint(2, chern.MAX_GENERATING_N)
        used = rng.sample(range(k), rng.randint(1, min(k, n)))
        cuts = sorted(rng.sample(range(1, n), len(used) - 1))
        expts = [0] * k
        for i, a, b in zip(used, (0, *cuts), (*cuts, n)):
            expts[i] = b - a
        for variant, rep in (("trivial", lambda e: (e,)), ("sign", lambda e: (1,) * e)):
            spec = BundleSpec.build(
                [expts[i] for i in used], [(*inputs[i], rep(expts[i])) for i in used]
            )
            closed = c1(spec)
            coefficient = _generating_coefficient(n, inputs, expts, variant)
            assert closed == coefficient and hash(closed) == hash(coefficient), (n, inputs, expts)
            assert closed.render_text() == coefficient.render_text()
            assert json.dumps(closed.to_json_dict()) == json.dumps(coefficient.to_json_dict())
            checks += 1
            reordered += list(closed.surface) != list(coefficient.surface)
    assert checks == 240 and reordered > 0


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
    assert len(generating_polynomial(3, inputs)) == 10
    with pytest.raises(SizeLimitError, match="15 monomials exceed the bound 10"):
        generating_polynomial(4, inputs)
    assert _generating_coefficient(4, inputs, (2, 1, 1)) == c1(
        BundleSpec.build((2, 1, 1), [(1, "a", (2,)), (2, "b", (1,)), (3, "c", (1,))])
    )


def test_generating_degree_cap():
    # every generating entry point reads the bound before any factorial of n
    bound = chern.MAX_GENERATING_N
    assert len(str(regular_checksum(bound, 1, "e").surface["e"])) == 2568
    message = f"^n = {bound + 1} exceeds the generating bound {bound}$"
    for call in (
        lambda: generating_polynomial(bound + 1, [(1, "a")]),
        lambda: _generating_coefficient(bound + 1, [(1, "a"), (1, "b")], (bound, 1)),
        lambda: regular_checksum(bound + 1, 1, "e"),
    ):
        with pytest.raises(SizeLimitError, match=message):
            call()


def test_regular_checksum():
    assert regular_checksum(2, 1, "e") == DivisorClass({"e": 2}, -1)
    assert regular_checksum(3, 2, "e") == DivisorClass({"e": 24}, -24)
    with pytest.raises(ValueError):
        regular_checksum(1, 1, "e")
    # the dimension-weighted sum over irreducibles at every degree the CLI
    # answers, up to the partition bound; verify stops at degree 9
    for n in range(2, MAX_PARTITION_N + 1):
        for r in range(1, 4):
            direct = regular_checksum(n, r, "e")
            summed = regular_checksum_via_irreps(n, r, "e")
            assert direct == summed, (n, r)
            assert direct == DivisorClass(
                {"e": factorial(n) * r ** (n - 1)},
                -(factorial(n) // 2) * r**n,
            )


def test_integrality_enforced():
    # every class produced by the closed forms is integral by construction
    for n in range(1, 5):
        for spec in _all_specs(n, (1, 2)):
            for cls in (c1(spec), b_class(spec)):
                assert all(type(c) is int for c in (cls.delta, *cls.surface.values()))


def test_spec_errors_name_the_block_counted_from_one():
    first = BundleBlock(1, "e1", (1,))
    with pytest.raises(ValueError) as info:
        BundleSpec((1, 1), (first, (1, "e2", (1,))))
    assert str(info.value) == "block 2: (1, 'e2', (1,)) is not a BundleBlock"
    with pytest.raises(ValueError) as info:
        BundleSpec((1, 1), (first, BundleBlock(1, "e2", (2,))))
    assert str(info.value) == "block 2: rep (2,) is not a partition of 1"


def test_c1_guards_name_the_block_and_the_divisor():
    # each remainder is forced by overwriting a stored field of a built
    # block, which no valid input can reach
    spec = BundleSpec.build((2, 1), [(1, "e1", (2,)), (1, "e2", (1,))])
    vars(spec.blocks[1])["rank"] = 2
    with pytest.raises(IntegralityError) as info:
        c1(spec)
    assert str(info.value) == "b_class: block 2 term 1/3 is not an integer"
    spec = BundleSpec.build((2,), [(1, "e1", (2,))])
    vars(spec.blocks[0])["rep_content"] = 0
    with pytest.raises(IntegralityError) as info:
        c1(spec)
    assert str(info.value) == "r_number: 1/2 is not an integer"
