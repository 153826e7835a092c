"""Divisor class arithmetic, text and JSON formats, the polynomial carrier."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hilbtaut import cli, moduli, partitions, verify
from hilbtaut.characters import (
    CharacterTable,
    character_table,
    transposition_type,
)
from hilbtaut.chern import (
    BundleBlock,
    BundleSpec,
    b_class,
    c1,
    generating_polynomial,
    r_number,
    rank_G,
    regular_checksum,
)
from hilbtaut.divisors import ClassPolynomial, DivisorClass
from hilbtaut.errors import IntegralityError, ShapeMismatchError
from hilbtaut.partitions import LabeledComposition, Partition, enumerate_partitions, index_p
from hilbtaut.verify import verify_all


def _random_class(rng: random.Random) -> DivisorClass:
    symbols = rng.sample(["e1", "e2", "h", "f_0", "Zq"], rng.randrange(4))
    surface = {
        s: Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for s in symbols
    }
    delta = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return DivisorClass(surface, delta)


@pytest.mark.parametrize("coeff", [1.5, True, "1"])
def test_delta_class_still_validates(coeff):
    with pytest.raises(ValueError):
        DivisorClass.delta_class(coeff)


@pytest.mark.parametrize(
    "call",
    [
        lambda: BundleBlock(1, 5, (1,)),
        lambda: DivisorClass({5: 1}),
        lambda: DivisorClass({"a": 1, 5: 1}),
        lambda: generating_polynomial(3, [(1, 5)]),
        lambda: Partition(5),
        lambda: LabeledComposition(5),
        lambda: index_p(5),
    ],
    ids=[
        "block-symbol", "class-symbol", "mixed-symbols", "generating-symbol",
        "partition", "composition", "index",
    ],
)
def test_wrong_types_and_zero_denominators_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


ONE_BLOCK_TABLE = moduli.HomTable(((1,),), ((0,),), ("A",), (Fraction(0),))


@pytest.mark.parametrize(
    "call",
    [
        lambda: DivisorClass(5),
        lambda: ClassPolynomial(2, {5: DivisorClass.symbol("a")}),
        lambda: enumerate_partitions(2.5),
        lambda: character_table("3"),
        lambda: character_table(2.5),
        lambda: character_table([]),
        lambda: character_table({}),
        lambda: transposition_type("3"),
        lambda: regular_checksum(2.5, 1, "a"),
        lambda: generating_polynomial(2.5, [(1, "a")]),
        lambda: generating_polynomial(3, [5]),
        lambda: verify_all(2.5),
        lambda: verify_all("3"),
        lambda: BundleSpec((1,), 5),
        lambda: BundleSpec((1,), [5]),
        lambda: BundleSpec.build((1,), [5]),
        lambda: ClassPolynomial(2, 5),
        lambda: cli.parse_spec(5),
        lambda: cli.dispatch(5),
        lambda: moduli.check_conditions(5),
        lambda: moduli.stability_certificate((1, 1), 5),
        lambda: rank_G(5),
        lambda: b_class(5),
        lambda: r_number(5),
        lambda: c1(5),
        lambda: moduli.equivariant_end_dims(5, ONE_BLOCK_TABLE),
        lambda: moduli.moduli_component_dim(ONE_BLOCK_TABLE, 5),
        lambda: partitions.reduce_once((2, 1), "1"),
        lambda: partitions.reduce_twice((2, 1), 1, "1"),
        lambda: partitions.LabeledSetPartition(5),
        lambda: partitions.multinomial_index(5),
        lambda: CharacterTable(5, 5, 5, 5, 5),
        lambda: verify.c1_via_blowup(5, 5),
        lambda: verify.cycle_type_of(5),
        lambda: verify.cycle_type_of((0, 0)),
        lambda: verify.inner_product(5, 5, 5),
        lambda: verify.invariant_restriction_rank(5),
        lambda: verify.brute_force_character_table("3"),
        lambda: verify.brute_force_character_table([]),
    ],
    ids=[
        "class-int", "monomial-int", "partitions-float", "table-str", "table-float",
        "table-list", "table-dict", "transposition-str", "checksum-float", "generating-float",
        "generating-input", "verify-float", "verify-str", "spec-int", "spec-block",
        "build-block", "polynomial-terms-int", "spec-document-int", "dispatch-int",
        "conditions-int", "stability-table-int", "rank-int",
        "b-class-int", "r-number-int", "c1-int", "end-dims-spec-int",
        "component-dim-spec-int", "reduce-once-str", "reduce-twice-str",
        "labels-int", "multinomial-int", "table-ints", "blowup-int", "cycle-type-int",
        "cycle-type-repeat", "inner-product-int", "swap-trace-int", "brute-table-str",
        "brute-table-list",
    ],
)
def test_library_entry_points_reject_wrong_types_with_value_error(call):
    with pytest.raises(ValueError):
        call()


def _assert_canonical(d: DivisorClass) -> None:
    # one stored form per value: an int, or a Fraction that is not integral
    for coeff in (d.delta, *d.surface.values()):
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1), d


def test_stored_coefficients_are_canonical():
    for coeff in (3, -2, 0, Fraction(6, 2), Fraction(1, 2)):
        _assert_canonical(DivisorClass.delta_class(coeff))
        _assert_canonical(DivisorClass.symbol("e", coeff))
    assert type(DivisorClass.delta_class(Fraction(6, 2)).delta) is int
    assert type(DivisorClass.delta_class(Fraction(1, 2)).delta) is Fraction
    half = DivisorClass({"a": Fraction(1, 2), "b": 3}, Fraction(-1, 2))
    rng = random.Random(413)
    classes = [half, half + half, half - half, half * 2, 2 * half, half * Fraction(2, 3), -half]
    classes += [_random_class(rng) for _ in range(200)]
    for d in list(classes):
        classes += [
            d + d,
            d - half,
            d * Fraction(4),
        ]
    for n in range(1, 5):
        for lam in enumerate_partitions(n):
            spec = BundleSpec.build(lam, [(2, f"e{i}", (part,)) for i, part in enumerate(lam)])
            classes += [c1(spec), b_class(spec)]
    for variant in ("trivial", "sign"):
        classes += generating_polynomial(4, [(1, "a"), (2, "b")], variant).terms.values()
    for d in classes:
        _assert_canonical(d)


def test_fraction_and_int_built_classes_agree():
    rng = random.Random(414)
    for _ in range(200):
        ints = {s: rng.randrange(-9, 10) for s in rng.sample(["e1", "e2", "h"], rng.randrange(4))}
        delta = rng.randrange(-9, 10)
        from_ints = DivisorClass(ints, delta)
        from_fractions = DivisorClass({s: Fraction(c) for s, c in ints.items()}, Fraction(delta))
        assert from_ints == from_fractions
        assert hash(from_ints) == hash(from_fractions)
        assert from_ints.surface == from_fractions.surface
        assert all(type(c) is int for c in from_fractions.surface.values())
        assert type(from_fractions.delta) is int


def test_constructor_drops_zeros():
    d = DivisorClass({"e1": 0, "e2": 3}, 0)
    assert d == DivisorClass({"e2": 3})
    assert d.render_text() == "3*e2"
    assert DivisorClass().is_zero
    assert DivisorClass().render_text() == "0"


def test_symbol_validation():
    with pytest.raises(ValueError):
        DivisorClass({"delta": 1})
    with pytest.raises(ValueError):
        DivisorClass({"1bad": 1})
    with pytest.raises(ValueError):
        DivisorClass({"": 1})
    with pytest.raises(ValueError):
        DivisorClass({"a b": 1})
    assert DivisorClass({"f_0": 1}).render_text() == "1*f_0"


def test_coefficients_are_exact():
    for bad in (0.1, 1.0, True, "1/2"):
        with pytest.raises(ValueError, match="^coefficients must be int or Fraction"):
            DivisorClass({"a": bad})
        with pytest.raises(ValueError, match="^coefficients must be int or Fraction"):
            DivisorClass(delta=bad)
    assert DivisorClass({"a": Fraction(1, 2)}, 3).render_text() == "1/2*a + 3*delta"


def test_arithmetic():
    a = DivisorClass.symbol("e", 2) - DivisorClass.delta_class(1)
    b = DivisorClass.symbol("e", -2) + DivisorClass.delta_class(1)
    assert (a + b).is_zero
    assert a == -b
    assert 3 * a == a * 3 == DivisorClass({"e": 6}, -3)
    assert hash(a) == hash(DivisorClass({"e": 2}, -1))
    assert a - a == DivisorClass.zero()


def test_arithmetic_results_are_normalised():
    a = DivisorClass({"e2": 1, "e1": Fraction(1, 2)}, 1)
    b = DivisorClass({"e2": -1, "f": 3})
    total = a + b
    assert total == DivisorClass({"e1": Fraction(1, 2), "f": 3}, 1)
    assert list(total.surface) == ["e1", "f"]
    assert list((b + a).surface) == ["e1", "f"]
    assert type(total.surface["e1"]) is Fraction and type(total.surface["f"]) is int
    assert type(total.delta) is int
    assert type((a + a).surface["e1"]) is int  # 1/2 + 1/2 is stored as 1
    scaled = a * 0
    assert scaled.is_zero and scaled.surface == {} and type(scaled.delta) is int
    assert hash(2 * a) == hash(DivisorClass({"e1": 1, "e2": 2}, 2))


def test_render_frozen():
    assert DivisorClass({"e1": 4, "e2": 4}, -5).render_text() == "4*e1 + 4*e2 - 5*delta"
    assert DivisorClass({"e": 1}, -2).render_text() == "1*e - 2*delta"
    assert DivisorClass({"a": -3, "b": 2}).render_text() == "-3*a + 2*b"
    assert DivisorClass({"e": Fraction(3, 2)}).render_text() == "3/2*e"
    assert DivisorClass(delta=1).render_text() == "1*delta"
    # surface symbols sorted, delta always last
    assert DivisorClass({"z": 1, "a": 1}, 7).render_text() == "1*a + 1*z + 7*delta"


def test_json_output():
    d = DivisorClass({"e1": 4, "e2": Fraction(1, 3)}, -5)
    assert d.to_json_dict() == {"surface": {"e1": 4, "e2": "1/3"}, "delta": -5}


def test_integrality():
    assert DivisorClass({"e": 2}, -1).is_integral
    half = DivisorClass({"e": Fraction(1, 2)})
    assert not half.is_integral
    half.require_integral  # attribute exists
    with pytest.raises(IntegralityError):
        half.require_integral("test context")
    DivisorClass({"e": 2}).require_integral("test context")


def test_class_polynomial():
    e1 = DivisorClass.symbol("e1")
    e2 = DivisorClass.symbol("e2")
    p = ClassPolynomial(2, {(1, 0): 2 * e1, (0, 1): e2, (2, 0): DivisorClass.zero()})
    assert set(p.terms) == {(1, 0), (0, 1)}  # zero coefficients are dropped
    assert p.coefficient_of((1, 0)) == 2 * e1
    assert p.coefficient_of([0, 1]) == e2
    assert p.coefficient_of((2, 0)) == DivisorClass.zero()
    assert sum(p.terms.values(), DivisorClass.zero()) == 2 * e1 + e2
    assert p == ClassPolynomial(2, {(0, 1): e2, (1, 0): 2 * e1})
    assert p != ClassPolynomial(2, {(1, 0): e1})
    assert ClassPolynomial(2).terms == {}

    with pytest.raises(ShapeMismatchError):
        p.coefficient_of((1, 0, 0))
    with pytest.raises(ShapeMismatchError):
        ClassPolynomial(3, {(1, 0): e1})
    with pytest.raises(ValueError):
        p.coefficient_of((-1, 2))
    with pytest.raises(ValueError):
        ClassPolynomial(1, {(1,): 3})

    # exponents and arity are ints, never coerced: (1.9, 0.2) is not (1, 0)
    g = generating_polynomial(2, [(1, "a"), (2, "b")])
    assert not g.coefficient_of((1, 1)).is_zero
    for expts in ((1.9, 0.2), ("1", "1"), (True, True), (1, 1.0)):
        with pytest.raises(ValueError, match="exponents must be integers"):
            g.coefficient_of(expts)
        with pytest.raises(ValueError, match="exponents must be integers"):
            ClassPolynomial(2, {expts: e1})
    for nvars in (2.7, True, "2"):
        with pytest.raises(ValueError, match="nvars must be an integer"):
            ClassPolynomial(nvars, {})


def test_class_polynomial_render():
    e = DivisorClass.symbol("e")
    p = ClassPolynomial(1, {(2,): 2 * e - DivisorClass.delta_class(1)})
    assert p.render_text() == "t1^2: 2*e - 1*delta"
    two = ClassPolynomial(2, {(1, 1): e, (2, 0): e})
    lines = two.render_text().splitlines()
    assert lines == ["t1^2: 1*e", "t1*t2: 1*e"]
    assert ClassPolynomial(2).render_text() == "0"
