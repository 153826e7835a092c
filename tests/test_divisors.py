"""Divisor class arithmetic, text and JSON formats, and the library's
refusal of wrong argument types."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import permutations

import pytest

from hilbtaut import cli, moduli, partitions, specs, verify
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
from hilbtaut.divisors import DivisorClass
from hilbtaut.errors import SizeLimitError
from hilbtaut.partitions import LabeledComposition, Partition, enumerate_partitions, index_p
from hilbtaut.verify import verify_all


def _random_class(rng: random.Random) -> DivisorClass:
    symbols = rng.sample(["e1", "e2", "h", "f_0", "Zq"], rng.randrange(4))
    surface = {s: rng.randrange(-9, 10) for s in symbols}
    return DivisorClass(surface, rng.randrange(-9, 10))


@pytest.mark.parametrize("coeff", [1.5, True, "1"])
def test_delta_class_still_validates(coeff):
    with pytest.raises(ValueError):
        DivisorClass(delta=coeff)


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
        lambda: specs.parse_spec(5),
        lambda: cli.dispatch(5),
        lambda: moduli.check_conditions(5),
        lambda: moduli.stability_certificate((1, 1), 5),
        lambda: rank_G(5),
        lambda: b_class(5),
        lambda: r_number(5),
        lambda: c1(5),
        lambda: moduli.equivariant_end_dims(5, ONE_BLOCK_TABLE),
        lambda: partitions.iter_cosets(5),
        lambda: CharacterTable(5, 5, 5),
        lambda: verify.c1_via_blowup(5, 5),
        lambda: verify.inner_product(5, 5, 5),
        lambda: verify.invariant_restriction_rank(5),
        lambda: verify.brute_force_character_table("3"),
        lambda: verify.brute_force_character_table([]),
    ],
    ids=[
        "class-int", "partitions-float", "table-str", "table-float",
        "table-list", "table-dict", "transposition-str", "checksum-float", "generating-float",
        "generating-input", "verify-float", "verify-str", "spec-int", "spec-block",
        "build-block", "spec-document-int", "dispatch-int",
        "conditions-int", "stability-table-int", "rank-int",
        "b-class-int", "r-number-int", "c1-int", "end-dims-spec-int",
        "labels-int", "table-ints", "blowup-int", "inner-product-int", "swap-trace-int",
        "brute-table-str", "brute-table-list",
    ],
)
def test_library_entry_points_reject_wrong_types_with_value_error(call):
    with pytest.raises(ValueError):
        call()


def _assert_canonical(d: DivisorClass) -> None:
    # one stored value per class: a plain int, never zero on a symbol, in
    # any order; the same terms in the reverse order are the same class
    for coeff in (d.delta, *d.surface.values()):
        assert type(coeff) is int, d
    assert 0 not in d.surface.values(), d
    _assert_same_class(d, DivisorClass(dict(reversed(d.surface.items())), d.delta))


def _assert_same_class(a: DivisorClass, b: DivisorClass) -> None:
    # equal, with equal hashes and the same text and JSON, byte for byte
    assert a == b and hash(a) == hash(b), (a, b)
    assert a.render_text() == b.render_text()
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_stored_coefficients_are_canonical():
    for coeff in (3, -2, 0):
        _assert_canonical(DivisorClass(delta=coeff))
        _assert_canonical(DivisorClass({"e": coeff}))
    mixed = DivisorClass({"b": 3, "a": -1}, -1)
    rng = random.Random(413)
    classes = [mixed, mixed + mixed, mixed - mixed, mixed * 2, 2 * mixed, mixed * 0, -mixed]
    classes += [_random_class(rng) for _ in range(200)]
    for d in list(classes):
        classes += [
            d + d,
            d - mixed,
            d * -4,
        ]
    for n in range(1, 5):
        for lam in enumerate_partitions(n):
            spec = BundleSpec.build(lam, [(2, f"e{i}", (part,)) for i, part in enumerate(lam)])
            classes += [c1(spec), b_class(spec)]
    for variant in ("trivial", "sign"):
        classes += generating_polynomial(4, [(1, "a"), (2, "b")], variant).values()
    for d in classes:
        _assert_canonical(d)


@pytest.mark.parametrize(
    "coeff, kind",
    [(Fraction(1, 2), "Fraction"), (Fraction(6, 2), "Fraction"), (1.5, "float"), (True, "bool"),
     ("1", "str")],
)
def test_non_int_coefficients_raise_value_error(coeff, kind):
    # a class has integer coefficients: an integral Fraction is refused too
    message = f"^coefficients must be integers, got {kind}$"
    for build in (
        lambda: DivisorClass({"a": coeff}),
        lambda: DivisorClass(delta=coeff),
    ):
        with pytest.raises(ValueError, match=message):
            build()


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
    # the whole string is the identifier: no trailing newline, no non-ASCII
    for bad in ("e\n", "a\n", "e\r\n", "\u00e9", "e\u00e9"):
        with pytest.raises(ValueError, match="^invalid surface symbol "):
            DivisorClass({bad: 1})
    assert DivisorClass({"f_0": 1}).render_text() == "1*f_0"


def test_coefficients_are_exact():
    for bad in (0.1, 1.0, True, "1/2"):
        with pytest.raises(ValueError, match="^coefficients must be integers, got "):
            DivisorClass({"a": bad})
        with pytest.raises(ValueError, match="^coefficients must be integers, got "):
            DivisorClass(delta=bad)
    # scalars are ints too: any other operand has no product with a class
    d = DivisorClass({"a": 1}, 3)
    for bad in (Fraction(2), 2.0, True):
        with pytest.raises(TypeError):
            d * bad
        with pytest.raises(TypeError):
            bad * d
    assert d.render_text() == "1*a + 3*delta"


def test_arithmetic():
    a = DivisorClass({"e": 2}) - DivisorClass(delta=1)
    b = DivisorClass({"e": -2}) + DivisorClass(delta=1)
    assert (a + b).is_zero
    assert a == -b
    assert 3 * a == a * 3 == DivisorClass({"e": 6}, -3)
    assert hash(a) == hash(DivisorClass({"e": 2}, -1))
    assert a - a == DivisorClass.zero()


def test_arithmetic_results_are_normalised():
    a = DivisorClass({"e2": 1, "e1": 1}, 1)
    b = DivisorClass({"e2": -1, "f": 3})
    total = a + b
    assert total == DivisorClass({"e1": 1, "f": 3}, 1)
    # the stored order follows the operands; the value does not
    assert total.surface == {"e1": 1, "f": 3} and list((b + a).surface) == ["f", "e1"]
    _assert_same_class(total, b + a)
    assert total.render_text() == "1*e1 + 3*f + 1*delta"
    assert type(total.surface["e1"]) is int and type(total.surface["f"]) is int
    assert type(total.delta) is int
    assert (a - a).surface == {}  # the cancelled symbols are dropped
    scaled = a * 0
    assert scaled.is_zero and scaled.surface == {} and type(scaled.delta) is int
    assert hash(2 * a) == hash(DivisorClass({"e1": 2, "e2": 2}, 2))


def test_insertion_order_is_not_part_of_the_value():
    # every order of the same terms, through each constructor and the sum of
    # one-term classes, gives one class: the output methods sort the symbols
    terms = [("e2", 3), ("Zq", -1), ("f_0", 2), ("e1", 5)]
    first = DivisorClass(dict(terms), -4)
    assert first.render_text() == "-1*Zq + 5*e1 + 3*e2 + 2*f_0 - 4*delta"
    assert list(first.to_json_dict()["surface"]) == ["Zq", "e1", "e2", "f_0"]
    for order in permutations(terms):
        built = [
            DivisorClass(dict(order), -4),
            DivisorClass._trusted(dict(order), -4),
            DivisorClass._trusted({**dict(order), "h": 0}, -4),
            sum((DivisorClass({name: coeff}) for name, coeff in order), DivisorClass(delta=-4)),
        ]
        for d in built:
            _assert_same_class(first, d)


def test_render_frozen():
    assert DivisorClass({"e1": 4, "e2": 4}, -5).render_text() == "4*e1 + 4*e2 - 5*delta"
    assert DivisorClass({"e": 1}, -2).render_text() == "1*e - 2*delta"
    assert DivisorClass({"a": -3, "b": 2}).render_text() == "-3*a + 2*b"
    assert DivisorClass(delta=1).render_text() == "1*delta"
    # surface symbols sorted, delta always last
    assert DivisorClass({"z": 1, "a": 1}, 7).render_text() == "1*a + 1*z + 7*delta"


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("where", ["surface", "delta"])
def test_both_forms_stop_at_the_digit_cap(sign, where):
    # a coefficient of 4,000 digits is rendered, one of 4,001 refused, on
    # either side of zero; the class itself holds any int
    refused = "^an integer of the answer exceeds the digit bound 4000$"
    for coeff, ok in ((sign * (10**4000 - 1), True), (sign * 10**4000, False)):
        d = DivisorClass({"e": coeff}) if where == "surface" else DivisorClass(delta=coeff)
        for render in (d.render_text, d.to_json_dict):
            if ok:
                render()
            else:
                with pytest.raises(SizeLimitError, match=refused):
                    render()


def test_json_output():
    d = DivisorClass({"e1": 4, "e2": -1}, -5)
    out = d.to_json_dict()
    assert out == {"surface": {"e1": 4, "e2": -1}, "delta": -5}
    out["surface"]["e1"] = 0  # a copy: the class is unchanged
    assert d.surface == {"e1": 4, "e2": -1}
