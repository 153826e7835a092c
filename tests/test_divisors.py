"""Divisor class arithmetic, text and JSON formats, polynomial carriers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hilbtaut.divisors import (
    ClassPolynomial,
    DivisorClass,
    RationalPolynomial,
    binom_poly,
    poly_mul,
)
from hilbtaut.errors import IntegralityError, ShapeMismatchError


def _random_class(rng: random.Random) -> DivisorClass:
    symbols = rng.sample(["e1", "e2", "h", "f_0", "Zq"], rng.randrange(4))
    surface = {
        s: Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for s in symbols
    }
    delta = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return DivisorClass(surface, delta)


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
    assert all(type(c) is Fraction for c in total.surface.values())
    assert type(total.delta) is Fraction
    scaled = a * 0
    assert scaled.is_zero and scaled.surface == {} and type(scaled.delta) is Fraction
    assert hash(2 * a) == hash(DivisorClass({"e1": 1, "e2": 2}, 2))


def test_render_frozen():
    assert DivisorClass({"e1": 4, "e2": 4}, -5).render_text() == "4*e1 + 4*e2 - 5*delta"
    assert DivisorClass({"e": 1}, -2).render_text() == "1*e - 2*delta"
    assert DivisorClass({"a": -3, "b": 2}).render_text() == "-3*a + 2*b"
    assert DivisorClass({"e": Fraction(3, 2)}).render_text() == "3/2*e"
    assert DivisorClass(delta=1).render_text() == "1*delta"
    # surface symbols sorted, delta always last
    assert DivisorClass({"z": 1, "a": 1}, 7).render_text() == "1*a + 1*z + 7*delta"


def test_parse_roundtrip_random():
    rng = random.Random(411)
    for _ in range(200):
        d = _random_class(rng)
        assert DivisorClass.parse_text(d.render_text()) == d


def test_parse_errors():
    for bad in ["4*e1 +", "e1 4", "4**e1", "2*delta + 1*delta2 junk", "+ +", "4 e1"]:
        with pytest.raises(ValueError):
            DivisorClass.parse_text(bad)


def test_json_roundtrip():
    d = DivisorClass({"e1": 4, "e2": Fraction(1, 3)}, -5)
    blob = d.to_json_dict()
    assert blob["delta"] == -5
    assert blob["surface"]["e2"] == "1/3"
    assert DivisorClass.from_json_dict(blob) == d
    rng = random.Random(412)
    for _ in range(100):
        d = _random_class(rng)
        assert DivisorClass.from_json_dict(d.to_json_dict()) == d
    with pytest.raises(ValueError):
        DivisorClass.from_json_dict({"surface": {"e": "x/y"}, "delta": 0})


def test_integrality():
    assert DivisorClass({"e": 2}, -1).is_integral
    half = DivisorClass({"e": Fraction(1, 2)})
    assert not half.is_integral
    half.require_integral  # attribute exists
    with pytest.raises(IntegralityError):
        half.require_integral("test context")
    DivisorClass({"e": 2}).require_integral("test context")


def _random_poly(rng: random.Random, nvars: int, nterms: int) -> RationalPolynomial:
    terms = {}
    for _ in range(nterms):
        expts = tuple(rng.randrange(3) for _ in range(nvars))
        terms[expts] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return RationalPolynomial(nvars, terms)


def test_polynomial_basics():
    one = RationalPolynomial.constant(1, 2)
    t1 = RationalPolynomial.variable(1, 2)
    t2 = RationalPolynomial.variable(2, 2)
    sq = (t1 + t2) ** 2
    assert sq.coefficient((2, 0)) == 1
    assert sq.coefficient((1, 1)) == 2
    assert sq.coefficient((0, 2)) == 1
    assert sq.coefficient((0, 0)) == 0
    assert (t1**0) == one
    assert sq.at_ones() == 4
    with pytest.raises(IndexError):
        RationalPolynomial.variable(3, 2)


def test_polynomial_ring_axioms():
    rng = random.Random(413)
    for _ in range(50):
        nvars = rng.randrange(1, 4)
        a = _random_poly(rng, nvars, 3)
        b = _random_poly(rng, nvars, 3)
        c = _random_poly(rng, nvars, 2)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b).at_ones() == a.at_ones() + b.at_ones()
        assert (a * b).at_ones() == a.at_ones() * b.at_ones()


def test_polynomial_arity_mismatch():
    a = RationalPolynomial.variable(1, 2)
    b = RationalPolynomial.variable(1, 3)
    with pytest.raises(ShapeMismatchError):
        a * b
    with pytest.raises(ShapeMismatchError):
        a + b


def test_class_polynomial():
    e1 = DivisorClass.symbol("e1")
    e2 = DivisorClass.symbol("e2")
    p = ClassPolynomial(2, {(1, 0): e1, (0, 1): e2})
    q = p + ClassPolynomial(2, {(1, 0): e1})
    assert q.coefficient_of((1, 0)) == 2 * e1
    assert q.coefficient_of((2, 0)) == DivisorClass.zero()
    assert q.at_ones() == 2 * e1 + e2
    assert p.scale(Fraction(3)).coefficient_of((0, 1)) == 3 * e2

    # rational times class polynomial distributes over monomials
    rt = RationalPolynomial(2, {(1, 0): 2, (0, 1): 1})
    prod = poly_mul(rt, ClassPolynomial(2, {(1, 0): e1}))
    assert prod.coefficient_of((2, 0)) == 2 * e1
    assert prod.coefficient_of((1, 1)) == e1
    assert prod.coefficient_of((0, 2)) == DivisorClass.zero()

    with pytest.raises(ShapeMismatchError):
        poly_mul(RationalPolynomial.variable(1, 3), p)


def test_class_polynomial_render():
    e = DivisorClass.symbol("e")
    p = ClassPolynomial(1, {(2,): 2 * e - DivisorClass.delta_class(1)})
    assert p.render_text() == "t1^2: 2*e - 1*delta"
    two = ClassPolynomial(2, {(1, 1): e, (2, 0): e})
    lines = two.render_text().splitlines()
    assert lines == ["t1^2: 1*e", "t1*t2: 1*e"]


def test_binom_poly():
    t1 = RationalPolynomial.variable(1, 2)
    t2 = RationalPolynomial.variable(2, 2)
    p = t1 + t2
    up = binom_poly(p, 1)  # p*(p+1)/2
    assert up == (p * p + p) * Fraction(1, 2)
    assert up.coefficient((1, 1)) == 1
    assert up.coefficient((1, 0)) == Fraction(1, 2)
    down = binom_poly(p, 0)  # p*(p-1)/2
    assert down == (p * p - p) * Fraction(1, 2)
    with pytest.raises(ValueError):
        binom_poly(p, 2)
