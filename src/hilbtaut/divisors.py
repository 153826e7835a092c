"""Exact divisor-class bookkeeping and a sparse polynomial over it.

A DivisorClass is a rational combination of named surface classes plus a
multiple of the exceptional half-diagonal class `delta`.  A ClassPolynomial
maps exponent tuples to DivisorClass coefficients; it is built whole (the
generating polynomial computes each coefficient in closed form) and then
only read.  All arithmetic is exact: a coefficient is stored as an int
when it is integral and as a Fraction only when its denominator exceeds 1,
so every value has one stored form.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .errors import IntegralityError, ShapeMismatchError
from .partitions import _all_of, _is_int

_SYMBOL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

Rational = int | Fraction


def _frac_to_json(value: Rational) -> int | str:
    return int(value) if value.denominator == 1 else str(value)


def _canonical(value: Rational) -> Rational:
    # the stored form: an int when integral, else the Fraction itself
    return value.numerator if value.denominator == 1 else value


def _check_symbol(name: str) -> None:
    if not isinstance(name, str) or not _SYMBOL_RE.match(name) or name == "delta":
        raise ValueError(f"invalid surface symbol {name!r}")


def _as_rational(value) -> Rational:
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"coefficients must be int or Fraction, got {value!r}")
    return int(value) if isinstance(value, int) else _canonical(Fraction(value))


def _frac_from_json(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected integer or 'p/q' string, got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


class DivisorClass:
    """Formal class sum(coeff_s * s for surface symbols s) + coeff * delta.

    Immutable by convention: do not mutate `surface` after construction;
    every constructor leaves it sorted by symbol.
    Symbol names must be identifiers and must not be named 'delta'.
    """

    __slots__ = ("surface", "delta")

    def __init__(self, surface: Mapping[str, Rational] | None = None, delta: Rational = 0):
        if not isinstance(surface, (Mapping, type(None))):
            raise ValueError(f"surface must be a mapping, got {surface!r}")
        for name in surface or {}:  # before sorting, which needs comparable names
            _check_symbol(name)
        clean: dict[str, Rational] = {}
        for name, coeff in sorted((surface or {}).items()):
            coeff = _as_rational(coeff)
            if coeff:
                clean[name] = coeff
        self.surface = clean
        self.delta = _as_rational(delta)

    @classmethod
    def _trusted(cls, surface: Mapping[str, Rational], delta: Rational) -> DivisorClass:
        # Results of arithmetic on valid classes: the symbols were checked
        # and the coefficients made exact when the operands were built.
        obj = cls.__new__(cls)
        obj.surface = {
            name: _canonical(coeff) for name, coeff in sorted(surface.items()) if coeff
        }
        obj.delta = _canonical(delta)
        return obj

    @classmethod
    def _surface_of(cls, surface: dict[str, int]) -> DivisorClass:
        # A class with no delta part, from checked symbols and non-zero int
        # coefficients (the stored form already), in a dict the caller hands
        # over: only the sort is left, and only when the symbols are out of
        # order.
        obj = cls.__new__(cls)
        names = list(surface)
        obj.surface = surface if names == sorted(names) else dict(sorted(surface.items()))
        obj.delta = 0
        return obj

    def _minus_delta(self, coeff: Rational) -> DivisorClass:
        # self - coeff * delta: the surface is already checked, sorted and
        # canonical, so only the new delta is validated and made canonical
        obj = DivisorClass.__new__(DivisorClass)
        obj.surface = dict(self.surface)
        obj.delta = _canonical(self.delta - _as_rational(coeff))
        return obj

    @classmethod
    def zero(cls) -> DivisorClass:
        return cls()

    @classmethod
    def symbol(cls, name: str, coeff: Rational = 1) -> DivisorClass:
        return cls({name: coeff})

    @classmethod
    def delta_class(cls, coeff: Rational = 1) -> DivisorClass:
        return cls(delta=coeff)

    def __add__(self, other: DivisorClass) -> DivisorClass:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        merged = dict(self.surface)
        for name, coeff in other.surface.items():
            merged[name] = merged.get(name, 0) + coeff
        return DivisorClass._trusted(merged, self.delta + other.delta)

    def __sub__(self, other: DivisorClass) -> DivisorClass:
        return self + (-other)

    def __neg__(self) -> DivisorClass:
        return self * -1

    def __mul__(self, scalar: Rational) -> DivisorClass:
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return DivisorClass._trusted(
            {name: coeff * scalar for name, coeff in self.surface.items()},
            self.delta * scalar,
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.surface == other.surface and self.delta == other.delta

    def __hash__(self) -> int:
        return hash((tuple(self.surface.items()), self.delta))

    def __repr__(self) -> str:
        return f"DivisorClass({self.render_text()!r})"

    @property
    def is_zero(self) -> bool:
        return not self.surface and not self.delta

    @property
    def is_integral(self) -> bool:
        # in the stored form only a non-integral coefficient is a Fraction
        if type(self.delta) is Fraction:
            return False
        return Fraction not in map(type, self.surface.values())

    def require_integral(self, context: str = "divisor class") -> DivisorClass:
        if not self.is_integral:
            raise IntegralityError(f"{context} has non-integer coefficients: {self.render_text()}")
        return self

    def render_text(self) -> str:
        """Deterministic text form, e.g. '4*e1 + 4*e2 - 5*delta'."""
        items = list(self.surface.items())
        if self.delta:
            items.append(("delta", self.delta))
        if not items:
            return "0"
        pieces = [f"{items[0][1]}*{items[0][0]}"]
        for name, coeff in items[1:]:
            sign, mag = ("-", -coeff) if coeff < 0 else ("+", coeff)
            pieces.append(f"{sign} {mag}*{name}")
        return " ".join(pieces)

    def to_json_dict(self) -> dict:
        return {
            "surface": {name: _frac_to_json(c) for name, c in self.surface.items()},
            "delta": _frac_to_json(self.delta),
        }


def _check_exponents(nvars: int, expts: Sequence[int]) -> tuple[int, ...]:
    if not _all_of(expts, _is_int):
        raise ValueError(f"exponents must be integers, got {expts!r}")
    t = tuple(expts)
    if len(t) != nvars:
        raise ShapeMismatchError(f"exponent tuple {t} does not have arity {nvars}")
    if any(e < 0 for e in t):
        raise ValueError(f"negative exponent in {t}")
    return t


class ClassPolynomial:
    """Sparse polynomial whose coefficients are DivisorClass values."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Sequence[int], DivisorClass] | None = None):
        if not _is_int(nvars):
            raise ValueError(f"nvars must be an integer, got {nvars!r}")
        if not isinstance(terms, (Mapping, type(None))):
            raise ValueError(f"terms must be a mapping, got {terms!r}")
        self.nvars = nvars
        clean: dict[tuple[int, ...], DivisorClass] = {}
        for expts, cls_val in (terms or {}).items():
            if not isinstance(cls_val, DivisorClass):
                raise ValueError(f"coefficient of {tuple(expts)} is not a DivisorClass")
            if not cls_val.is_zero:
                clean[_check_exponents(self.nvars, expts)] = cls_val
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: Mapping[tuple[int, ...], DivisorClass]) -> ClassPolynomial:
        # Terms built from checked inputs: exponent tuples of arity nvars and
        # DivisorClass values; only the zero coefficients are dropped.
        obj = cls.__new__(cls)
        obj.nvars = nvars
        obj.terms = {expts: val for expts, val in terms.items() if not val.is_zero}
        return obj

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self) -> str:
        return f"ClassPolynomial({self.nvars}, {len(self.terms)} terms)"

    def coefficient_of(self, expts: Sequence[int]) -> DivisorClass:
        return self.terms.get(_check_exponents(self.nvars, expts), DivisorClass.zero())

    def render_text(self) -> str:
        """One line per monomial, highest exponent tuple first."""
        if not self.terms:
            return "0"
        lines = []
        for expts in sorted(self.terms, reverse=True):
            mono = "*".join(
                f"t{i + 1}^{e}" if e > 1 else f"t{i + 1}"
                for i, e in enumerate(expts)
                if e
            ) or "1"
            lines.append(f"{mono}: {self.terms[expts].render_text()}")
        return "\n".join(lines)
