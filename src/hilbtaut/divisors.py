"""Exact divisor-class bookkeeping.

A DivisorClass is an integer combination of named surface classes plus a
multiple of the exceptional half-diagonal class `delta`: every first Chern
class lies in that lattice (Fogarty), and each closed form raises
IntegralityError where a division would leave a remainder.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import _brief, _check_digits
from .partitions import _is_int


# The first-Chern symbols of a block that name the zero class: such a block
# adds nothing to the surface part.
_ZERO_SYMBOLS = ("", "0")


def _check_symbol(name: str) -> None:
    # an ASCII identifier, [A-Za-z_][A-Za-z0-9_]*, and nothing after it
    if not (isinstance(name, str) and name.isascii() and name.isidentifier()) or name == "delta":
        raise ValueError(f"invalid surface symbol {_brief(name)}")


def _as_int(value) -> int:
    if not _is_int(value):
        raise ValueError(f"coefficients must be integers, got {type(value).__name__}")
    return int(value)


class DivisorClass:
    """Formal class sum(coeff_s * s for surface symbols s) + coeff * delta.

    Immutable by convention: do not mutate `surface` after construction.
    `surface` holds no zero coefficient and has no order: equality and
    hashing ignore it, and the text and JSON forms list the symbols sorted.
    Symbol names must be identifiers and must not be named 'delta'.  Both
    forms refuse a coefficient past errors.MAX_DIGITS digits with
    SizeLimitError.
    """

    __slots__ = ("surface", "delta")

    def __init__(self, surface: Mapping[str, int] | None = None, delta: int = 0):
        if not isinstance(surface, (Mapping, type(None))):
            raise ValueError(f"surface must be a mapping, got {_brief(surface)}")
        surface = surface or {}
        for name in surface:  # every symbol before any coefficient
            _check_symbol(name)
        clean: dict[str, int] = {}
        for name, coeff in surface.items():
            coeff = _as_int(coeff)
            if coeff:
                clean[name] = coeff
        self.surface = clean
        self.delta = _as_int(delta)

    @classmethod
    def _trusted(cls, surface: dict[str, int], delta: int = 0) -> DivisorClass:
        # A class from checked symbols and int coefficients, in a dict the
        # caller hands over and no one mutates: only the zeros are dropped,
        # so the surface of another class is shared, not copied.
        obj = cls.__new__(cls)
        obj.surface = {n: c for n, c in surface.items() if c} if 0 in surface.values() else surface
        obj.delta = delta
        return obj

    @classmethod
    def zero(cls) -> DivisorClass:
        return cls()

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

    def __mul__(self, scalar: int) -> DivisorClass:
        if not _is_int(scalar):
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
        return hash((frozenset(self.surface.items()), self.delta))

    def __repr__(self) -> str:
        return f"DivisorClass({self.render_text()!r})"

    @property
    def is_zero(self) -> bool:
        return not self.surface and not self.delta

    def render_text(self) -> str:
        """Deterministic text form, e.g. '4*e1 + 4*e2 - 5*delta': the
        symbols sorted, delta last."""
        _check_digits(self.delta, *self.surface.values())
        items = sorted(self.surface.items())
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
        _check_digits(self.delta, *self.surface.values())
        return {"surface": dict(sorted(self.surface.items())), "delta": self.delta}
