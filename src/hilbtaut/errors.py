"""Exception types shared across the package.

Validation-style errors subclass ValueError so callers can catch broadly;
IntegralityError signals an internal consistency failure (a quantity that
is an integer by theorem came out fractional) and is deliberately not a
ValueError, since it indicates a bug rather than bad input.
"""

from __future__ import annotations

from collections.abc import Sized

# The longest repr an error message echoes.
_BRIEF_MAX = 60


def _brief(value) -> str:
    """The value's repr when it is short, else its type and its size, so an
    error line stays short whatever the input.  An int's size is counted in
    bits, as str() of an int past 4,300 digits raises; one of at most
    3 * _BRIEF_MAX bits has fewer than _BRIEF_MAX digits."""
    if isinstance(value, int) and value.bit_length() > 3 * _BRIEF_MAX:
        return f"<int of {value.bit_length()} bits>"
    text = repr(value)
    if len(text) <= _BRIEF_MAX:
        return text
    size = f" of length {len(value)}" if isinstance(value, Sized) else ""
    return f"<{type(value).__name__}{size}>"


class SizeLimitError(ValueError):
    """An enumeration would exceed its configured bound."""


class ShapeMismatchError(ValueError):
    """Operands with incompatible shapes (degrees, arities, matrix sizes)."""


class SpecValidationError(ValueError):
    """A user-supplied spec or table document failed validation."""


class IntegralityError(ArithmeticError):
    """A provably integral quantity evaluated to a non-integer."""

