"""Exception types and command exit codes shared across the package.

Validation-style errors subclass ValueError so callers can catch broadly;
IntegralityError signals an internal consistency failure (a quantity that
is an integer by theorem came out fractional) and is deliberately not a
ValueError, since it indicates a bug rather than bad input.  The exit codes
and the JSON printer serve every command, whichever module defines it.
"""

from __future__ import annotations

from collections.abc import Sized

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 64
# 128 + SIGPIPE, the status a shell reports for a writer its reader left
EXIT_BROKEN_PIPE = 141

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


def _print_json(payload: dict) -> None:
    # json is imported where it is printed: a plain verify never loads it
    import json

    print(json.dumps(payload, sort_keys=True, indent=2))


class SizeLimitError(ValueError):
    """An enumeration would exceed its configured bound."""


class ShapeMismatchError(ValueError):
    """Operands with incompatible shapes (degrees, arities, matrix sizes)."""


class SpecValidationError(ValueError):
    """A user-supplied spec or table document failed validation."""


class IntegralityError(ArithmeticError):
    """A provably integral quantity evaluated to a non-integer."""

