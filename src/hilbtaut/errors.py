"""Exception types and command exit codes shared across the package.

Validation-style errors subclass ValueError so callers can catch broadly;
IntegralityError signals an internal consistency failure (a quantity that
is an integer by theorem came out fractional) and is deliberately not a
ValueError, since it indicates a bug rather than bad input.  The exit codes,
the digit cap and the JSON printer serve every command, whichever module
defines it.
"""

from __future__ import annotations

from collections.abc import Sized

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 64
# 128 + SIGPIPE, the status a shell reports for a writer its reader left
EXIT_BROKEN_PIPE = 141

# The most decimal digits an integer of a command's answer may have: under
# the 4,300 past which Python refuses to convert an int to text.
MAX_DIGITS = 4_000

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


# Checked before an answer is rendered.  Exact, and cheap for the common
# case: an int of at most 3 * MAX_DIGITS bits is below 10**MAX_DIGITS, so
# the power of ten is built only for a longer one.
def _check_digits(*values: int) -> None:
    if any(v.bit_length() > 3 * MAX_DIGITS and abs(v) >= 10**MAX_DIGITS for v in values):
        raise SizeLimitError(f"an integer of the answer exceeds the digit bound {MAX_DIGITS}")


class SizeLimitError(ValueError):
    """An enumeration would exceed its configured bound."""


class ShapeMismatchError(ValueError):
    """Operands with incompatible shapes (degrees, arities, matrix sizes)."""


class SpecValidationError(ValueError):
    """A user-supplied spec or table document failed validation."""


class IntegralityError(ArithmeticError):
    """A provably integral quantity evaluated to a non-integer."""

