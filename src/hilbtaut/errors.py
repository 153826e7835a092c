"""Exception types shared across the package.

Validation-style errors subclass ValueError so callers can catch broadly;
IntegralityError signals an internal consistency failure (a quantity that
is an integer by theorem came out fractional) and is deliberately not a
ValueError, since it indicates a bug rather than bad input.
"""

from __future__ import annotations


class SizeLimitError(ValueError):
    """An enumeration would exceed its configured bound."""


class ShapeMismatchError(ValueError):
    """Operands with incompatible shapes (degrees, arities, matrix sizes)."""


class SpecValidationError(ValueError):
    """A user-supplied spec or table document failed validation."""


class IntegralityError(ArithmeticError):
    """A provably integral quantity evaluated to a non-integer."""


class ModuliDimensionMismatchError(ValueError):
    """Image and tangent dimensions disagree, so no single dimension exists."""

    def __init__(self, image_dim: int, tangent_dim: int):
        self.image_dim = image_dim
        self.tangent_dim = tangent_dim
        super().__init__(
            f"image dimension {image_dim} != tangent dimension {tangent_dim}; "
            "the component dimension is not determined"
        )
