"""Rank and first Chern class of induced bundles on Hilbert schemes.

A bundle spec fixes a composition lambda = (lambda_1, ..., lambda_k) of n,
one input bundle per block (rank and a first-Chern symbol on the surface)
and one irreducible representation of the symmetric group of each block
size.  The induced object on the Hilbert scheme of n points has an integer
rank and a first Chern class of the form B - R*delta; both are computed by
closed formulas, with no coset enumerated.  The oracles that recount them
coset by coset (the swap trace) live in verify.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import combinations
from math import comb, factorial, prod
from typing import Iterator, Sequence

from .divisors import (
    ClassPolynomial,
    DivisorClass,
    _check_exponents,
    _check_symbol,
)
from .errors import IntegralityError, SizeLimitError
from .partitions import (
    LabeledComposition,
    YoungDiagram,
    _all_of,
    _is_int,
    content_sum,
    dimension,
    index_p,
    multinomial_index,
)

_ZERO_SYMBOLS = ("", "0")

# Largest full generating-polynomial expansion, in monomials.
MAX_MONOMIALS = 25_000


def _symbol_class(symbol: str) -> DivisorClass:
    if symbol in _ZERO_SYMBOLS:
        return DivisorClass.zero()
    return DivisorClass.symbol(symbol)


def _check_c1_symbol(symbol: str) -> None:
    if symbol not in _ZERO_SYMBOLS:
        _check_symbol(symbol)


def _check_rank(rank: int) -> None:
    if not _is_int(rank) or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")


def _tuples_of(k: int):
    return lambda item: isinstance(item, (tuple, list)) and len(item) == k


@dataclass(frozen=True)
class BundleBlock:
    """One input bundle with the representation attached to its block.

    `rep_dim` and `rep_content`, the dimension and the content sum of `rep`,
    are computed at construction; they are not fields, so equality, hashing
    and repr ignore them.
    """

    rank: int
    c1_symbol: str
    rep: YoungDiagram

    def __post_init__(self):
        _check_rank(self.rank)
        object.__setattr__(self, "rep", YoungDiagram(self.rep))
        _check_c1_symbol(self.c1_symbol)
        object.__setattr__(self, "rep_dim", dimension(self.rep))
        object.__setattr__(self, "rep_content", content_sum(self.rep))

    @property
    def c1_class(self) -> DivisorClass:
        return _symbol_class(self.c1_symbol)


@dataclass(frozen=True)
class BundleSpec:
    """Composition of n together with one BundleBlock per part.

    Computed at construction and not fields (equality, hashing and repr
    ignore them): `s`, the product of rank_i ** lambda_i (the fibre
    dimension of one summand), and `w`, the product of the representation
    dimensions.
    """

    lam: LabeledComposition
    blocks: tuple[BundleBlock, ...]

    def __post_init__(self):
        object.__setattr__(self, "lam", LabeledComposition(self.lam))
        if not isinstance(self.blocks, (tuple, list)):
            raise ValueError(f"blocks must be a list or tuple, got {self.blocks!r}")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(self.blocks) != self.lam.k:
            raise ValueError(
                f"{len(self.blocks)} blocks for a composition with {self.lam.k} parts"
            )
        for idx, (size, blk) in enumerate(zip(self.lam, self.blocks), start=1):
            if not isinstance(blk, BundleBlock):
                raise ValueError(f"block {idx}: {blk!r} is not a BundleBlock")
            if blk.rep.n != size:
                raise ValueError(
                    f"block {idx}: rep {tuple(blk.rep)} is not a partition of {size}"
                )
        object.__setattr__(
            self, "s", prod(blk.rank**size for size, blk in zip(self.lam, self.blocks))
        )
        object.__setattr__(self, "w", prod(blk.rep_dim for blk in self.blocks))

    @classmethod
    def build(
        cls, sizes: Sequence[int], blocks: Sequence[tuple[int, str, Sequence[int]]]
    ) -> BundleSpec:
        if not _all_of(blocks, _tuples_of(3)):
            raise ValueError(f"blocks must be a list or tuple of triples, got {blocks!r}")
        return cls(
            LabeledComposition(sizes),
            tuple(BundleBlock(rank, symbol, YoungDiagram(rep)) for rank, symbol, rep in blocks),
        )

    @property
    def n(self) -> int:
        return self.lam.n

    @property
    def k(self) -> int:
        return self.lam.k


def _once_per_spec(fn):
    # Keep fn(spec) in the spec's own __dict__: c1 and the oracle sweep ask
    # again for what rank_G, r_number and b_class already computed.  Not a
    # field, so equality, hashing and repr ignore it.
    key = f"_{fn.__name__}"

    @wraps(fn)
    def memoised(spec: BundleSpec):
        if not isinstance(spec, BundleSpec):
            raise ValueError(f"expected a BundleSpec, got {spec!r}")
        memo = spec.__dict__
        if key not in memo:
            memo[key] = fn(spec)
        return memo[key]

    return memoised


@_once_per_spec
def rank_G(spec: BundleSpec) -> int:
    """Rank of the induced bundle: (number of cosets) * s * w."""
    return index_p(spec.lam) * spec.s * spec.w


@_once_per_spec
def b_class(spec: BundleSpec) -> DivisorClass:
    """The surface part of the first Chern class (no delta component).

    Block i contributes (R / r_i) * lambda_i / n times its class, with R =
    rank_G(spec): lambda_i / n of the cosets give position 1 the label i,
    and r_i divides s, a factor of R, because block i has a position.
    """
    n, rank = spec.n, rank_G(spec)
    surface: dict[str, int] = {}
    for i, (size, blk) in enumerate(zip(spec.lam, spec.blocks), start=1):
        if blk.c1_symbol not in _ZERO_SYMBOLS:
            term = rank // blk.rank * size
            coeff, rem = divmod(term, n)
            if rem:
                raise IntegralityError(f"b_class: block {i} term {term}/{n} is not an integer")
            surface[blk.c1_symbol] = surface.get(blk.c1_symbol, 0) + coeff
    # the symbols were checked when the blocks were built
    return DivisorClass._trusted(surface, 0)


@_once_per_spec
def r_number(spec: BundleSpec) -> int:
    """Coefficient of -delta in the first Chern class, by the closed formula.

    With R = rank_G(spec) and content(d) the content sum of a diagram,
    r_number = (R * C(n, 2) - sum_i (R / r_i) * content(rep_i)) / (n (n - 1)),
    and 0 when n < 2; R / r_i is exact as in b_class.  It is the sum over
    the labels of positions 1 and 2, collapsed by Frobenius's content
    formula for the character value at a 2-cycle.
    """
    n = spec.n
    if n < 2:
        return 0
    rank = rank_G(spec)
    num = rank * comb(n, 2) - sum(rank // blk.rank * blk.rep_content for blk in spec.blocks)
    total, rem = divmod(num, n * (n - 1))
    if rem:
        raise IntegralityError(f"r_number: {num}/{n * (n - 1)} is not an integer")
    return total


def _minus_delta(b: DivisorClass, coeff: int, context: str) -> DivisorClass:
    # b - coeff * delta, without re-checking b's surface
    return b._minus_delta(coeff).require_integral(context)


def c1(spec: BundleSpec) -> DivisorClass:
    """First Chern class b_class - r_number * delta."""
    return _minus_delta(b_class(spec), r_number(spec), "c1")


def _weak_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    # stars and bars: k - 1 bars among n + k - 1 slots
    for bars in combinations(range(n + k - 1), k - 1):
        edges = (-1, *bars, n + k - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _generating_inputs(n: int, inputs, variant: str) -> tuple[list[tuple[int, str]], int]:
    # the validated inputs, and the sign of sum r_i t_i^2 in the pair rank
    if variant not in ("trivial", "sign"):
        raise ValueError(f"variant must be 'trivial' or 'sign', got {variant!r}")
    if not _is_int(n) or n < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")
    if not _all_of(inputs, _tuples_of(2)):
        raise ValueError(f"inputs must be a list or tuple of pairs, got {inputs!r}")
    inputs = list(inputs)
    if not inputs:
        raise ValueError("at least one input bundle required")
    for rank, symbol in inputs:
        _check_rank(rank)
        _check_c1_symbol(symbol)
    return inputs, 1 if variant == "sign" else -1


def _coefficient(n: int, inputs, expts: tuple[int, ...], sign: int) -> DivisorClass:
    # X = M(n; a) r^a; then M(n-1; a-e_i) r^{a-e_i} = X a_i / (n r_i) and
    # r_i M(n-2; a-2e_i) r^{a-2e_i} = X a_i (a_i-1) / (n (n-1) r_i), exactly
    if sum(expts) != n:
        return DivisorClass.zero()
    x = multinomial_index(expts)
    for (rank, _), e in zip(inputs, expts):
        x *= rank**e
    surface: dict[str, int] = {}
    pairs = 0
    for (rank, symbol), e in zip(inputs, expts):
        if e and symbol not in _ZERO_SYMBOLS:
            surface[symbol] = surface.get(symbol, 0) + x * e // (n * rank)
        pairs += x * e * (e - 1) // (n * (n - 1) * rank)
    # the symbols were checked by _generating_inputs
    return DivisorClass._trusted(surface, Fraction(-(x + sign * pairs), 2))


def _check_monomial_count(n: int, k: int) -> None:
    # a full expansion of degree n in k variables has comb(n + k - 1, k - 1)
    # monomials; past MAX_MONOMIALS it is refused before any work
    count = comb(n + k - 1, k - 1)
    if count > MAX_MONOMIALS:
        raise SizeLimitError(f"{count} monomials exceed the bound {MAX_MONOMIALS}")


def generating_polynomial(
    n: int, inputs: Sequence[tuple[int, str]], variant: str = "trivial"
) -> ClassPolynomial:
    """Chern generating polynomial in one variable per input bundle.

    The coefficient of t_1^{a_1} * ... * t_k^{a_k} with sum a_i = n is the
    first Chern class of the spec whose blocks are the inputs with sizes a_i
    and all-trivial (variant 'trivial') or all-sign (variant 'sign')
    representations.  The delta correction is the rank of the second
    exterior (resp. symmetric) power of the weighted sum of the inputs; the
    plain binomial in the weighted total rank only agrees with it after
    setting every t_i = 1.

    Each coefficient is computed in closed form: with M(m; b) the
    multinomial coefficient (0 if some b_i < 0) and r^b = prod r_i^{b_i},
    coef(a) = sum_i M(n-1; a-e_i) r^{a-e_i} c_i - (M(n; a) r^a
    -+ sum_i r_i M(n-2; a-2e_i) r^{a-2e_i}) / 2 * delta, - for 'trivial'.
    More than MAX_MONOMIALS monomials raise SizeLimitError.
    """
    inputs, sign = _generating_inputs(n, inputs, variant)
    k = len(inputs)
    _check_monomial_count(n, k)
    return ClassPolynomial(
        k, {a: _coefficient(n, inputs, a, sign) for a in _weak_compositions(n, k)}
    )


def _generating_coefficient(n: int, inputs, expts, variant: str = "trivial") -> DivisorClass:
    # generating_polynomial(...).coefficient_of(expts) without the expansion
    inputs, sign = _generating_inputs(n, inputs, variant)
    return _coefficient(n, inputs, _check_exponents(len(inputs), expts), sign)


def regular_checksum(n: int, rank: int, symbol: str) -> DivisorClass:
    """Closed-form total Chern class over all representations of one block.

    Equals n! * rank^(n-1) * c1 - (n!/2) * rank^n * delta, which the
    dimension-weighted sum of c1 over all irreducibles must reproduce.
    """
    if not _is_int(n) or n < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")
    _check_rank(rank)
    base = _symbol_class(symbol) * (factorial(n) * rank ** (n - 1))
    delta_part = DivisorClass.delta_class(-(factorial(n) // 2) * rank**n)
    return (base + delta_part).require_integral("regular_checksum")
