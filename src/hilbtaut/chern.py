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
from math import comb, factorial
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
    Partition,
    _all_of,
    _index,
    _is_int,
    _multinomial,
    content_sum,
    dimension,
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

    `size`, `rep_dim` and `rep_content`, the size, the dimension and the
    content sum of `rep`, are computed at construction; they are not fields,
    so equality, hashing and repr ignore them.
    """

    rank: int
    c1_symbol: str
    rep: Partition

    def __post_init__(self):
        _check_rank(self.rank)
        rep = Partition(self.rep)
        _check_c1_symbol(self.c1_symbol)
        # frozen: the validated rep and the invariants go straight into
        # the instance dict
        vars(self).update(
            rep=rep, size=rep.n, rep_dim=dimension(rep), rep_content=content_sum(rep)
        )


def _raise_for_block(lam: LabeledComposition, blocks: tuple) -> None:
    # the first block that is not a BundleBlock of its part's size
    for idx, (size, blk) in enumerate(zip(lam, blocks), start=1):
        if not isinstance(blk, BundleBlock):
            raise ValueError(f"block {idx}: {blk!r} is not a BundleBlock")
        if blk.size != size:
            raise ValueError(f"block {idx}: rep {tuple(blk.rep)} is not a partition of {size}")


@dataclass(frozen=True)
class BundleSpec:
    """Composition of n together with one BundleBlock per part.

    Computed at construction, in one pass over the blocks, and not fields
    (equality, hashing and repr ignore them): `n`, the number of points;
    `s`, the product of rank_i ** lambda_i (the fibre dimension of one
    summand); and `w`, the product of the representation dimensions.
    """

    lam: LabeledComposition
    blocks: tuple[BundleBlock, ...]

    def __post_init__(self):
        lam, blocks = LabeledComposition(self.lam), self.blocks
        if not isinstance(blocks, (tuple, list)):
            raise ValueError(f"blocks must be a list or tuple, got {blocks!r}")
        blocks = tuple(blocks)
        if len(blocks) != len(lam):
            raise ValueError(f"{len(blocks)} blocks for a composition with {lam.k} parts")
        n, s, w = 0, 1, 1
        for size, blk in zip(lam, blocks):
            if not isinstance(blk, BundleBlock) or blk.size != size:
                _raise_for_block(lam, blocks)
            n += size
            s *= blk.rank**size
            w *= blk.rep_dim
        vars(self).update(lam=lam, blocks=blocks, n=n, s=s, w=w)

    @classmethod
    def build(
        cls, sizes: Sequence[int], blocks: Sequence[tuple[int, str, Sequence[int]]]
    ) -> BundleSpec:
        if not _all_of(blocks, _tuples_of(3)):
            raise ValueError(f"blocks must be a list or tuple of triples, got {blocks!r}")
        return cls(
            LabeledComposition(sizes),
            tuple(BundleBlock(rank, symbol, Partition(rep)) for rank, symbol, rep in blocks),
        )

    @property
    def k(self) -> int:
        return self.lam.k


def _not_a_spec(value) -> ValueError:
    return ValueError(f"expected a BundleSpec, got {value!r}")


def _once_per_spec(fn):
    # Keep fn(spec) in the spec's own __dict__: c1 and the oracle sweep ask
    # again for what r_number and b_class already computed.  Not a field, so
    # equality, hashing and repr ignore it.
    key = f"_{fn.__name__}"

    @wraps(fn)
    def memoised(spec: BundleSpec):
        if not isinstance(spec, BundleSpec):
            raise _not_a_spec(spec)
        memo = spec.__dict__
        if key not in memo:
            memo[key] = fn(spec)
        return memo[key]

    return memoised


def rank_G(spec: BundleSpec) -> int:
    """Rank of the induced bundle: (number of cosets) * s * w."""
    if not isinstance(spec, BundleSpec):
        raise _not_a_spec(spec)
    return _rank(spec)


def _rank(spec: BundleSpec) -> int:
    # rank_G on a spec the caller built: the coset index is memoised per
    # composition, so this is one lookup and two products
    return _index(spec.lam) * spec.s * spec.w


@_once_per_spec
def b_class(spec: BundleSpec) -> DivisorClass:
    """The surface part of the first Chern class (no delta component).

    Block i contributes (R / r_i) * lambda_i / n times its class, with R =
    rank_G(spec): lambda_i / n of the cosets give position 1 the label i,
    and r_i divides s, a factor of R, because block i has a position.
    """
    n, rank = spec.n, _rank(spec)
    surface: dict[str, int] = {}
    for i, blk in enumerate(spec.blocks, start=1):
        symbol = blk.c1_symbol
        if symbol not in _ZERO_SYMBOLS:
            term = rank // blk.rank * blk.size
            coeff, rem = divmod(term, n)
            if rem:
                raise IntegralityError(f"b_class: block {i} term {term}/{n} is not an integer")
            surface[symbol] = surface.get(symbol, 0) + coeff
    # the symbols were checked when the blocks were built
    return DivisorClass._surface_of(surface)


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
    rank = _rank(spec)
    num = rank * comb(n, 2)
    for blk in spec.blocks:
        num -= rank // blk.rank * blk.rep_content
    total, rem = divmod(num, n * (n - 1))
    if rem:
        raise IntegralityError(f"r_number: {num}/{n * (n - 1)} is not an integer")
    return total


def c1(spec: BundleSpec) -> DivisorClass:
    """First Chern class b_class - r_number * delta.

    Integral by construction: b_class has int coefficients and r_number is
    an int, or each raises IntegralityError.
    """
    return b_class(spec)._minus_delta(r_number(spec))


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
    x = _multinomial(expts)
    for (rank, _), e in zip(inputs, expts):
        x *= rank**e
    surface: dict[str, int] = {}
    pairs = 0
    for (rank, symbol), e in zip(inputs, expts):
        if e and symbol not in _ZERO_SYMBOLS:
            surface[symbol] = surface.get(symbol, 0) + x * e // (n * rank)
        pairs += x * e * (e - 1) // (n * (n - 1) * rank)
    # a Fraction only when the delta coefficient is a half-integer; the
    # symbols were checked by _generating_inputs
    twice_delta = -(x + sign * pairs)
    delta = Fraction(twice_delta, 2) if twice_delta % 2 else twice_delta // 2
    return DivisorClass._trusted(surface, delta)


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
    # comb(n + k - 1, k - 1) monomials, refused before any work past the cap
    count = comb(n + k - 1, k - 1)
    if count > MAX_MONOMIALS:
        raise SizeLimitError(f"{count} monomials exceed the bound {MAX_MONOMIALS}")
    return ClassPolynomial._trusted(
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
