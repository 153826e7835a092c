"""Rank and first Chern class of induced bundles on Hilbert schemes.

A bundle spec fixes a composition lambda = (lambda_1, ..., lambda_k) of n,
one input bundle per block (rank and a first-Chern symbol on the surface)
and one irreducible representation of the symmetric group of each block
size.  The induced object on the Hilbert scheme of n points has an integer
rank and a first Chern class of the form B - R*delta; both are computed by
closed formulas, with no coset enumerated.  The generating polynomial
collects the first Chern classes of all one-shape specs over a list of
input bundles: a plain dict from exponent tuples to DivisorClass
coefficients, each computed alone in closed form.  The oracles that
recount them coset by coset (the swap trace) live in verify.py.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial
from typing import Iterator, Sequence

from .divisors import _ZERO_SYMBOLS, DivisorClass, _check_symbol
from .errors import IntegralityError, ShapeMismatchError, SizeLimitError, _brief
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

# Largest full generating-polynomial expansion, in monomials.
MAX_MONOMIALS = 25_000
# Largest degree n of a generating polynomial, coefficient or regular
# checksum.  A rank-1 regular checksum is about n!, which stays under the
# 4,300 digits that Python prints (1000! has 2,568).
MAX_GENERATING_N = 1_000


def _check_c1_symbol(symbol: str) -> None:
    if symbol not in _ZERO_SYMBOLS:
        _check_symbol(symbol)


def _check_degree(n: int) -> None:
    # read before any factorial of n is taken
    if not _is_int(n) or n < 2:
        raise ValueError(f"n must be >= 2, got {_brief(n)}")
    if n > MAX_GENERATING_N:
        raise SizeLimitError(f"n = {_brief(n)} exceeds the generating bound {MAX_GENERATING_N}")


def _check_rank(rank: int) -> None:
    if not _is_int(rank) or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {_brief(rank)}")


def _tuples_of(k: int):
    return lambda item: isinstance(item, (tuple, list)) and len(item) == k


class _Frozen:
    """Base of the validated value types.  Equality, hashing and repr read
    the fields named in `_fields` only, so what `__init__` caches beside
    them in the instance dict does not count; no attribute can be assigned
    or deleted after `__init__`.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {_brief(name)}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {_brief(name)}")


class BundleBlock(_Frozen):
    """One input bundle with the representation attached to its block.

    `size`, `rep_dim` and `rep_content`, the size, the dimension and the
    content sum of `rep`, are computed at construction; they are not fields,
    so equality, hashing and repr ignore them.
    """

    _fields = ("rank", "c1_symbol", "rep")

    def __init__(self, rank: int, c1_symbol: str, rep: Partition):
        _check_rank(rank)
        rep = Partition(rep)
        _check_c1_symbol(c1_symbol)
        vars(self).update(
            rank=rank,
            c1_symbol=c1_symbol,
            rep=rep,
            size=rep.n,
            rep_dim=dimension(rep),
            rep_content=content_sum(rep),
        )


class BundleSpec(_Frozen):
    """Composition of n together with one BundleBlock per part.

    Computed at construction, in one pass over the blocks, and not fields
    (equality, hashing and repr ignore them): `n`, the number of points;
    `s`, the product of rank_i ** lambda_i (the fibre dimension of one
    summand); and `w`, the product of the representation dimensions.
    """

    _fields = ("lam", "blocks")

    def __init__(self, lam: LabeledComposition, blocks: tuple[BundleBlock, ...]):
        # a LabeledComposition or a tuple is taken as it is: a sweep passes
        # the same composition to thousands of specs
        if type(lam) is not LabeledComposition:
            lam = LabeledComposition(lam)
        if type(blocks) is not tuple:
            if not isinstance(blocks, (tuple, list)):
                raise ValueError(f"blocks must be a list or tuple, got {_brief(blocks)}")
            blocks = tuple(blocks)
        if len(blocks) != len(lam):
            raise ValueError(f"{len(blocks)} blocks for a composition with {lam.k} parts")
        n, s, w = 0, 1, 1
        for idx, (size, blk) in enumerate(zip(lam, blocks), start=1):
            if not isinstance(blk, BundleBlock):
                raise ValueError(f"block {idx}: {_brief(blk)} is not a BundleBlock")
            if blk.size != size:
                raise ValueError(
                    f"block {idx}: rep {_brief(blk.rep)} is not a partition of {_brief(size)}"
                )
            n += size
            s *= blk.rank**size
            w *= blk.rep_dim
        # stored item by item: a keyword update would build a dict per spec
        fields = vars(self)
        fields["lam"], fields["blocks"] = lam, blocks
        fields["n"], fields["s"], fields["w"] = n, s, w

    @classmethod
    def build(
        cls, sizes: Sequence[int], blocks: Sequence[tuple[int, str, Sequence[int]]]
    ) -> BundleSpec:
        if not _all_of(blocks, _tuples_of(3)):
            raise ValueError(f"blocks must be a list or tuple of triples, got {_brief(blocks)}")
        return cls(
            LabeledComposition(sizes),
            tuple(BundleBlock(rank, symbol, Partition(rep)) for rank, symbol, rep in blocks),
        )

    @property
    def k(self) -> int:
        return self.lam.k


def _not_a_spec(value) -> ValueError:
    return ValueError(f"expected a BundleSpec, got {_brief(value)}")


def rank_G(spec: BundleSpec) -> int:
    """Rank of the induced bundle: (number of cosets) * s * w."""
    if not isinstance(spec, BundleSpec):
        raise _not_a_spec(spec)
    # the coset index is memoised per composition, so this is one lookup
    # and two products
    return _index(spec.lam) * spec.s * spec.w


def c1(spec: BundleSpec) -> DivisorClass:
    """First Chern class B - r_number * delta, in one pass over the blocks.

    With R = rank_G(spec), block i contributes (R / r_i) * lambda_i / n
    times its class to the surface part B: lambda_i / n of the cosets give
    position 1 the label i, and r_i divides s, a factor of R, because block
    i has a position.  With content(d) the content sum of a diagram,
    r_number = (R * C(n, 2) - sum_i (R / r_i) * content(rep_i)) / (n (n - 1)),
    and 0 when n < 2: the sum over the labels of positions 1 and 2,
    collapsed by Frobenius's content formula for the character value at a
    2-cycle.  Each division is exact or raises IntegralityError.  The class
    is kept in the spec's instance dict as `_c1`, which equality, hashing
    and repr ignore.
    """
    if not isinstance(spec, BundleSpec):
        raise _not_a_spec(spec)
    memo = spec.__dict__
    cached = memo.get("_c1")
    if cached is not None:
        return cached
    # rank_G(spec), read inline: the spec is already checked
    n, rank = spec.n, _index(spec.lam) * spec.s * spec.w
    surface: dict[str, int] = {}
    num = rank * (n * (n - 1) // 2)
    for blk in spec.blocks:
        share = rank // blk.rank
        num -= share * blk.rep_content
        symbol = blk.c1_symbol
        if symbol not in _ZERO_SYMBOLS:
            term = share * blk.size
            coeff, rem = divmod(term, n)
            if rem:
                # an equal block before this one has the same term, and
                # would have raised first
                i = spec.blocks.index(blk) + 1
                raise IntegralityError(
                    f"b_class: block {i} term {_brief(term)}/{_brief(n)} is not an integer"
                )
            surface[symbol] = surface.get(symbol, 0) + coeff
    total, rem = divmod(num, n * (n - 1)) if n > 1 else (0, 0)
    if rem:
        raise IntegralityError(f"r_number: {_brief(num)}/{_brief(n * (n - 1))} is not an integer")
    # the symbols were checked when the blocks were built
    memo["_c1"] = cls = DivisorClass._trusted(surface, -total)
    return cls


def b_class(spec: BundleSpec) -> DivisorClass:
    """The surface part B of the first Chern class (no delta component)."""
    return DivisorClass._trusted(c1(spec).surface)


def r_number(spec: BundleSpec) -> int:
    """Coefficient of -delta in the first Chern class."""
    return -c1(spec).delta


def _weak_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    # stars and bars: k - 1 bars among n + k - 1 slots
    for bars in combinations(range(n + k - 1), k - 1):
        edges = (-1, *bars, n + k - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _generating_inputs(n: int, inputs, variant: str) -> tuple[list[tuple[int, str]], int]:
    # the validated inputs, and the sign of sum r_i t_i^2 in the pair rank
    if variant not in ("trivial", "sign"):
        raise ValueError(f"variant must be 'trivial' or 'sign', got {_brief(variant)}")
    _check_degree(n)
    if not _all_of(inputs, _tuples_of(2)):
        raise ValueError(f"inputs must be a list or tuple of pairs, got {_brief(inputs)}")
    inputs = list(inputs)
    if not inputs:
        raise ValueError("at least one input bundle required")
    for rank, symbol in inputs:
        _check_rank(rank)
        _check_c1_symbol(symbol)
    return inputs, 1 if variant == "sign" else -1


def _coefficient(n: int, inputs, expts: tuple[int, ...], sign: int) -> DivisorClass:
    # X = M(n; a) r^a; then M(n-1; a-e_i) r^{a-e_i} = X a_i / (n r_i) and
    # r_i M(n-2; a-2e_i) r^{a-2e_i} = X a_i (a_i-1) / (n (n-1) r_i), each
    # exact or an IntegralityError
    if sum(expts) != n:
        return DivisorClass.zero()
    x = _multinomial(expts)
    for (rank, _), e in zip(inputs, expts):
        x *= rank**e
    surface: dict[str, int] = {}
    pairs = 0
    for i, ((rank, symbol), e) in enumerate(zip(inputs, expts), start=1):
        # the second quotient is the first times (e - 1) / (n - 1)
        share, rem = divmod(x * e, n * rank)
        pair, rem_pair = divmod(share * (e - 1), n - 1)
        if rem or rem_pair:
            raise IntegralityError(
                f"generating coefficient {_brief(expts)}: input {i} leaves a remainder"
            )
        if share and symbol not in _ZERO_SYMBOLS:
            surface[symbol] = surface.get(symbol, 0) + share
        pairs += pair
    # twice delta is -(x - pairs) or -(x - pairs) - 2 * pairs, and x - pairs
    # counts the coloured words whose first two letters differ, which the
    # swap of positions 1 and 2 pairs off: it is even.  The symbols were
    # checked by _generating_inputs.
    delta, rem = divmod(-(x + sign * pairs), 2)
    if rem:
        raise IntegralityError(f"generating coefficient {_brief(expts)}: delta is not an integer")
    return DivisorClass._trusted(surface, delta)


def generating_polynomial(
    n: int, inputs: Sequence[tuple[int, str]], variant: str = "trivial"
) -> dict[tuple[int, ...], DivisorClass]:
    """Chern generating polynomial in one variable per input bundle, as a
    dict from exponent tuples (a_1, ..., a_k) to nonzero coefficients.

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
    More than MAX_MONOMIALS monomials, or n past MAX_GENERATING_N, raise
    SizeLimitError.  Each call builds a new dict.
    """
    inputs, sign = _generating_inputs(n, inputs, variant)
    k = len(inputs)
    # comb(n + k - 1, k - 1) monomials, refused before any work past the cap
    count = comb(n + k - 1, k - 1)
    if count > MAX_MONOMIALS:
        raise SizeLimitError(f"{_brief(count)} monomials exceed the bound {MAX_MONOMIALS}")
    terms = ((a, _coefficient(n, inputs, a, sign)) for a in _weak_compositions(n, k))
    return {a: coeff for a, coeff in terms if not coeff.is_zero}


def _generating_coefficient(n: int, inputs, expts, variant: str = "trivial") -> DivisorClass:
    # generating_polynomial(...).get(expts, zero) without the expansion
    inputs, sign = _generating_inputs(n, inputs, variant)
    if not _all_of(expts, _is_int):
        raise ValueError(f"exponents must be integers, got {_brief(expts)}")
    expts = tuple(expts)
    if len(expts) != len(inputs):
        raise ShapeMismatchError(f"exponent tuple {_brief(expts)} does not have arity {len(inputs)}")
    if any(e < 0 for e in expts):
        raise ValueError(f"negative exponent in {_brief(expts)}")
    return _coefficient(n, inputs, expts, sign)


def regular_checksum(n: int, rank: int, symbol: str) -> DivisorClass:
    """Closed-form total Chern class over all representations of one block.

    Equals n! * rank^(n-1) * c1 - (n!/2) * rank^n * delta, which the
    dimension-weighted sum of c1 over all irreducibles must reproduce.
    """
    _check_degree(n)
    _check_rank(rank)
    _check_c1_symbol(symbol)
    surface = {} if symbol in _ZERO_SYMBOLS else {symbol: factorial(n) * rank ** (n - 1)}
    delta = -(factorial(n) // 2) * rank**n
    return DivisorClass._trusted(surface, delta)
