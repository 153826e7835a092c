"""Hom/Ext bookkeeping between input bundles and what it certifies.

A HomTable records exact dimensions of Hom and Ext^1 between the input
bundles on the surface.  From it the package checks the ordered-grouping
vanishing condition, certifies that off-diagonal equivariant Ext^1
contributions die on every nontrivial coset, sums self-extension
dimensions into the image and tangent dimensions of the moduli component,
and decides slope stability coset by coset.

Neither verdict enumerates cosets.  The degree-1 dimension of a coset
depends only on its double coset, a k x k table of (block, label) counts
(Mackey's formula), so the vanishing check visits tables instead.  The
stability verdict and its witness count follow in closed form from slope
balance; a generator steps the cosets for the witnesses themselves, as far
as its caller reads.  The coset-by-coset versions live in scan_oracles.py
as oracles.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import combinations
from typing import Mapping, NamedTuple

from .chern import BundleSpec, _Frozen
from .errors import ShapeMismatchError, _brief
from .partitions import (
    LabeledComposition,
    _all_of,
    _is_int,
    _multinomial,
    bounded_index_p,
    iter_cosets,
    standard_tensor_multiplicity,
)


def _as_matrix(rows, k: int, what: str, allow_none: bool = False):
    if rows is None and allow_none:
        return None
    if not _all_of(rows, lambda row: _all_of(row, _is_int)):
        raise ValueError(f"{what} must be a {k}x{k} matrix of integers")
    rows = tuple(map(tuple, rows))
    if len(rows) != k or any(len(row) != k for row in rows):
        raise ShapeMismatchError(f"{what} must be a {k}x{k} matrix")
    if any(v < 0 for row in rows for v in row):
        raise ValueError(f"{what} entries must be non-negative")
    return rows


def _frac_from_json(value) -> Fraction:
    # an int or a '[-]digits[/digits]' string; Fraction alone also reads
    # '1.5', ' 1/2' and '1e30000000', the last as a 30-million-digit integer
    if not (_is_int(value) or isinstance(value, str) and re.fullmatch("-?[0-9]+(/[0-9]+)?", value)):
        raise ValueError("not an integer or 'p/q' string")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def _as_slopes(values) -> tuple[Fraction, ...]:
    # Fractions, or the ints and 'p/q' strings of JSON; never floats or bools
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"slopes must be exact fractions, got {type(values).__name__}")
    slopes = []
    for i, s in enumerate(values, start=1):
        try:
            slopes.append(s if isinstance(s, Fraction) else _frac_from_json(s))
        except ValueError as exc:
            raise ValueError(f"slopes must be exact fractions: slope {i}: {exc}") from None
    return tuple(slopes)


class HomTable(_Frozen):
    """Pairwise Hom/Ext^1 dimensions between k input bundles.

    hom[i][j] and ext1[i][j] are dim Hom(E_i, E_j) and dim Ext^1(E_i, E_j)
    (0-based storage, 1-based in messages).  iso_labels name isomorphism
    classes; equal labels must come with equal slopes.  ext2 is accepted and
    stored but never used; locally_free is recorded only.
    """

    _fields = ("hom", "ext1", "iso_labels", "slopes", "ext2", "locally_free")

    def __init__(
        self,
        hom: Sequence[Sequence[int]],
        ext1: Sequence[Sequence[int]],
        iso_labels: Sequence[str],
        slopes: Sequence[Fraction | int | str],
        ext2: Sequence[Sequence[int]] | None = None,
        locally_free: bool = True,
    ):
        # a wrong value is named by its type, never echoed: JSON has no size bound
        if not _all_of(iso_labels, lambda label: isinstance(label, str)):
            raise ValueError(f"labels must be a list of strings, got {type(iso_labels).__name__}")
        if not isinstance(locally_free, bool):
            raise ValueError(
                f"locally_free must be true or false, got {type(locally_free).__name__}"
            )
        k = len(iso_labels)
        slopes = _as_slopes(slopes)
        if len(slopes) != k:
            raise ShapeMismatchError(f"{len(slopes)} slopes for {k} labels")
        hom = _as_matrix(hom, k, "hom")
        ext1 = _as_matrix(ext1, k, "ext1")
        ext2 = _as_matrix(ext2, k, "ext2", allow_none=True)
        for i in range(k):
            if hom[i][i] < 1:
                raise ValueError(f"hom[{i + 1}][{i + 1}] must be >= 1 (identity map)")
        by_label: dict[str, Fraction] = {}
        for label, slope in zip(iso_labels, slopes):
            if label in by_label and by_label[label] != slope:
                raise ValueError(f"label {_brief(label)} carries two different slopes")
            by_label[label] = slope
        vars(self).update(
            hom=hom,
            ext1=ext1,
            iso_labels=tuple(iso_labels),
            slopes=slopes,
            ext2=ext2,
            locally_free=locally_free,
        )

    @property
    def k(self) -> int:
        return len(self.iso_labels)

    @property
    def end1_self(self) -> tuple[int, ...]:
        return tuple(self.ext1[i][i] for i in range(self.k))

    def to_json_dict(self) -> dict:
        out = {
            "k": self.k,
            "hom": [list(row) for row in self.hom],
            "ext1": [list(row) for row in self.ext1],
            "labels": list(self.iso_labels),
            "slopes": [str(s) for s in self.slopes],
            "locally_free": self.locally_free,
        }
        if self.ext2 is not None:
            out["ext2"] = [list(row) for row in self.ext2]
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> HomTable:
        if not isinstance(data, Mapping):
            raise ValueError(f"hom table must be an object, got {type(data).__name__}")
        unknown = set(data) - {"k", "hom", "ext1", "labels", "slopes", "ext2", "locally_free"}
        if unknown:
            raise ValueError(f"unknown hom-table keys {_brief(sorted(unknown))}")
        for key in ("hom", "ext1", "labels", "slopes"):
            if key not in data:
                raise ValueError(f"hom table is missing {_brief(key)}")
        table = cls(
            hom=data["hom"],
            ext1=data["ext1"],
            iso_labels=data["labels"],
            slopes=data["slopes"],
            ext2=data.get("ext2"),
            locally_free=data.get("locally_free", True),
        )
        if "k" in data and not _is_int(data["k"]):
            raise ValueError(f"k must be an integer, got {type(data['k']).__name__}")
        if data.get("k", table.k) != table.k:
            raise ValueError(f"declared k = {_brief(data['k'])} but tables have size {table.k}")
        return table


class ConditionReport(NamedTuple):
    """Outcome of the ordered-grouping vanishing check."""

    distinct_ok: bool
    grouping: tuple[tuple[int, ...], ...] | None
    witnesses: tuple[str, ...]

    @property
    def satisfied(self) -> bool:
        return self.grouping is not None


def check_conditions(table: HomTable) -> ConditionReport:
    """Find an ordered grouping of the blocks under which all maps from
    later groups to earlier groups vanish in degrees 0 and 1, blocks in one
    group have no maps between distinct members, and every block is simple.
    Returns the first grouping in size-then-lex order of each group, or the
    reasons none exists; decided without search, as a point-algebra network
    is consistent iff each strongly connected component may share a group.
    """
    _require_table(table)
    k = table.k
    distinct_ok = len(set(table.iso_labels)) == k
    witnesses: list[str] = []

    non_simple = [i for i in range(k) if table.hom[i][i] != 1]
    for i in non_simple:
        witnesses.append(f"block {i + 1} is not simple: hom[{i + 1}][{i + 1}] = {table.hom[i][i]}")
    if non_simple:
        return ConditionReport(distinct_ok, None, tuple(witnesses))

    def same_ok(i: int, j: int) -> bool:
        return table.hom[i][j] == 0 and table.hom[j][i] == 0

    def before_ok(i: int, j: int) -> bool:
        # i in an earlier group than j: maps from j back to i must vanish
        return table.hom[j][i] == 0 and table.ext1[j][i] == 0

    for i, j in combinations(range(k), 2):
        if not (same_ok(i, j) or before_ok(i, j) or before_ok(j, i)):
            witnesses.append(
                f"blocks {i + 1} and {j + 1} admit no arrangement: "
                "maps survive in both directions"
            )
    if witnesses:
        return ConditionReport(distinct_ok, None, tuple(witnesses))

    # after[i], ahead[i]: bitmasks of the blocks that may not precede, may
    # not follow i (i too, as hom[i][i] = 1), closed transitively; the blocks
    # in both form i's component, which must be one group
    after = [sum(1 << j for j in range(k) if not before_ok(j, i)) for i in range(k)]
    for m in range(k):
        for i in range(k):
            if after[i] >> m & 1:
                after[i] |= after[m]
    ahead = [sum(1 << j for j in range(k) if after[j] >> i & 1) for i in range(k)]
    components = {tuple(j for j in range(k) if (after[i] & ahead[i]) >> j & 1) for i in range(k)}
    if not all(same_ok(a, b) for comp in components for a, b in combinations(comp, 2)):
        return ConditionReport(
            distinct_ok,
            None,
            ("no ordered grouping satisfies the vanishing constraints",),
        )
    # a valid first group is a predecessor-closed union of components, so
    # the smallest is a source component; take the lex-first of those
    left = sorted(components, key=lambda comp: (len(comp), comp))
    grouping, unplaced = [], (1 << k) - 1
    while left:
        group = next(c for c in left if not ahead[c[0]] & ~after[c[0]] & unplaced)
        left.remove(group)
        unplaced ^= sum(1 << j for j in group)
        grouping.append(group)
    one_based = tuple(tuple(i + 1 for i in group) for group in grouping)
    return ConditionReport(distinct_ok, one_based, ())


class VanishingReport(NamedTuple):
    holds: bool
    failing_coset: tuple[int, ...] | None
    degree1_dim: int


def _require_table(table: HomTable) -> None:
    if not isinstance(table, HomTable):
        raise ValueError(f"expected a HomTable, got {_brief(table)}")


def _require_block_match(lam: LabeledComposition, table: HomTable) -> None:
    _require_table(table)
    if lam.k != table.k:
        raise ShapeMismatchError(f"{lam.k} blocks but the table has {table.k}")


def _first_failing_table(
    lam: LabeledComposition, hom, ext1
) -> tuple[list[list[int]], int] | None:
    # Depth-first over the k x k tables with row and column sums lambda, cell
    # by cell in row-major order, each count tried from its largest feasible
    # value down: complete tables come in descending row-major order.  A
    # count leaves the columns to its right room for the rest of its row, so
    # each row's last cell and the whole last row are forced, and cells of a
    # filled row or column are skipped.  Along the way (p, d) carry prod
    # hom^T and sum T*ext1*hom^(T-1)*prod(other cells) over the cells placed
    # so far; once both are 0 no completion can fail, so the subtree is
    # skipped.  `cells` holds the current path and 0 elsewhere.
    k = len(lam)
    cells = [[0] * k for _ in range(k)]
    rows, cols = list(lam), list(lam)

    def place(c: int, p: int, d: int, moved: bool) -> int:
        while c < k * k and not (rows[c // k] and cols[c % k]):
            c += 1
        if c == k * k:
            return d if moved else 0
        a, b = divmod(c, k)
        h, e = hom[a][b], ext1[a][b]
        for t in range(min(rows[a], cols[b]), max(0, rows[a] - sum(cols[b + 1 :])) - 1, -1):
            p_next, d_next = p, d
            if t:
                ht = h**t
                p_next, d_next = p * ht, d * ht + p * t * e * h ** (t - 1)
                if not (p_next or d_next):
                    continue
            cells[a][b] = t
            rows[a] -= t
            cols[b] -= t
            found = place(c + 1, p_next, d_next, moved or a != b)
            rows[a] += t
            cols[b] += t
            if found:
                return found
        cells[a][b] = 0
        return 0

    deg1 = place(0, 1, 0, False)
    return (cells, deg1) if deg1 else None


def offdiagonal_ext1_vanishing(lam: Sequence[int], table: HomTable) -> VanishingReport:
    """Check that every nontrivial coset contributes zero in degree 1.

    Per coset the degree-1 dimension factors through positions: a sum over
    positions of ext1 at that position times hom at all others, with the
    block of each position on the left and the coset label on the right.
    It therefore depends on a coset only through its double coset
    S_lambda g S_lambda, recorded as the k x k table T[a][b] of positions
    of block a carrying label b (rows and columns sum to lambda), where it
    equals sum over cells of T*ext1*hom^(T-1) times hom^T of the other
    cells.  The tables are searched in descending row-major order, which is
    ascending order of each table's lex-least coset (every block's labels
    sorted), so the first failing table gives the first violating coset in
    coset order; it is returned with its dimension, if any.  No coset is
    enumerated.
    """
    lam = LabeledComposition(lam)
    _require_block_match(lam, table)
    bounded_index_p(lam)
    found = _first_failing_table(lam, table.hom, table.ext1)
    if found is None:
        return VanishingReport(True, None, 0)
    cells, deg1 = found
    labels = [b + 1 for row in cells for b, t in enumerate(row) for _ in range(t)]
    return VanishingReport(False, tuple(labels), deg1)


class EndDims(NamedTuple):
    """Equivariant self-Hom and self-Ext^1 dimensions of an induced bundle,
    and the image dimension of the moduli component it traces out.

    end1 is always the identity-coset contribution (per-block multiplicity
    times self-extension count, summed), the tangent dimension;
    offdiagonal_vanishes reports whether that is the whole answer.
    image_dim is the sum of the self-extension counts.  The component
    dimension is image_dim when off-diagonal Ext^1 vanishes and image_dim
    equals end1, which holds exactly when every block representation is
    rectangular.
    """

    end0: int
    end1: int
    offdiagonal_vanishes: bool
    failing_coset: tuple[int, ...] | None
    image_dim: int


def equivariant_end_dims(spec: BundleSpec, table: HomTable) -> EndDims:
    """Equivariant End dimensions in degrees 0 and 1, and the image dimension.

    Degree 0 is 1 (simple blocks, one irreducible per block).  Degree 1 from
    the identity coset weighs each block's self-extension count by the
    multiplicity of its representation inside permutation-module times
    itself, which is 1 exactly for rectangular diagrams.  When some
    off-diagonal coset survives in degree 1 the flag is lowered, the first
    such coset is returned, and end1 is only the identity-coset part.
    """
    if not isinstance(spec, BundleSpec):
        raise ValueError(f"expected a BundleSpec, got {_brief(spec)}")
    _require_block_match(spec.lam, table)
    for i in range(table.k):
        if table.hom[i][i] != 1:
            raise ValueError(
                f"block {i + 1} is not simple (hom[{i + 1}][{i + 1}] = {_brief(table.hom[i][i])})"
            )
    tangent_dim = sum(
        standard_tensor_multiplicity(blk.rep) * table.ext1[i][i]
        for i, blk in enumerate(spec.blocks)
    )
    vanishing = offdiagonal_ext1_vanishing(spec.lam, table)
    return EndDims(
        1, tangent_dim, vanishing.holds, vanishing.failing_coset, sum(table.end1_self)
    )


class StabilityCertificate(NamedTuple):
    """Whether destabilising maps are ruled out on every nontrivial coset.

    A witness for a coset is a 1-based position whose identity-side factor
    and coset-side factor are non-isomorphic with identity-side slope not
    smaller.  ok means every nontrivial coset has one.  witness_count is the
    number of nontrivial cosets before failing_coset (all of them when ok);
    stability_witnesses yields their witnesses.
    """

    ok: bool
    witness_count: int
    failing_coset: tuple[int, ...] | None


def _lex_rank(labels: Sequence[int], counts: Sequence[int]) -> int:
    # 0-based position of a label tuple among all arrangements of its
    # multiset (counts[j] copies of label j + 1) in lexicographic order
    counts = list(counts)
    left = len(labels)
    arrangements = _multinomial(counts)
    rank = 0
    for lab in labels:
        for v in range(lab - 1):
            rank += arrangements * counts[v] // left
        arrangements = arrangements * counts[lab - 1] // left
        counts[lab - 1] -= 1
        left -= 1
    return rank


def stability_certificate(lam: Sequence[int], table: HomTable) -> StabilityCertificate:
    """Find a slope witness on every nontrivial coset, or the first coset
    without one.

    Decided without enumerating cosets, by slope balance: every coset
    rearranges the same factors, so the identity-side minus coset-side
    slopes sum to 0 over the positions.  Equal labels carry equal slopes, so
    a coset has no witness exactly when every position keeps its label
    class, and the coset is nontrivial.  With pairwise distinct labels no
    such coset exists and the certificate holds.  Otherwise the first one is
    the identity with the last position of block b1 and the first position
    of block b2 swapped, where b1 < b2 are the last two blocks of a label
    class, taking the class whose b1 is largest.  The witnesses are counted
    by the failing coset's lexicographic rank.
    """
    lam = LabeledComposition(lam)
    _require_block_match(lam, table)
    count = bounded_index_p(lam)
    blocks_of: dict[str, list[int]] = {}
    for j, label in enumerate(table.iso_labels):
        blocks_of.setdefault(label, []).append(j)
    last_two = [blocks[-2:] for blocks in blocks_of.values() if len(blocks) > 1]
    if not last_two:
        return StabilityCertificate(True, count - 1, None)
    b1, b2 = max(last_two)
    labels = list(lam.identity_labels())
    end_b1, start_b2 = sum(lam[: b1 + 1]) - 1, sum(lam[:b2])
    labels[end_b1], labels[start_b2] = b2 + 1, b1 + 1
    return StabilityCertificate(False, _lex_rank(labels, lam) - 1, tuple(labels))


def stability_witnesses(
    lam: Sequence[int], table: HomTable
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (coset, 1-based witness position) for each nontrivial coset in
    coset order, the first witness position of each, and stop at the first
    coset without one: witness_count pairs in all.  Cosets are stepped one
    at a time, so taking the first few costs only those; the arguments are
    checked when the first pair is asked for."""
    lam = LabeledComposition(lam)
    _require_block_match(lam, table)
    ident = lam.identity_labels()
    labels_of, slopes = table.iso_labels, table.slopes
    cosets = iter_cosets(lam)
    next(cosets)  # the identity coset
    for labels in cosets:
        for p in range(lam.n):
            a, b = ident[p] - 1, labels[p] - 1
            if labels_of[a] != labels_of[b] and slopes[a] >= slopes[b]:
                yield labels, p + 1
                break
        else:
            return
