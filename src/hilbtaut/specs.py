"""Spec documents: JSON bundle specs in, and the five commands that read one.

`parse_spec` reads a spec from a path or from JSON text and validates it
into a `SpecDocument`; the `chern`, `rank`, `ext`, `conditions` and
`stability` handlers print what the closed forms give for it.  The command
line binds each handler without loading this module, so a command that
takes no spec, such as `verify`, neither compiles nor runs it.
"""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path
from typing import NamedTuple

# lazy module (see the package root): it runs when a command first reads it
from . import moduli
from .chern import BundleBlock, BundleSpec, c1, rank_G
from .errors import EXIT_OK, SpecValidationError, _brief, _check_digits, _print_json
from .partitions import LabeledComposition, Partition, _is_int


class SpecDocument(NamedTuple):
    """A parsed spec file: the bundle data plus an optional hom table."""

    spec: BundleSpec
    hom_table: moduli.HomTable | None

    def echo(self) -> dict:
        out = {
            "n": self.spec.n,
            "blocks": [
                {
                    "size": size,
                    "rank": blk.rank,
                    "c1": blk.c1_symbol,
                    "rep": list(blk.rep),
                }
                for size, blk in zip(self.spec.lam, self.spec.blocks)
            ],
        }
        if self.hom_table is not None:
            out["hom_table"] = self.hom_table.to_json_dict()
        return out


def _load_json(source: str | Path) -> object:
    # json is imported where it is read or printed: a plain verify never loads it
    import json

    if isinstance(source, str) and not source.strip():
        raise SpecValidationError("spec is empty")
    text, unread = source, None
    if isinstance(source, Path) or not source.lstrip().startswith(("{", "[")):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            # the OS message echoes the name, which may be the whole text
            unread = str(exc) if len(str(exc)) <= 150 else exc.strerror
            if isinstance(source, Path):
                raise SpecValidationError(f"cannot read spec: {unread}") from exc
            # JSON text such as null, 5 or "x" is not a path either; parse_spec
            # rejects every value that is not an object
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if unread is not None:
            raise SpecValidationError(f"cannot read spec: {unread}") from None
        raise SpecValidationError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError:
        # the one other ValueError of json.loads: int() refuses an integer
        # longer than the interpreter's digit limit
        raise SpecValidationError(
            f"malformed JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise SpecValidationError("malformed JSON: nested too deeply") from None


def parse_spec(source: str | Path) -> SpecDocument:
    """Parse and validate a spec document (a path, or raw JSON text)."""
    if not isinstance(source, (str, Path)):
        raise SpecValidationError(f"spec must be a path or JSON text, got {_brief(source)}")
    data = _load_json(source)
    if not isinstance(data, dict):
        raise SpecValidationError("spec must be a JSON object")
    unknown = set(data) - {"n", "blocks", "hom_table"}
    if unknown:
        raise SpecValidationError(f"unknown spec keys {_brief(sorted(unknown))}")
    n = data.get("n")
    if not _is_int(n) or n < 1:
        raise SpecValidationError(f"n: expected a positive integer, got {_brief(n)}")
    blocks_data = data.get("blocks")
    if not isinstance(blocks_data, list) or not blocks_data:
        raise SpecValidationError("blocks: expected a non-empty array")

    sizes: list[int] = []
    blocks: list[BundleBlock] = []
    for idx, entry in enumerate(blocks_data):
        where = f"blocks[{idx}]"
        if not isinstance(entry, dict):
            raise SpecValidationError(f"{where}: expected an object")
        unknown = set(entry) - {"size", "rank", "c1", "rep"}
        if unknown:
            raise SpecValidationError(f"{where}: unknown keys {_brief(sorted(unknown))}")
        for key in ("size", "rank", "c1", "rep"):
            if key not in entry:
                raise SpecValidationError(f"{where}: missing {_brief(key)}")
        size, rank, symbol, rep = entry["size"], entry["rank"], entry["c1"], entry["rep"]
        if not _is_int(size) or size < 1:
            raise SpecValidationError(f"{where}.size: expected a positive integer")
        try:
            diagram = Partition(rep)
        except ValueError as exc:
            raise SpecValidationError(f"{where}.rep: {exc}") from exc
        if diagram.n != size:
            raise SpecValidationError(
                f"{where}.rep: {_brief(rep)} is not a partition of {_brief(size)}"
            )
        try:
            blocks.append(BundleBlock(rank, symbol, diagram))
        except ValueError as exc:
            raise SpecValidationError(f"{where}: {exc}") from exc
        sizes.append(size)

    if sum(sizes) != n:
        raise SpecValidationError(
            f"block sizes {_brief(sizes)} sum to {_brief(sum(sizes))}, not n = {_brief(n)}"
        )
    spec = BundleSpec(LabeledComposition(sizes), tuple(blocks))

    table = None
    if "hom_table" in data:
        try:
            table = moduli.HomTable.from_json_dict(data["hom_table"])
        except ValueError as exc:
            raise SpecValidationError(f"hom_table: {exc}") from exc
        if table.k != spec.k:
            raise SpecValidationError(
                f"hom_table: {table.k} rows for a spec with {spec.k} blocks"
            )
    return SpecDocument(spec, table)


def _require_table(doc: SpecDocument, command: str) -> moduli.HomTable:
    if doc.hom_table is None:
        raise SpecValidationError(f"'{command}' needs a hom_table section in the spec")
    return doc.hom_table


def _cmd_chern(args) -> int:
    doc = parse_spec(args.spec)
    cls = c1(doc.spec)
    if args.json:
        rank = rank_G(doc.spec)
        _check_digits(rank)
        _print_json(
            {
                "class": cls.to_json_dict(),
                "rank": rank,
                "spec_echo": doc.echo(),
            }
        )
    else:
        print(cls.render_text())
    return EXIT_OK


def _cmd_rank(args) -> int:
    rank = rank_G(parse_spec(args.spec).spec)
    _check_digits(rank)
    print(rank)
    return EXIT_OK


def _cmd_ext(args) -> int:
    doc = parse_spec(args.spec)
    dims = moduli.equivariant_end_dims(doc.spec, _require_table(doc, "ext"))
    _check_digits(dims.end0, dims.end1, dims.image_dim)
    # the component dimension exists when off-diagonal Ext^1 vanishes and
    # the image dimension equals the tangent dimension, end1
    certified = dims.offdiagonal_vanishes
    moduli_dim = dims.end1 if certified and dims.image_dim == dims.end1 else None
    mismatch = (dims.image_dim, dims.end1) if certified and moduli_dim is None else None
    if args.json:
        _print_json(
            {
                "end0": dims.end0,
                "end1": dims.end1,
                "offdiagonal_vanishes": dims.offdiagonal_vanishes,
                "failing_coset": list(dims.failing_coset) if dims.failing_coset else None,
                "moduli_component_dim": moduli_dim,
                "dimension_mismatch": (
                    {"image": mismatch[0], "tangent": mismatch[1]} if mismatch else None
                ),
            }
        )
        return EXIT_OK
    print(f"end0 = {dims.end0}")
    print(f"end1 = {dims.end1}")
    if certified:
        print("offdiagonal_ext1_vanishes = yes")
    else:
        print(
            "offdiagonal_ext1_vanishes = no "
            f"(coset {dims.failing_coset}); end1 is the identity-coset part only"
        )
    if moduli_dim is not None:
        print(f"moduli_component_dim = {moduli_dim}")
    elif mismatch:
        print(f"moduli_component_dim = mismatch (image {mismatch[0]}, tangent {mismatch[1]})")
    else:
        print(
            f"moduli_component_dim = not certified (off-diagonal Ext^1 survives on coset "
            f"{dims.failing_coset}; the tangent space is not under control)"
        )
    return EXIT_OK


def _cmd_conditions(args) -> int:
    doc = parse_spec(args.spec)
    report = moduli.check_conditions(_require_table(doc, "conditions"))
    print(f"distinct_labels = {'yes' if report.distinct_ok else 'no'}")
    if report.satisfied:
        rendered = " ".join("{" + ",".join(map(str, grp)) + "}" for grp in report.grouping)
        print(f"vanishing_grouping = {rendered}")
    else:
        print("vanishing_grouping = none")
        for witness in report.witnesses:
            print(f"witness: {witness}")
    return EXIT_OK


def _cmd_stability(args) -> int:
    doc = parse_spec(args.spec)
    table = _require_table(doc, "stability")
    cert = moduli.stability_certificate(doc.spec.lam, table)
    if cert.ok:
        print(f"stability_certificate = yes ({cert.witness_count} nontrivial cosets)")
        for coset, pos in islice(moduli.stability_witnesses(doc.spec.lam, table), 10):
            print(f"coset {coset}: witness position {pos}")
        if cert.witness_count > 10:
            print(f"... {cert.witness_count - 10} more")
    else:
        print("stability_certificate = no")
        print(f"failing_coset = {cert.failing_coset}")
    return EXIT_OK
