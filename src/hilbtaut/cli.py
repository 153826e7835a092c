"""Command line interface: JSON bundle specs in, exact invariants out.

Exit codes: 0 success, 1 validation error, 2 internal consistency failure,
64 usage error, 141 stdout closed by its reader.  All output is
deterministic.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import islice
from pathlib import Path
from typing import NamedTuple, Sequence

# lazy modules (see the package root): each runs when a command first reads it
from . import characters, moduli, verify
from .chern import (
    BundleBlock,
    BundleSpec,
    _generating_coefficient,
    c1,
    generating_polynomial,
    rank_G,
    regular_checksum,
)
from .errors import IntegralityError, SpecValidationError, _brief
from .partitions import LabeledComposition, Partition, _all_of, _is_int

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 64
# 128 + SIGPIPE, the status a shell reports for a writer its reader left
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; the contract wants 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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


def _print_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, sort_keys=True, indent=2))


def _cmd_chern(args) -> int:
    doc = parse_spec(args.spec)
    cls = c1(doc.spec)
    if args.json:
        _print_json(
            {
                "class": cls.to_json_dict(),
                "rank": rank_G(doc.spec),
                "spec_echo": doc.echo(),
            }
        )
    else:
        print(cls.render_text())
    return EXIT_OK


def _cmd_rank(args) -> int:
    doc = parse_spec(args.spec)
    print(rank_G(doc.spec))
    return EXIT_OK


def _cmd_ext(args) -> int:
    doc = parse_spec(args.spec)
    dims = moduli.equivariant_end_dims(doc.spec, _require_table(doc, "ext"))
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


def _ptext(p: Sequence[int]) -> str:
    return "(" + ",".join(map(str, p)) + ")"


def _cmd_char(args) -> int:
    table = characters.character_table(args.n)
    labels, rows = table.partitions, table.values
    if args.diagram is not None:
        labels, rows = (args.diagram,), (table.row(args.diagram),)
    # each cell is rendered once; the widths are read off those strings
    cells = [[str(v) for v in row] for row in rows]
    headers = [_ptext(c) for c in table.partitions]
    widths = [max(len(h), *map(len, column)) for h, column in zip(headers, zip(*cells))]
    labels = [_ptext(d) for d in labels]
    label_width = max(len("sizes"), *map(len, labels))
    lines = [
        f"character table of degree {args.n}",
        " ".join([" " * label_width] + [h.rjust(w) for h, w in zip(headers, widths)]),
        " ".join(
            ["sizes".ljust(label_width)]
            + [str(s).rjust(w) for s, w in zip(table.class_sizes, widths)]
        ),
    ]
    for label, row in zip(labels, cells):
        lines.append(
            " ".join([label.ljust(label_width)] + [c.rjust(w) for c, w in zip(row, widths)])
        )
    print("\n".join(lines))
    return EXIT_OK


def _cmd_generating(args) -> int:
    ranks, symbols = args.ranks, args.symbols
    if len(ranks) != len(symbols):
        raise SpecValidationError(
            f"{len(ranks)} ranks but {len(symbols)} symbols"
        )
    if args.variant == "regular":
        if len(ranks) != 1:
            raise SpecValidationError("variant 'regular' takes exactly one input bundle")
        if args.coeff is not None:
            raise SpecValidationError("variant 'regular' has no per-monomial coefficients")
        print(regular_checksum(args.n, ranks[0], symbols[0]).render_text())
        return EXIT_OK
    inputs = list(zip(ranks, symbols))
    if args.coeff is not None:
        print(_generating_coefficient(args.n, inputs, args.coeff, args.variant).render_text())
    else:
        terms = generating_polynomial(args.n, inputs, args.variant)
        # one line per monomial, highest exponent tuple first
        lines = [f"{_monomial(a)}: {terms[a].render_text()}" for a in sorted(terms, reverse=True)]
        print("\n".join(lines) or "0")
    return EXIT_OK


def _monomial(expts: tuple[int, ...]) -> str:
    return "*".join(f"t{i}^{e}" if e > 1 else f"t{i}" for i, e in enumerate(expts, 1) if e)


def _cmd_verify(args) -> int:
    results = verify.verify_all(args.max_n)
    ok = all(res.ok for res in results)
    if args.json:
        suites = [
            {"name": res.name, "checks": res.checks, "failures": res.failures, "seconds": res.seconds}
            for res in results
        ]
        _print_json({"ok": ok, "suites": suites})
    else:
        for res in results:
            if res.ok:
                print(f"ok   {res.name} ({res.checks} checks)")
            else:
                print(f"FAIL {res.name} ({len(res.failures)} of {res.checks} checks)")
                for line in res.failures[:5]:
                    print(f"     {line}")
        if ok:
            print("all oracles passed")
    if ok:
        return EXIT_OK
    print("oracle disagreement: internal consistency failure", file=sys.stderr)
    return EXIT_INTERNAL


def _int(text: str) -> int:
    # argparse's own int type echoes the whole argument
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_brief(text)}") from None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {_brief(text)}")


def _symbol_list(text: str) -> tuple[str, ...]:
    return tuple(piece.strip() for piece in text.split(","))


def build_parser() -> _Parser:
    parser = _Parser(prog="hilbtaut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand names its handler, read from the module on every call
    for name, run, help_text in (
        ("chern", _cmd_chern, "first Chern class of the induced bundle"),
        ("rank", _cmd_rank, "rank of the induced bundle"),
        ("ext", _cmd_ext, "equivariant End dimensions and moduli component dimension"),
        ("conditions", _cmd_conditions, "check the ordered-grouping vanishing condition"),
        ("stability", _cmd_stability, "per-coset slope certificates"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--spec", required=True, help="path to a JSON spec file")
        if name in ("chern", "ext"):
            p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("char", help="character table of a symmetric group")
    p.set_defaults(run=_cmd_char)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--diagram", type=_int_list, help="single row, e.g. 2,1")

    p = sub.add_parser("generating", help="Chern generating polynomial")
    p.set_defaults(run=_cmd_generating)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--ranks", type=_int_list, required=True)
    p.add_argument("--symbols", type=_symbol_list, required=True)
    p.add_argument(
        "--variant", choices=("trivial", "sign", "regular"), default="trivial"
    )
    p.add_argument("--coeff", type=_int_list, help="extract one coefficient")

    p = sub.add_parser("verify", help="run all oracle cross-check suites")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--max-n", type=_int, default=6, dest="max_n")
    p.add_argument("--json", action="store_true", help="emit JSON with per-suite timings")

    return parser


def dispatch(argv: Sequence[str]) -> int:
    """Run one CLI invocation and return its exit code."""
    if not _all_of(argv, lambda arg: isinstance(arg, str)):
        raise ValueError(f"argv must be a list or tuple of strings, got {_brief(argv)}")
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.run(args)
    except IntegralityError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # the reader of stdout is gone: main, which owns the process's
        # streams, ends it
        raise
    except Exception as exc:
        # the last line of defence: one line on stderr, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered can go nowhere; pointing stdout at devnull
        # keeps the flush at exit from failing again (Python's `signal`
        # docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    # the interpreter's closing collections would only walk objects the exit frees
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
