"""Command line interface: JSON bundle specs in, exact invariants out.

Exit codes: 0 success, 1 validation error, 2 internal consistency failure,
64 usage error.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .chern import (
    BundleBlock,
    BundleSpec,
    _generating_coefficient,
    c1,
    generating_polynomial,
    rank_G,
    regular_checksum,
)
from .errors import (
    IntegralityError,
    ModuliDimensionMismatchError,
    SpecValidationError,
)
from .partitions import LabeledComposition, Partition, _all_of, _is_int

# characters, moduli and verify are imported by the commands that use them,
# so a chern, rank or generating call never loads them; json likewise, by
# the functions that read or print it, so a plain verify never loads it
if TYPE_CHECKING:
    from .moduli import HomTable

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; the contract wants 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class SpecDocument(NamedTuple):
    """A parsed spec file: the bundle data plus an optional hom table."""

    spec: BundleSpec
    hom_table: HomTable | None

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
    import json

    if isinstance(source, str) and not source.strip():
        raise SpecValidationError("spec is empty")
    text, unread = source, None
    if isinstance(source, Path) or not source.lstrip().startswith(("{", "[")):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            if isinstance(source, Path):
                raise SpecValidationError(f"cannot read spec: {exc}") from exc
            # JSON text such as null, 5 or "x" is not a path either; parse_spec
            # rejects every value that is not an object
            unread = exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if unread is not None:
            raise SpecValidationError(f"cannot read spec: {unread}") from unread
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
        raise SpecValidationError(f"spec must be a path or JSON text, got {source!r}")
    data = _load_json(source)
    if not isinstance(data, dict):
        raise SpecValidationError("spec must be a JSON object")
    unknown = set(data) - {"n", "blocks", "hom_table"}
    if unknown:
        raise SpecValidationError(f"unknown spec keys {sorted(unknown)}")
    n = data.get("n")
    if not _is_int(n) or n < 1:
        raise SpecValidationError(f"n: expected a positive integer, got {n!r}")
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
            raise SpecValidationError(f"{where}: unknown keys {sorted(unknown)}")
        for key in ("size", "rank", "c1", "rep"):
            if key not in entry:
                raise SpecValidationError(f"{where}: missing {key!r}")
        size, rank, symbol, rep = entry["size"], entry["rank"], entry["c1"], entry["rep"]
        if not _is_int(size) or size < 1:
            raise SpecValidationError(f"{where}.size: expected a positive integer")
        if not _is_int(rank) or rank < 1:
            raise SpecValidationError(f"{where}.rank: expected a positive integer")
        if not isinstance(symbol, str):
            raise SpecValidationError(f"{where}.c1: expected a string symbol")
        if not isinstance(rep, list) or not all(map(_is_int, rep)):
            raise SpecValidationError(f"{where}.rep: expected an array of integers")
        try:
            diagram = Partition(rep)
        except ValueError as exc:
            raise SpecValidationError(f"{where}.rep: {exc}") from exc
        if diagram.n != size:
            raise SpecValidationError(
                f"{where}.rep: {rep} is not a partition of {size}"
            )
        try:
            blocks.append(BundleBlock(rank, symbol, diagram))
        except ValueError as exc:
            raise SpecValidationError(f"{where}: {exc}") from exc
        sizes.append(size)

    if sum(sizes) != n:
        raise SpecValidationError(f"block sizes {sizes} sum to {sum(sizes)}, not n = {n}")
    spec = BundleSpec(LabeledComposition(sizes), tuple(blocks))

    table = None
    if "hom_table" in data:
        from .moduli import HomTable

        try:
            table = HomTable.from_json_dict(data["hom_table"])
        except ValueError as exc:
            raise SpecValidationError(f"hom_table: {exc}") from exc
        if table.k != spec.k:
            raise SpecValidationError(
                f"hom_table: {table.k} rows for a spec with {spec.k} blocks"
            )
    return SpecDocument(spec, table)


def _require_table(doc: SpecDocument, command: str) -> HomTable:
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
    from .moduli import _ext_dims

    doc = parse_spec(args.spec)
    table = _require_table(doc, "ext")
    dims, moduli = _ext_dims(doc.spec, table)
    moduli_dim = None
    mismatch = None
    note = None
    if isinstance(moduli, ModuliDimensionMismatchError):
        mismatch = (moduli.image_dim, moduli.tangent_dim)
    elif isinstance(moduli, ValueError):
        note = str(moduli)
    else:
        moduli_dim = moduli
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
    if dims.offdiagonal_vanishes:
        print("offdiagonal_ext1_vanishes = yes")
    else:
        print(
            "offdiagonal_ext1_vanishes = no "
            f"(coset {tuple(dims.failing_coset)}); end1 is the identity-coset part only"
        )
    if moduli_dim is not None:
        print(f"moduli_component_dim = {moduli_dim}")
    elif mismatch:
        print(f"moduli_component_dim = mismatch (image {mismatch[0]}, tangent {mismatch[1]})")
    else:
        print(f"moduli_component_dim = not certified ({note})")
    return EXIT_OK


def _cmd_conditions(args) -> int:
    from .moduli import check_conditions

    doc = parse_spec(args.spec)
    table = _require_table(doc, "conditions")
    report = check_conditions(table)
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
    from .moduli import stability_certificate

    doc = parse_spec(args.spec)
    table = _require_table(doc, "stability")
    cert = stability_certificate(doc.spec.lam, table)
    if cert.ok:
        print(f"stability_certificate = yes ({len(cert.witnesses)} nontrivial cosets)")
        for coset, pos in cert.witnesses[:10]:
            print(f"coset {tuple(coset)}: witness position {pos}")
        if len(cert.witnesses) > 10:
            print(f"... {len(cert.witnesses) - 10} more")
    else:
        print("stability_certificate = no")
        print(f"failing_coset = {tuple(cert.failing_coset)}")
    return EXIT_OK


def _ptext(p: Sequence[int]) -> str:
    return "(" + ",".join(map(str, p)) + ")"


def _cmd_char(args) -> int:
    from .characters import character_table

    table = character_table(args.n)
    labels, rows = table.diagrams, table.values
    if args.diagram is not None:
        wanted = Partition(args.diagram)
        if wanted.n != args.n:
            raise SpecValidationError(
                f"--diagram {tuple(wanted)} is not a partition of {args.n}"
            )
        labels, rows = (wanted,), (table.row(wanted),)
    # each cell is rendered once; the widths are read off those strings
    cells = [[str(v) for v in row] for row in rows]
    headers = [_ptext(c) for c in table.cycle_types]
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
        if len(args.coeff) != len(ranks):
            raise SpecValidationError(
                f"--coeff needs {len(ranks)} exponents, got {len(args.coeff)}"
            )
        print(_generating_coefficient(args.n, inputs, args.coeff, args.variant).render_text())
    else:
        print(generating_polynomial(args.n, inputs, args.variant).render_text())
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import verify_all

    results = verify_all(args.max_n)
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


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _symbol_list(text: str) -> tuple[str, ...]:
    return tuple(piece.strip() for piece in text.split(","))


def build_parser() -> _Parser:
    parser = _Parser(prog="hilbtaut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("chern", "first Chern class of the induced bundle"),
        ("rank", "rank of the induced bundle"),
        ("ext", "equivariant End dimensions and moduli component dimension"),
        ("conditions", "check the ordered-grouping vanishing condition"),
        ("stability", "per-coset slope certificates"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", required=True, help="path to a JSON spec file")
        if name in ("chern", "ext"):
            p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("char", help="character table of a symmetric group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diagram", type=_int_list, help="single row, e.g. 2,1")

    p = sub.add_parser("generating", help="Chern generating polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ranks", type=_int_list, required=True)
    p.add_argument("--symbols", type=_symbol_list, required=True)
    p.add_argument(
        "--variant", choices=("trivial", "sign", "regular"), default="trivial"
    )
    p.add_argument("--coeff", type=_int_list, help="extract one coefficient")

    p = sub.add_parser("verify", help="run all oracle cross-check suites")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--json", action="store_true", help="emit JSON with per-suite timings")

    return parser


_COMMANDS = {
    "chern": _cmd_chern,
    "rank": _cmd_rank,
    "ext": _cmd_ext,
    "conditions": _cmd_conditions,
    "stability": _cmd_stability,
    "char": _cmd_char,
    "generating": _cmd_generating,
    "verify": _cmd_verify,
}


def dispatch(argv: Sequence[str]) -> int:
    """Run one CLI invocation and return its exit code."""
    if not _all_of(argv, lambda arg: isinstance(arg, str)):
        raise ValueError(f"argv must be a list or tuple of strings, got {argv!r}")
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except SpecValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IntegralityError, AssertionError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        # the last line of defence: one line on stderr, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
