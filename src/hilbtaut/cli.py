"""Command line interface: argv in, exact invariants out.

Exit codes: 0 success, 1 validation error, 2 internal consistency failure,
64 usage error, 141 stdout closed by its reader.  All output is
deterministic.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
from functools import partial
from typing import Sequence

# lazy modules (see the package root): each runs when a command first reads it
from . import characters, specs, verify
from .chern import _generating_coefficient, generating_polynomial, regular_checksum
from .errors import (
    EXIT_BROKEN_PIPE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    IntegralityError,
    SpecValidationError,
    _brief,
    _print_json,
)
from .partitions import _all_of


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; the contract wants 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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

    def line(label: str, texts) -> str:
        return " ".join([label.ljust(label_width)] + [t.rjust(w) for t, w in zip(texts, widths)])
    lines = [
        f"character table of degree {args.n}",
        line("", headers),
        line("sizes", map(str, table.class_sizes)),
        *map(line, labels, cells),
    ]
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
    # argparse makes a formatter at every add_argument and add_subparsers
    # call, and each one left to itself reads the terminal width; the width
    # is read here once, as HelpFormatter would read it, so the text is the
    # same and a COLUMNS change between two builds is still seen
    fmt = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="hilbtaut", description=__doc__, formatter_class=fmt)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand names its handler; a spec handler is read from the
    # specs module when it runs, so a command that takes no spec never loads it
    for name, run, help_text in (
        ("chern", lambda args: specs._cmd_chern(args), "first Chern class of the induced bundle"),
        ("rank", lambda args: specs._cmd_rank(args), "rank of the induced bundle"),
        (
            "ext",
            lambda args: specs._cmd_ext(args),
            "equivariant End dimensions and moduli component dimension",
        ),
        (
            "conditions",
            lambda args: specs._cmd_conditions(args),
            "check the ordered-grouping vanishing condition",
        ),
        ("stability", lambda args: specs._cmd_stability(args), "per-coset slope certificates"),
    ):
        p = sub.add_parser(name, help=help_text, formatter_class=fmt)
        p.set_defaults(run=run)
        p.add_argument("--spec", required=True, help="path to a JSON spec file")
        if name in ("chern", "ext"):
            p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("char", help="character table of a symmetric group", formatter_class=fmt)
    p.set_defaults(run=_cmd_char)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--diagram", type=_int_list, help="single row, e.g. 2,1")

    p = sub.add_parser("generating", help="Chern generating polynomial", formatter_class=fmt)
    p.set_defaults(run=_cmd_generating)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--ranks", type=_int_list, required=True)
    p.add_argument("--symbols", type=_symbol_list, required=True)
    p.add_argument(
        "--variant", choices=("trivial", "sign", "regular"), default="trivial"
    )
    p.add_argument("--coeff", type=_int_list, help="extract one coefficient")

    p = sub.add_parser("verify", help="run all oracle cross-check suites", formatter_class=fmt)
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
