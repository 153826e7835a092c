"""Seeded request generators and output checkers for the three workloads.

A workload's stream is a sequence of decks.  Every deck holds the same mix
of request kinds at the same sizes; the seed picks the concrete inputs and
the order.  Fixing the mix per deck keeps medians and tails comparable
across seeds, while the seed still decides what the program is asked.

Every output is checked as a digest of its exit code and stdout bytes.
Requests whose output the benchmark can recompute by an independent route
(``chern``, ``chern --json``, ``rank``) draw fresh specs from the seed and
are compared with the recomputed output.  All other requests, the oracle
sweep included, are drawn from a finite catalogue built from
CATALOGUE_SEED; their digests were recorded by ``record.py`` and live in
``digests.json``.

This module imports nothing from the program at import time, so the runner
can load it without the package on the path.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from pathlib import Path

CATALOGUE_SEED = 2510
DIGEST_FILE = Path(__file__).with_name("digests.json")

# oracle_sweep: `verify --max-n N` and the number of oracle checks it runs
# (its recorded output reports them).
SWEEP_MAX_N = {"full": 6, "smoke": 3}
SWEEP_CHECKS = {6: 7961, 3: 265}

# cli_interactive sizes.
CHERN_MAX_N = {"full": 12, "smoke": 4}
CHERN_MAX_K = 3
# Keeps the swap-trace oracle that checks each chern request cheap.
CHERN_MAX_COSETS = 5000
SMALL_SPEC_MAX_N = {"full": 8, "smoke": 4}
CHAR_DEGREES = {"full": range(4, 13), "smoke": range(4, 6)}
GENERATING_DEGREES = {"full": range(2, 9), "smoke": range(2, 4)}

# coset_scan shapes: 10^4 to 3*10^5 cosets.  (6,4,3,1) is left out: one cold
# scan takes seconds and the process peaks above 500 MB.
COSET_SHAPES = {
    "full": ((4, 4, 3), (5, 4, 3), (4, 4, 4), (5, 5, 3), (5, 5, 4), (4, 3, 3, 2)),
    "smoke": ((2, 2, 1), (3, 2, 2)),
}
COSET_KINDS = ("ext_full", "ext_early", "stability_repeated", "stability_full")
VARIANTS_PER_ENTRY = 3

SLOPES = ("-1", "0", "1/2", "1", "3/2", "2", "5/2")


@dataclass(frozen=True)
class Request:
    """One CLI invocation; ``kind`` selects how its output is checked."""

    kind: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return hashlib.sha256(json.dumps(list(self.argv)).encode()).hexdigest()[:20]


# --- combinatorics owned by the benchmark (independent of the program) ---


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, largest part first."""

    def rec(rest: int, largest: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, largest), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return tuple(rec(n, n))


def hook_dimension(shape) -> int:
    """Number of standard Young tableaux, by the hook length formula."""
    conj = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
    hooks = prod(
        (row - j - 1) + (conj[j] - i - 1) + 1
        for i, row in enumerate(shape)
        for j in range(row)
    )
    return factorial(sum(shape)) // hooks


def multinomial(parts) -> int:
    return factorial(sum(parts)) // prod(factorial(p) for p in parts)


def expected_rank(spec: dict) -> int:
    """Rank as multinomial index * prod(rank_i ** size_i) * prod(dim rep_i)."""
    blocks = spec["blocks"]
    return (
        multinomial([b["size"] for b in blocks])
        * prod(b["rank"] ** b["size"] for b in blocks)
        * prod(hook_dimension(b["rep"]) for b in blocks)
    )


def random_composition(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    cuts = sorted(rng.sample(range(1, n), k - 1))
    bounds = [0, *cuts, n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def spec_json(spec: dict) -> str:
    return json.dumps(spec, separators=(",", ":"))


def _blocks(rng: random.Random, lam, shared_symbols: bool) -> list[dict]:
    blocks = []
    for i, size in enumerate(lam):
        roll = rng.random()
        if shared_symbols and roll < 0.15:
            symbol = "0"
        elif shared_symbols and roll < 0.3:
            symbol = "e1"
        else:
            symbol = f"e{i + 1}"
        blocks.append(
            {
                "size": size,
                "rank": rng.randint(1, 3),
                "c1": symbol,
                "rep": list(rng.choice(partitions_of(size))),
            }
        )
    return blocks


def free_spec(rng: random.Random, max_n: int) -> dict:
    """A spec with n <= max_n, at most CHERN_MAX_K blocks and at most
    CHERN_MAX_COSETS cosets; no hom table."""
    while True:
        n = rng.randint(1, max_n)
        lam = random_composition(rng, n, rng.randint(1, min(CHERN_MAX_K, n)))
        if multinomial(lam) <= CHERN_MAX_COSETS:
            return {"n": n, "blocks": _blocks(rng, lam, shared_symbols=True)}


def _hom_table(rng: random.Random, k: int, kind: str) -> dict:
    if kind == "random":
        hom = [[1 if i == j else int(rng.random() < 0.3) for j in range(k)] for i in range(k)]
        ext1 = [[rng.randint(0, 2) for _ in range(k)] for _ in range(k)]
    elif kind == "early":
        # every off-diagonal Hom and Ext^1 is nonzero: the first nontrivial
        # coset already breaks the vanishing
        hom = [[1] * k for _ in range(k)]
        ext1 = [[rng.randint(1, 3) for _ in range(k)] for _ in range(k)]
    else:
        # identity Hom: every nontrivial coset has two zero factors, so the
        # vanishing holds and every coset is visited
        hom = [[int(i == j) for j in range(k)] for i in range(k)]
        ext1 = [[rng.randint(0, 3) for _ in range(k)] for _ in range(k)]
    if kind == "repeated":
        # the last two blocks share a class, so the second coset in
        # lexicographic order already has no slope witness
        labels = [chr(ord("A") + i) for i in range(k - 1)] + [chr(ord("A") + k - 2)]
    elif kind == "random" and k > 1 and rng.random() < 0.3:
        labels = [rng.choice("AB") for _ in range(k)]
    else:
        labels = [chr(ord("A") + i) for i in range(k)]
    slope_of = {label: rng.choice(SLOPES) for label in sorted(set(labels))}
    return {
        "hom": hom,
        "ext1": ext1,
        "labels": labels,
        "slopes": [slope_of[label] for label in labels],
    }


def _table_spec(rng: random.Random, lam, kind: str) -> str:
    spec = {"n": sum(lam), "blocks": _blocks(rng, lam, shared_symbols=False)}
    spec["hom_table"] = _hom_table(rng, len(lam), kind)
    return spec_json(spec)


# --- the catalogue of digest-checked requests ---


@lru_cache(maxsize=None)
def catalogue(size: str) -> dict[str, tuple[Request, ...]]:
    """Every digest-checked request a stream of this size can contain,
    grouped by pool.  Built from CATALOGUE_SEED only."""
    rng = random.Random(f"{CATALOGUE_SEED}-{size}")
    pools: dict[str, tuple[Request, ...]] = {"verify": tuple(oracle_sweep_deck(rng, size))}

    small = []
    for _ in range(16 * (SMALL_SPEC_MAX_N[size] - 1)):
        n = rng.randint(2, SMALL_SPEC_MAX_N[size])
        lam = random_composition(rng, n, rng.randint(1, min(4, n)))
        small.append(_table_spec(rng, lam, "random"))
    for command in ("ext", "conditions", "stability"):
        pools[command] = tuple(Request(command, (command, "--spec", s)) for s in small)

    for n in CHAR_DEGREES[size]:
        rows = [("char", "--n", str(n))]
        rows += [("char", "--n", str(n), "--diagram", ",".join(map(str, d))) for d in partitions_of(n)]
        pools[f"char{n}"] = tuple(Request("char", argv) for argv in rows)

    for n in GENERATING_DEGREES[size]:
        entries = []
        for k in (1, 2, 3):
            for _ in range(2):
                ranks = [rng.randint(1, 3) for _ in range(k)]
                symbols = [rng.choice(("e1", f"e{i + 1}", "0")) for i in range(k)]
                variant = rng.choice(("trivial", "sign", "regular") if k == 1 else ("trivial", "sign"))
                argv = [
                    "generating", "--n", str(n),
                    "--ranks", ",".join(map(str, ranks)),
                    "--symbols", ",".join(symbols),
                    "--variant", variant,
                ]
                if variant != "regular" and rng.random() < 0.3:
                    argv += ["--coeff", ",".join(map(str, _exponents(rng, n, k)))]
                entries.append(Request("generating", tuple(argv)))
        pools[f"generating{n}"] = tuple(entries)

    for lam in COSET_SHAPES[size]:
        for kind in COSET_KINDS:
            command = kind.split("_")[0]
            table_kind = {"ext_full": "full", "ext_early": "early",
                          "stability_repeated": "repeated", "stability_full": "full"}[kind]
            pools[f"{kind}{lam}"] = tuple(
                Request(command, (command, "--spec", _table_spec(rng, lam, table_kind)))
                for _ in range(VARIANTS_PER_ENTRY)
            )
    return pools


def _exponents(rng: random.Random, n: int, k: int) -> list[int]:
    cuts = sorted(rng.randint(0, n) for _ in range(k - 1))
    bounds = [0, *cuts, n]
    return [b - a for a, b in zip(bounds, bounds[1:])]


# --- decks ---


def cli_interactive_deck(rng: random.Random, size: str) -> list[Request]:
    """48 small requests: 20 chern/rank, 12 ext/conditions/stability, one
    char per degree 4..12 and one generating per degree 2..8."""
    pools = catalogue(size)
    deck = []
    for kind, count in (("chern", 8), ("chern_json", 6), ("rank", 6)):
        for _ in range(count):
            spec = free_spec(rng, CHERN_MAX_N[size])
            argv = [kind.split("_")[0], "--spec", spec_json(spec)]
            if kind == "chern_json":
                argv.append("--json")
            deck.append(Request(kind, tuple(argv)))
    for command in ("ext", "conditions", "stability"):
        deck += [rng.choice(pools[command]) for _ in range(4)]
    for n in CHAR_DEGREES[size]:
        # half full tables, half single rows
        table, *rows = pools[f"char{n}"]
        deck.append(table if rng.random() < 0.5 else rng.choice(rows))
    deck += [rng.choice(pools[f"generating{n}"]) for n in GENERATING_DEGREES[size]]
    rng.shuffle(deck)
    return deck


def coset_scan_deck(rng: random.Random, size: str) -> list[Request]:
    """Per shape: one full-scan ext, one full-scan stability, two early-exit
    ext and two repeated-label stability requests, in seeded order.  The
    cheap kinds are two thirds of the deck, so the median is an early exit
    or a warm repeat and the tail is a full scan."""
    pools = catalogue(size)
    per_shape = ("ext_full", "stability_full", "ext_early", "ext_early",
                 "stability_repeated", "stability_repeated")
    deck = [rng.choice(pools[f"{kind}{lam}"]) for lam in COSET_SHAPES[size] for kind in per_shape]
    rng.shuffle(deck)
    return deck


def oracle_sweep_deck(rng: random.Random, size: str) -> list[Request]:
    """One full oracle sweep; it takes no seeded input."""
    return [Request("verify", ("verify", "--max-n", str(SWEEP_MAX_N[size])))]


DECKS = {
    "oracle_sweep": oracle_sweep_deck,
    "cli_interactive": cli_interactive_deck,
    "coset_scan": coset_scan_deck,
}


# --- machine speed ---


def reference_kernel_s() -> float:
    """Seconds one run of a fixed piece of pure-Python combinatorics takes,
    owned by the benchmark and never by the program: partitions, hook
    lengths, exact fractions and a multiset-permutation scan.  It runs
    between requests to measure how fast the machine is at that moment."""
    start = time.perf_counter()
    total = Fraction(0)
    for n in range(8, 13):
        for shape in partitions_of.__wrapped__(n):
            total += Fraction(hook_dimension(shape), multinomial(shape))
    counts, seq, arrangements = [3, 3, 2], [], []

    def arrange() -> None:
        if len(seq) == 8:
            arrangements.append(tuple(seq))
            return
        for j in range(3):
            if counts[j]:
                counts[j] -= 1
                seq.append(j + 1)
                arrange()
                seq.pop()
                counts[j] += 1

    arrange()
    sum(1 for t in arrangements for p in range(8) if t[p] == p % 3 + 1)
    return time.perf_counter() - start


# --- checkers ---


def output_digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:20]


@lru_cache(maxsize=None)
def recorded_digests() -> dict[str, str]:
    return json.loads(DIGEST_FILE.read_text())


def expected_output(request: Request) -> str:
    """The stdout a ``chern``, ``chern --json`` or ``rank`` request must
    print, by routes independent of the ones the CLI takes: the first Chern
    class by the blowup route (surface part plus the swap-trace oracle for
    the delta coefficient), the rank as multinomial * s * w."""
    from hilbtaut import BundleSpec, b_class, c1_via_blowup, invariant_restriction_rank

    spec = json.loads(request.argv[2])
    if request.kind == "rank":
        return f"{expected_rank(spec)}\n"
    obj = BundleSpec.build(
        [b["size"] for b in spec["blocks"]],
        [(b["rank"], b["c1"], b["rep"]) for b in spec["blocks"]],
    )
    cls = c1_via_blowup(b_class(obj), invariant_restriction_rank(obj))
    if request.kind == "chern":
        return cls.render_text() + "\n"
    payload = {"class": cls.to_json_dict(), "rank": expected_rank(spec), "spec_echo": spec}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def check(request: Request, digest: str) -> bool:
    """True when ``digest`` (of exit code and stdout) is the right one."""
    if request.kind in ("chern", "chern_json", "rank"):
        return digest == output_digest(0, expected_output(request))
    return recorded_digests().get(request.key) == digest
