"""The oracle suites as a whole: which closed forms they reach, the suite
list that the benchmark's tracer times, and each suite's check count; and
the CLI as a whole, which reaches every public member of the layers and every
function of verify but a few references.

Each suite is a generator of check outcomes wrapped by one runner; the
undecorated generator stays reachable as the suite's ``__wrapped__``, so a
few hundred outcomes of each can be drawn without running it to the end.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import itertools
import json
import sys
from pathlib import Path
from types import CodeType

import pytest

import hilbtaut
from hilbtaut import (
    characters,
    chern,
    cli,
    divisors,
    moduli,
    partitions,
    scan_oracles,
    specs,
    verify,
)

LAYERS = (partitions, characters, chern, divisors, moduli, specs)
ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"

# Every suite with the bound verify_all gives it at max_n = 6, then the two
# that only the tests run.
SUITES = (
    (verify.coset_count_suite, 6),
    (verify.character_suite, 6),
    (verify.rectangularity_suite, 8),
    (verify.restriction_suite, 10),
    (verify.rank_oracle_suite, 6),
    (verify.generating_suite, 6),
    (verify.regular_suite, 6),
    (scan_oracles.coset_scan_suite, 7),
    (scan_oracles.grouping_suite,),
)
OUTCOMES_PER_SUITE = 300

# Public names that no suite has to reach.  A class stands for its own
# constructor; a method or property is named Class.attribute.
TYPES = {
    "chern.BundleSpec.k",
    "moduli.ConditionReport.satisfied",
    "moduli.EndDims",
    "moduli.HomTable.end1_self",
    "specs.SpecDocument",
}
RENDERERS = {"divisors.DivisorClass.render_text"}
JSON_HELPERS = {
    "divisors.DivisorClass.to_json_dict",
    "moduli.HomTable.to_json_dict",
    "moduli.HomTable.from_json_dict",
    "specs.SpecDocument.echo",
    "specs.parse_spec",
}
# Closed forms with no oracle yet.  Empty, and kept empty: a new closed form
# comes with the suite that checks it.
KNOWN_GAPS: set[str] = set()


def _public_code(module):
    """(name, code object) of each public function of module, and of the
    constructor and each public method or property of its public classes;
    a class without a constructor of its own gets the code None."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", obj.__code__
        elif inspect.isclass(obj):
            members = vars(obj)
            constructor = members.get("__init__", members.get("__new__"))
            constructor = getattr(constructor, "__func__", constructor)
            yield f"{layer}.{name}", getattr(constructor, "__code__", None)
            for attr, member in members.items():
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{layer}.{name}.{attr}", member.__code__


def _reached_by(run) -> dict[int, CodeType]:
    # the code objects called while run() runs, by id; the memo caches are
    # emptied first, so that what an earlier test computed is computed
    # again here
    for module in (*LAYERS, verify):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    reached: dict[int, CodeType] = {}

    def profile(frame, event, arg):
        if event == "call":
            reached[id(frame.f_code)] = frame.f_code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return reached


def test_every_closed_form_meets_an_oracle_suite():
    # "every closed form keeps an independent oracle" as a checked rule:
    # each public function and method of the five layers and of specs runs
    # under some suite, or is on one of the lists above
    def run():
        for suite, *bound in SUITES:
            for _ in itertools.islice(suite.__wrapped__(*bound), OUTCOMES_PER_SUITE):
                pass

    reached = _reached_by(run)
    public = dict(name_code for module in LAYERS for name_code in _public_code(module))
    allowed = TYPES | RENDERERS | JSON_HELPERS | KNOWN_GAPS
    assert allowed <= set(public), sorted(allowed - set(public))
    unreached = {name for name, code in public.items() if code is None or id(code) not in reached}
    assert unreached <= allowed, sorted(unreached - allowed)
    assert KNOWN_GAPS == set()


def test_swap_trace_oracle_runs_no_chern_code():
    # the oracle takes the fibre dimension from its coset census, never from
    # rank_G, so it shares no code with the closed form it checks; the cap
    # check before the census scans reads partitions._index, and may
    spec = chern.BundleSpec.build((2, 1, 2), [(2, "e1", (1, 1)), (1, "e2", (1,)), (3, "e3", (2,))])
    reached = _reached_by(lambda: verify.invariant_restriction_rank(spec))
    assert id(verify._coset_census.__wrapped__.__code__) in reached
    ran_chern = {code.co_name for code in reached.values() if code.co_filename == chern.__file__}
    assert not ran_chern, sorted(ran_chern)


def test_swap_trace_suite_reads_the_censuses_the_coset_count_suite_checked(monkeypatch):
    # verify_all runs the coset-count suite first; the swap-trace suite then
    # finds every census it reads in the cache and scans no coset again
    verify._coset_census.cache_clear()
    assert verify.coset_count_suite(6).ok
    scanned = []
    real = verify.iter_cosets
    monkeypatch.setattr(verify, "iter_cosets", lambda lam: scanned.append(lam) or real(lam))
    assert verify.rank_oracle_suite(6).ok
    assert scanned == []


def test_census_cache_holds_the_largest_sweep():
    # verify --max-n 9 sweeps 169 compositions, all of which stay cached
    compositions = set(verify._sweep_compositions(9))
    assert len(compositions) == 169
    assert len(compositions) <= verify._coset_census.cache_info().maxsize


SPEC = {
    "n": 3,
    "blocks": [
        {"size": 2, "rank": 2, "c1": "e1", "rep": [2]},
        {"size": 1, "rank": 1, "c1": "e2", "rep": [1]},
    ],
    "hom_table": {
        "hom": [[1, 0], [0, 1]],
        "ext1": [[2, 0], [0, 4]],
        "labels": ["A", "B"],
        "slopes": ["1/2", "1/2"],
    },
}
# The same spec with a table that fails the grouping condition, and one
# that fails the stability certificate.
STUCK = json.dumps({**SPEC, "hom_table": {**SPEC["hom_table"], "hom": [[1, 1], [1, 1]]}})
UNSTABLE = json.dumps({**SPEC, "hom_table": {**SPEC["hom_table"], "labels": ["A", "A"]}})
GENERATING = ["generating", "--n", "3", "--ranks", "2,1", "--symbols", "e1,e2"]
# Every command, and every option of it, once.
CLI_CALLS = (
    ["chern", "--spec", json.dumps(SPEC)],
    ["chern", "--spec", json.dumps(SPEC), "--json"],
    ["rank", "--spec", json.dumps(SPEC)],
    ["ext", "--spec", json.dumps(SPEC)],
    ["ext", "--spec", json.dumps(SPEC), "--json"],
    ["conditions", "--spec", json.dumps(SPEC)],
    ["conditions", "--spec", STUCK],
    ["stability", "--spec", json.dumps(SPEC)],
    ["stability", "--spec", UNSTABLE],
    ["char", "--n", "4"],
    ["char", "--n", "4", "--diagram", "2,1,1"],
    GENERATING,
    [*GENERATING, "--coeff", "2,1"],
    [*GENERATING, "--variant", "sign"],
    ["generating", "--n", "3", "--ranks", "2", "--symbols", "e", "--variant", "regular"],
    ["verify", "--max-n", "2"],
    ["verify", "--max-n", "2", "--json"],
)
# The verify functions that no command runs: exported references, each read
# by the function named beside it in the file named beside it.
REFERENCES = {
    "c1_via_blowup": ("perfbench/workloads.py", "expected_output"),
    "invariant_restriction_rank": ("perfbench/workloads.py", "expected_output"),
}


def _nested_codes(code: CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _nested_codes(const)


def _verify_functions():
    """(name, code objects) of each function verify.py defines, private ones
    included, at the top level or in a class: its own code and that of the
    functions defined inside it, so that a decorator factory such as _suite,
    which runs as the module loads, counts as served when what it builds runs."""
    for node in ast.parse(Path(verify.__file__).read_text()).body:
        owner, prefix, defs = verify, "", [node]
        if isinstance(node, ast.ClassDef):
            owner, prefix, defs = getattr(verify, node.name), f"{node.name}.", node.body
        for fn in defs:
            if isinstance(fn, ast.FunctionDef):
                member = vars(owner)[fn.name]
                member = getattr(member, "fget", None) or member
                yield prefix + fn.name, list(_nested_codes(inspect.unwrap(member).__code__))


def test_every_public_member_serves_a_cli_command():
    # code that no command reaches is dead weight: each function, method and
    # constructor of the layers, and each function verify.py defines but the
    # references, runs under one of the calls above
    def run():
        for argv in CLI_CALLS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.dispatch(argv) == cli.EXIT_OK, argv

    reached = _reached_by(run)
    public = dict(name_code for module in LAYERS for name_code in _public_code(module))
    unreached = {name for name, code in public.items() if code is None or id(code) not in reached}
    assert not unreached, sorted(unreached)
    unserved = {
        name
        for name, codes in _verify_functions()
        if not any(id(code) in reached for code in codes)
    }
    assert unserved == set(REFERENCES), sorted(unserved ^ set(REFERENCES))
    assert set(REFERENCES) <= set(hilbtaut.__all__)


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_each_reference_export_has_its_reader(name):
    path, function = REFERENCES[name]
    tree = ast.parse((ROOT / path).read_text())
    reader = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function
    )
    called = {
        node.func.id
        for node in ast.walk(reader)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert name in called


def test_verify_all_runs_the_suites_the_tracer_times(monkeypatch):
    # perfbench/run.py names each suite whose traced time it reports; a
    # suite renamed or added here without it loses its verify.<suite>_s
    tree = ast.parse(RUN.read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "VERIFY_SUITES" for target in node.targets)
    )
    ran = []
    for name, suite in list(vars(verify).items()):
        if name.endswith("_suite") and not name.startswith("_"):
            assert callable(getattr(suite, "__wrapped__", None)), name

            def recorded(bound, name=name):
                ran.append(name)
                return verify.SuiteResult(name, 1, [], 0)

            monkeypatch.setattr(verify, name, recorded)
    verify.verify_all(6)
    assert tuple(ran) == traced


# Each suite's check count in verify_all(n), in verify_all's order.
CHECK_COUNTS = {
    2: (12, 5, 11, 28, 30, 4, 3),
    3: (41, 9, 18, 43, 138, 10, 6),
    4: (109, 15, 29, 65, 564, 20, 9),
    5: (258, 23, 44, 95, 1992, 34, 12),
    6: (536, 35, 66, 137, 7116, 56, 15),
    7: (1053, 35, 96, 193, 23748, 86, 18),
}


@pytest.mark.parametrize("max_n", sorted(CHECK_COUNTS))
def test_verify_all_check_counts_pinned(max_n):
    # `verify --max-n N` prints these counts: a check dropped or added at
    # any bound changes its output
    results = verify.verify_all(max_n)
    assert all(result.ok for result in results)
    assert tuple(result.checks for result in results) == CHECK_COUNTS[max_n]
