"""The package root runs no submodule, each CLI command compiles and runs
only the submodules it uses and loads neither dataclasses nor inspect, and
`verify` compiles few lines that it never runs.

Every case runs in a fresh interpreter, so nothing an earlier test imported
counts; an audit hook records which hilbtaut source files were compiled and
which were executed, and a profile hook which functions were called.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilbtaut

EXPORTS = {
    "errors": [
        "IntegralityError", "ShapeMismatchError", "SizeLimitError",
        "SpecValidationError",
    ],
    "partitions": [
        "LabeledComposition", "Partition", "conjugate",
        "dimension", "enumerate_partitions", "index_p", "is_rectangular",
        "iter_cosets", "standard_tensor_multiplicity",
    ],
    "characters": [
        "CharacterTable", "CycleType", "character", "character_table",
        "class_size", "conjugacy_classes", "transposition_type",
    ],
    "divisors": ["DivisorClass"],
    "chern": [
        "BundleBlock", "BundleSpec", "b_class", "c1", "generating_polynomial",
        "r_number", "rank_G", "regular_checksum",
    ],
    "moduli": [
        "ConditionReport", "EndDims", "HomTable", "StabilityCertificate",
        "VanishingReport", "check_conditions", "equivariant_end_dims",
        "offdiagonal_ext1_vanishing", "stability_certificate", "stability_witnesses",
    ],
    "specs": ["SpecDocument", "parse_spec"],
    "cli": ["dispatch"],
    "verify": [
        "brute_force_character_table", "c1_via_blowup", "canonical_permutation",
        "inner_product", "invariant_restriction_rank", "permutation_character",
        "regular_checksum_via_irreps", "verify_all",
    ],
}

SPEC = {
    "n": 3,
    "blocks": [
        {"size": 2, "rank": 2, "c1": "e1", "rep": [2]},
        {"size": 1, "rank": 1, "c1": "e2", "rep": [1]},
    ],
}
TABLE = {
    "hom": [[1, 0], [0, 1]],
    "ext1": [[2, 0], [0, 4]],
    "labels": ["A", "B"],
    "slopes": ["1/2", "1/2"],
}

# what the root and any command need: the root, cli and the Chern layers below it
BASE = ["__init__", "chern", "cli", "divisors", "errors", "partitions"]

_PROBE = """
import json, os, sys
executed, compiled, called = [], [], set()

def audit(event, args):
    if event == "exec":
        executed.append(getattr(args[0], "co_filename", ""))
    elif event == "compile":
        compiled.append(str(args[1]))

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.addaudithook(audit)
sys.setprofile(profile)
{body}
sys.setprofile(None)
import hilbtaut
package = os.path.dirname(hilbtaut.__file__)
ran, built = (
    sorted(os.path.basename(f)[:-3] for f in files if os.path.dirname(f) == package)
    for files in (executed, compiled)
)

def unrun_lines(code):
    # the source lines of each function, class body, lambda or comprehension
    # under code that was never called, nested ones counted with their owner
    total = 0
    for const in code.co_consts:
        if isinstance(const, type(code)):
            if (const.co_filename, const.co_firstlineno, const.co_name) in called:
                total += unrun_lines(const)
            else:
                last = max(line for _, _, line in const.co_lines() if line is not None)
                total += last - const.co_firstlineno + 1
    return total

unrun = {{}}
for name in built:
    path = os.path.join(package, name + ".py")
    with open(path) as source:
        unrun[name] = unrun_lines(compile(source.read(), path, "exec"))
# standard-library modules no command needs: dataclasses alone pulls in
# inspect, ast, dis and tokenize; fractions pulls in decimal and numbers
stdlib = sorted(name for name in ("dataclasses", "fractions", "inspect") if name in sys.modules)
print(json.dumps({{
    "executed": ran, "compiled": built, "unrun": unrun, "stdlib": stdlib, "result": result,
}}))
"""


def _probe(body: str, **env: str) -> dict:
    # a fresh interpreter that imports the hilbtaut under test, installed or
    # not, with env added to the environment
    src = str(Path(hilbtaut.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body)],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_runs_no_submodule():
    # each submodule but cli is registered, unexecuted, at import: the
    # benchmark's span tracer reads sys.modules["hilbtaut.<layer>"] right
    # after it.  cli is left out, so that `python -m hilbtaut.cli` finds it
    # unregistered.
    out = _probe(
        "import hilbtaut\n"
        "result = sorted(name for name in sys.modules if name.startswith('hilbtaut.'))"
    )
    assert out["executed"] == ["__init__"]
    assert out["result"] == sorted(f"hilbtaut.{module}" for module in EXPORTS if module != "cli")


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["chern", "--spec", json.dumps(SPEC)], ["specs"]),
        (["rank", "--spec", json.dumps(SPEC)], ["specs"]),
        (["generating", "--n", "3", "--ranks", "2,1", "--symbols", "a,b"], []),
        (["char", "--n", "3"], ["characters"]),
        (["conditions", "--spec", json.dumps({**SPEC, "hom_table": TABLE})], ["moduli", "specs"]),
        (["ext", "--spec", json.dumps({**SPEC, "hom_table": TABLE})], ["moduli", "specs"]),
        (["stability", "--spec", json.dumps({**SPEC, "hom_table": TABLE})], ["moduli", "specs"]),
        (["verify", "--max-n", "2"], ["characters", "verify"]),
    ],
    ids=["chern", "rank", "generating", "char", "conditions", "ext", "stability", "verify"],
)
def test_each_command_runs_only_its_layers(argv, extra, tmp_path):
    # with no bytecode to read, as in a clean checkout run under
    # PYTHONDONTWRITEBYTECODE=1, each module a process imports is compiled
    # from source: a command compiles exactly the modules it runs.  Only
    # the spec commands compile specs; `verify` never compiles moduli or
    # scan_oracles, the coset-scan and grouping oracles' module.
    out = _probe(
        "import contextlib, io\n"
        "from hilbtaut.cli import dispatch\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    result = dispatch({argv!r})",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPYCACHEPREFIX=str(tmp_path),
    )
    assert out["result"] == 0
    assert out["compiled"] == out["executed"] == sorted(BASE + extra)
    # moduli parses hom-table slopes as Fractions
    assert out["stdlib"] == (["fractions"] if "moduli" in extra else [])


# The most source lines that a `verify --max-n 2` process may compile in
# functions, class bodies, lambdas and comprehensions that it never calls.
# 79 of the 222 are in cli: the other commands' handlers and argument
# types, and main, which dispatch does not call.
UNRUN_LINES_MAX = 222


def test_verify_compiles_only_the_modules_it_runs(tmp_path):
    # after the suites, compiling is the largest share of a cold verify
    # process that the program decides: verify compiles only the modules
    # it runs, and in them little that it does not run
    out = _probe(
        "import contextlib, io\n"
        "from hilbtaut.cli import dispatch\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    result = dispatch(['verify', '--max-n', '2'])",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPYCACHEPREFIX=str(tmp_path),
    )
    assert out["result"] == 0
    assert not {"moduli", "scan_oracles", "specs"} & set(out["compiled"])
    assert sum(out["unrun"].values()) <= UNRUN_LINES_MAX, out["unrun"]


def test_exports_are_the_home_modules_objects():
    out = _probe(
        "import importlib\n"
        "import hilbtaut\n"
        "result = {\n"
        "    'all': sorted(hilbtaut.__all__),\n"
        "    'same': [\n"
        "        getattr(hilbtaut, name) is getattr(importlib.import_module(f'hilbtaut.{module}'), name)\n"
        f"        for module, names in {EXPORTS!r}.items() for name in names\n"
        "    ],\n"
        "}"
    )
    assert out["result"]["all"] == sorted(name for names in EXPORTS.values() for name in names)
    assert len(out["result"]["all"]) == 50
    assert all(out["result"]["same"])


def test_unknown_names_and_submodules():
    out = _probe(
        "import hilbtaut\n"
        "try:\n"
        "    hilbtaut.no_such_name\n"
        "    result = None\n"
        "except AttributeError as exc:\n"
        "    result = [str(exc)]\n"
        "result.append(hilbtaut.cli.__name__)\n"
        "from hilbtaut import cli, moduli, verify\n"
        "result.append([m.__name__ for m in (cli, moduli, verify)])\n"
        "result.append('verify_all' in dir(hilbtaut) and 'cli' in dir(hilbtaut))"
    )
    assert out["result"] == [
        "module 'hilbtaut' has no attribute 'no_such_name'",
        "hilbtaut.cli",
        ["hilbtaut.cli", "hilbtaut.moduli", "hilbtaut.verify"],
        True,
    ]
