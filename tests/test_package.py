"""The package root runs no submodule, and each CLI command runs only the
submodules it uses.

Every case runs in a fresh interpreter, so nothing an earlier test imported
counts; an audit hook records which hilbtaut source files were executed.
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
        "IntegralityError", "ModuliDimensionMismatchError", "ShapeMismatchError",
        "SizeLimitError", "SpecValidationError",
    ],
    "partitions": [
        "LabeledComposition", "LabeledSetPartition", "Partition", "conjugate",
        "dimension", "enumerate_partitions", "index_p", "is_rectangular",
        "iter_cosets", "multinomial_index", "p_reduced", "reduce_once",
        "reduce_twice", "standard_tensor_multiplicity",
    ],
    "characters": [
        "CharacterTable", "CycleType", "RestrictionPair", "character",
        "character_table", "class_size", "conjugacy_classes",
        "restrict_to_transposition", "transposition_type",
    ],
    "divisors": ["ClassPolynomial", "DivisorClass"],
    "chern": [
        "BundleBlock", "BundleSpec", "b_class", "c1", "generating_polynomial",
        "r_number", "rank_G", "regular_checksum",
    ],
    "moduli": [
        "ConditionReport", "EndDims", "HomTable", "StabilityCertificate",
        "VanishingReport", "check_conditions", "equivariant_end_dims",
        "moduli_component_dim", "offdiagonal_ext1_vanishing", "stability_certificate",
    ],
    "cli": ["SpecDocument", "dispatch", "parse_spec"],
    "verify": [
        "brute_force_character_table", "c1_via_blowup", "canonical_permutation",
        "count_standard_tableaux", "cycle_type_of", "inner_product",
        "invariant_restriction_rank", "permutation_character",
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
executed = []
sys.addaudithook(
    lambda event, args: event == "exec" and executed.append(getattr(args[0], "co_filename", ""))
)
{body}
import hilbtaut
package = os.path.dirname(hilbtaut.__file__)
ran = sorted(os.path.basename(f)[:-3] for f in executed if os.path.dirname(f) == package)
print(json.dumps({{"executed": ran, "result": result}}))
"""


def _probe(body: str) -> dict:
    # a fresh interpreter that imports the hilbtaut under test, installed or not
    src = str(Path(hilbtaut.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body)],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_runs_no_submodule():
    # each submodule is registered, unexecuted, at import: the benchmark's
    # span tracer reads sys.modules["hilbtaut.<layer>"] right after it
    out = _probe(
        "import hilbtaut\n"
        "result = sorted(name for name in sys.modules if name.startswith('hilbtaut.'))"
    )
    assert out["executed"] == ["__init__"]
    assert out["result"] == sorted(f"hilbtaut.{module}" for module in EXPORTS)


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["chern", "--spec", json.dumps(SPEC)], []),
        (["rank", "--spec", json.dumps(SPEC)], []),
        (["generating", "--n", "3", "--ranks", "2,1", "--symbols", "a,b"], []),
        (["char", "--n", "3"], ["characters"]),
        (["conditions", "--spec", json.dumps({**SPEC, "hom_table": TABLE})], ["moduli"]),
        (["verify", "--max-n", "2"], ["characters", "verify"]),
    ],
    ids=["chern", "rank", "generating", "char", "conditions", "verify"],
)
def test_each_command_runs_only_its_layers(argv, extra):
    out = _probe(
        "import contextlib, io\n"
        "from hilbtaut.cli import dispatch\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    result = dispatch({argv!r})"
    )
    assert out["result"] == 0
    assert out["executed"] == sorted(BASE + extra)


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
    assert len(out["result"]["all"]) == 61
    assert all(out["result"]["same"])


def test_unknown_names_and_submodules():
    out = _probe(
        "import hilbtaut\n"
        "try:\n"
        "    hilbtaut.no_such_name\n"
        "    result = None\n"
        "except AttributeError as exc:\n"
        "    result = [str(exc)]\n"
        "from hilbtaut import cli, moduli, verify\n"
        "result.append([m.__name__ for m in (cli, moduli, verify)])\n"
        "result.append('verify_all' in dir(hilbtaut))"
    )
    assert out["result"] == [
        "module 'hilbtaut' has no attribute 'no_such_name'",
        ["hilbtaut.cli", "hilbtaut.moduli", "hilbtaut.verify"],
        True,
    ]
