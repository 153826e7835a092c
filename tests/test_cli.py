"""Command line interface: spec parsing, output formats, exit codes."""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import hilbtaut
from hilbtaut import cli, moduli, partitions, verify
from hilbtaut.characters import character_table
from hilbtaut.chern import BundleSpec, c1, rank_G
from hilbtaut.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    dispatch,
    parse_spec,
)
from hilbtaut.errors import SpecValidationError

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


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(list(argv))
    return code, buf.getvalue()


def test_parse_spec_from_text_and_path(spec_file):
    doc_text = parse_spec(json.dumps(SPEC))
    doc_path = parse_spec(spec_file)
    assert doc_text.spec == doc_path.spec
    assert doc_text.hom_table == doc_path.hom_table
    assert tuple(doc_text.spec.lam) == (2, 1)
    assert doc_text.echo()["n"] == 3


def test_parse_spec_errors_are_positional():
    def err(mutate):
        data = json.loads(json.dumps(SPEC))
        mutate(data)
        with pytest.raises(SpecValidationError) as exc:
            parse_spec(json.dumps(data))
        return str(exc.value)

    assert "unknown spec keys" in err(lambda d: d.update(extra=1))
    assert "n:" in err(lambda d: d.update(n="3"))
    assert "blocks" in err(lambda d: d.update(blocks=[]))
    assert "blocks[1]: missing 'rank'" in err(lambda d: d["blocks"][1].pop("rank"))
    assert "blocks[0].rep" in err(lambda d: d["blocks"][0].update(rep=[1, 2]))
    assert "not a partition of 2" in err(lambda d: d["blocks"][0].update(rep=[3]))
    assert "sum to" in err(lambda d: d.update(n=5))
    assert "hom_table" in err(lambda d: d["hom_table"].update(k=4))
    assert "hom_table" in err(lambda d: d["hom_table"].pop("slopes"))
    assert "blocks[0].rank" in err(lambda d: d["blocks"][0].update(rank=0))


def test_parse_spec_malformed_json():
    with pytest.raises(SpecValidationError) as exc:
        parse_spec('{"n": 3,,}')
    msg = str(exc.value)
    assert "malformed JSON" in msg
    assert "line 1" in msg and "column" in msg


@pytest.mark.parametrize("text", ["[1]", "null", "5", '"x"', " [ ]"])
def test_non_object_spec_text(text):
    # valid JSON that is not an object is neither read as a path nor accepted
    with pytest.raises(SpecValidationError, match="^spec must be a JSON object$"):
        parse_spec(text)
    err = io.StringIO()
    with redirect_stderr(err):
        assert run_cli("chern", "--spec", text)[0] == EXIT_VALIDATION
    assert err.getvalue() == "error: spec must be a JSON object\n"


@pytest.mark.parametrize("symbol", ["e\n", "e\r\n", "\u00e9"])
@pytest.mark.parametrize("command", ["chern", "rank"])
def test_symbol_with_trailing_newline_is_refused(command, symbol):
    # "e\n" used to pass the symbol check, and chern printed 1*e and a blank line
    doc = {"n": 1, "blocks": [{"size": 1, "rank": 1, "c1": symbol, "rep": [1]}]}
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch([command, "--spec", json.dumps(doc)])
    assert (code, out.getvalue()) == (EXIT_VALIDATION, "")
    assert err.getvalue() == f"error: blocks[0]: invalid surface symbol {symbol!r}\n"


@pytest.mark.parametrize("inline", [True, False])
def test_deeply_nested_spec_is_malformed_json(tmp_path, inline):
    # json.loads recurses once per bracket; past the recursion limit that was
    # an internal error and exit 2
    text = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(text)
    source = text if inline else str(path)
    with pytest.raises(SpecValidationError, match="^malformed JSON: nested too deeply$"):
        parse_spec(source)
    err = io.StringIO()
    with redirect_stderr(err):
        assert run_cli("chern", "--spec", source) == (EXIT_VALIDATION, "")
    assert err.getvalue() == "error: malformed JSON: nested too deeply\n"


@pytest.mark.parametrize("inline", [True, False])
def test_integer_past_the_digit_limit_is_malformed_json(tmp_path, inline):
    # json.loads reads integers with int(), which refuses more than 4,300
    # digits with a plain ValueError and a hint about sys.set_int_max_str_digits
    text = json.dumps({**SPEC, "n": 0}).replace('"n": 0', '"n": ' + "9" * 5000)
    path = tmp_path / "long.json"
    path.write_text(text)
    source = text if inline else str(path)
    with pytest.raises(SpecValidationError, match="^malformed JSON: an integer has more than "):
        parse_spec(source)
    err = io.StringIO()
    with redirect_stderr(err):
        assert run_cli("chern", "--spec", source) == (EXIT_VALIDATION, "")
    assert err.getvalue().startswith("error: malformed JSON: ")
    assert err.getvalue().count("\n") == 1 and len(err.getvalue().encode()) < 200


@pytest.mark.parametrize("blank", ["", "  ", "\n"])
def test_blank_spec_is_refused(blank):
    # "" used to be read as the path ".", a directory
    with pytest.raises(SpecValidationError, match="^spec is empty$"):
        parse_spec(blank)
    err = io.StringIO()
    with redirect_stderr(err):
        assert run_cli("chern", "--spec", blank) == (EXIT_VALIDATION, "")
    assert err.getvalue() == "error: spec is empty\n"


def test_unreadable_spec_path_and_bracket_text(tmp_path):
    with pytest.raises(SpecValidationError, match="^cannot read spec: .*missing.json"):
        parse_spec(str(tmp_path / "missing.json"))
    with pytest.raises(SpecValidationError, match="^malformed JSON"):
        parse_spec("[1,2")
    with pytest.raises(SpecValidationError, match="^spec must be a path or JSON text, got 5$"):
        parse_spec(5)


def test_chern_text(spec_file):
    code, out = run_cli("chern", "--spec", spec_file)
    assert code == EXIT_OK
    assert out == "4*e1 + 4*e2 - 5*delta\n"


def test_chern_json_roundtrip(spec_file):
    code, out = run_cli("chern", "--spec", spec_file, "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    doc = parse_spec(spec_file)
    assert payload["class"] == c1(doc.spec).to_json_dict()
    assert payload["rank"] == rank_G(doc.spec) == 12
    # the echo is itself a valid spec describing the same bundle
    doc2 = parse_spec(json.dumps(payload["spec_echo"]))
    assert doc2.spec == doc.spec
    assert doc2.hom_table == doc.hom_table


def test_output_deterministic(spec_file):
    first = run_cli("chern", "--spec", spec_file, "--json")
    second = run_cli("chern", "--spec", spec_file, "--json")
    assert first == second


def test_rank(spec_file):
    assert run_cli("rank", "--spec", spec_file) == (EXIT_OK, "12\n")


def test_ext_text(spec_file):
    code, out = run_cli("ext", "--spec", spec_file)
    assert code == EXIT_OK
    assert out.splitlines() == [
        "end0 = 1",
        "end1 = 6",
        "offdiagonal_ext1_vanishes = yes",
        "moduli_component_dim = 6",
    ]


def test_ext_json(spec_file):
    code, out = run_cli("ext", "--spec", spec_file, "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {
        "end0": 1,
        "end1": 6,
        "offdiagonal_vanishes": True,
        "failing_coset": None,
        "moduli_component_dim": 6,
        "dimension_mismatch": None,
    }


def test_ext_scans_cosets_once(spec_file, monkeypatch):
    calls = []
    scan = moduli.offdiagonal_ext1_vanishing
    monkeypatch.setattr(moduli, "offdiagonal_ext1_vanishing", lambda *a: calls.append(a) or scan(*a))
    assert run_cli("ext", "--spec", spec_file)[0] == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("rep", [[5, 4, 4, 2], [10, 10, 8, 7, 3, 2]])
def test_ext_any_block_size(rep):
    # the tangent multiplicity is the distinct-part count, for blocks of any size
    n = sum(rep)
    spec = {
        "n": n,
        "blocks": [{"size": n, "rank": 2, "c1": "e", "rep": rep}],
        "hom_table": {"hom": [[1]], "ext1": [[3]], "labels": ["A"], "slopes": [1]},
    }
    code, out = run_cli("ext", "--spec", json.dumps(spec))
    assert code == EXIT_OK
    assert out.splitlines()[:2] == ["end0 = 1", f"end1 = {len(set(rep)) * 3}"]


def test_ext_dimension_mismatch(tmp_path):
    data = json.loads(json.dumps(SPEC))
    data["n"] = 4
    data["blocks"][0] = {"size": 3, "rank": 1, "c1": "e1", "rep": [2, 1]}
    path = tmp_path / "hook.json"
    path.write_text(json.dumps(data))
    code, out = run_cli("ext", "--spec", str(path))
    assert code == EXIT_OK
    assert "moduli_component_dim = mismatch (image 6, tangent 8)" in out
    code, out = run_cli("ext", "--spec", str(path), "--json")
    payload = json.loads(out)
    assert payload["dimension_mismatch"] == {"image": 6, "tangent": 8}
    assert payload["moduli_component_dim"] is None


def test_ext_requires_hom_table(tmp_path):
    data = json.loads(json.dumps(SPEC))
    del data["hom_table"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(data))
    for command in ("ext", "conditions", "stability"):
        code, _ = run_cli(command, "--spec", str(path))
        assert code == EXIT_VALIDATION, command
    # chern and rank do not need the table
    assert run_cli("chern", "--spec", str(path))[0] == EXIT_OK


# a string longer than any message may echo
LONG = "x" * 100_000


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("slopes", ["1/0", "1"], "slopes must be exact fractions"),
        ("hom", 5, "hom must be a 2x2 matrix of integers"),
        ("labels", 5, "labels must be a list of strings"),
        ("labels", "AB", "labels must be a list of strings"),
        ("k", [2], "k must be an integer"),
        ("k", None, "k must be an integer"),
        ("hom", [[1.9, 0], [0, True]], "hom must be a 2x2 matrix of integers"),
        ("slopes", [0.5, 1], "slopes must be exact fractions"),
        ("slopes", ["1", "1/0"], "slopes must be exact fractions: slope 2: zero denominator$"),
        ("slopes", ["1/2", "1.5"], "slopes must be exact fractions: slope 2: not an integer or"),
        ("slopes", [" 1/2", "1"], "slopes must be exact fractions: slope 1: not an integer or"),
        # a long wrong value is named by its type, not echoed
        pytest.param("slopes", LONG, "slopes must be exact fractions, got str$", id="long-slopes"),
        pytest.param("labels", LONG, "labels must be a list of strings, got str$", id="long-labels"),
        pytest.param(
            "locally_free", LONG, "locally_free must be true or false, got str$", id="long-locally-free"
        ),
        pytest.param("k", LONG, "k must be an integer, got str$", id="long-k"),
        pytest.param(None, LONG, "hom table must be an object, got str$", id="long-table"),
    ],
)
def test_hom_table_json_errors_exit_cleanly(tmp_path, capsys, key, value, message):
    # key None replaces the whole table
    data = json.loads(json.dumps(SPEC))
    if key is None:
        data["hom_table"] = value
    else:
        data["hom_table"][key] = value
    with pytest.raises(SpecValidationError, match=message):
        parse_spec(json.dumps(data))
    path = tmp_path / "bad_table.json"
    path.write_text(json.dumps(data))
    code, out = run_cli("stability", "--spec", str(path))
    assert (code, out) == (EXIT_VALIDATION, "")
    err = capsys.readouterr().err
    assert err.startswith("error: hom_table: ") and err.count("\n") == 1
    assert len(err.encode()) < 200


def test_slope_with_an_exponent_exits_at_once(tmp_path, capsys):
    # Fraction alone reads "1e30000000" as a 30-million-digit integer and
    # does not finish; a long slope's message names its place, not its digits
    data = json.loads(json.dumps(SPEC))
    path = tmp_path / "slopes.json"
    for slope in ("1e30000000", "9" * 5000 + ".5"):
        data["hom_table"]["slopes"] = ["1/2", slope]
        path.write_text(json.dumps(data))
        started = time.perf_counter()
        assert run_cli("ext", "--spec", str(path)) == (EXIT_VALIDATION, "")
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().err == (
            "error: hom_table: slopes must be exact fractions: slope 2: "
            "not an integer or 'p/q' string\n"
        )


def test_documented_slopes_still_parse():
    # integers and "p/q" strings, signed or not, as the benchmark and the
    # README write them
    data = json.loads(json.dumps(SPEC))
    for slopes, expected in (
        (["-1", "-1"], (-1, -1)),
        ([0, "0"], (0, 0)),
        (["5/2", "10/4"], (Fraction(5, 2),) * 2),
        (["-3/2", -2], (Fraction(-3, 2), -2)),
    ):
        data["hom_table"]["slopes"] = slopes
        data["hom_table"]["labels"] = ["A", "A" if expected[0] == expected[1] else "B"]
        assert parse_spec(json.dumps(data)).hom_table.slopes == expected


def test_conditions_text(spec_file):
    code, out = run_cli("conditions", "--spec", spec_file)
    assert code == EXIT_OK
    assert out.splitlines() == [
        "distinct_labels = yes",
        "vanishing_grouping = {1} {2}",
    ]


def test_conditions_unsatisfied(tmp_path):
    data = json.loads(json.dumps(SPEC))
    data["hom_table"]["hom"] = [[1, 1], [1, 1]]
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(data))
    code, out = run_cli("conditions", "--spec", str(path))
    assert code == EXIT_OK
    assert "vanishing_grouping = none" in out
    assert "witness:" in out


def test_stability_text(spec_file):
    code, out = run_cli("stability", "--spec", spec_file)
    assert code == EXIT_OK
    assert out.splitlines() == [
        "stability_certificate = yes (2 nontrivial cosets)",
        "coset (1, 2, 1): witness position 2",
        "coset (2, 1, 1): witness position 1",
    ]


def test_stability_failure(tmp_path):
    data = json.loads(json.dumps(SPEC))
    data["hom_table"]["labels"] = ["A", "A"]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    code, out = run_cli("stability", "--spec", str(path))
    assert code == EXIT_OK
    assert out.splitlines() == [
        "stability_certificate = no",
        "failing_coset = (1, 2, 1)",
    ]


def test_char_table():
    code, out = run_cli("char", "--n", "3")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "character table of degree 3",
        "        (3) (2,1) (1,1,1)",
        "sizes     2     3       1",
        "(3)       1     1       1",
        "(2,1)    -1     0       2",
        "(1,1,1)   1    -1       1",
    ]


def test_char_single_diagram():
    code, out = run_cli("char", "--n", "3", "--diagram", "2,1")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[-1].startswith("(2,1)")
    assert len(lines) == 4
    code, _ = run_cli("char", "--n", "3", "--diagram", "3,1")
    assert code == EXIT_VALIDATION
    code, _ = run_cli("char", "--n", "3", "--diagram", "1,2")
    assert code == EXIT_VALIDATION


# sha256 of `char` stdout as the per-cell renderer printed it before `char`
# read the value rows: the whole table of every degree the partition cap
# allows, and two single rows
CHAR_DIGESTS = {
    ("--n", "1"): "9e9c3278b7bcafe8dff40917680ef10683f96d59c5d2820633778af88604b748",
    ("--n", "2"): "d0cbea69c5a370892c2cc0493e8556d46ac6e19860f7a1d195ea9a0f6fb661c6",
    ("--n", "3"): "87dd417dfaf213495332a1cb3a8c4814ef2be5c35ebe0575224f055fbfe61972",
    ("--n", "4"): "4fc10afd8c6cbc8400d457eff6c00807cf527ff440e796b65d672555bbd64926",
    ("--n", "5"): "d77b8e546151511d42b4064e305c9fe08fa0485d1f958376bf591603994ebaf3",
    ("--n", "6"): "7dbde5b50c7192c2e4fbadd67ce1da0762bd207b947268230b94f79f07b78a0d",
    ("--n", "7"): "76a6e75a3845f129cc1fb07831d46d098c979785aef2d1e8b62bbd0ece7ace46",
    ("--n", "8"): "d5eaeaa7186f558c77c5b268d152e72a717c1207a01d8b0bfaa259b129681e31",
    ("--n", "9"): "0c997392d5d515dc999636cbed557baea02017db5cb68d04dd611fd4c44dc60f",
    ("--n", "10"): "7d91c8b002cb869c643c0bf1cc77348e5dc80252a447b0a1be253c23dfa997b7",
    ("--n", "11"): "780ed3ff854f9d22d4b2dc05a1cc4ac4c73396c284a2692a744823177031f635",
    ("--n", "12"): "7feb39bbb6bfed0681f74a510a700bebee70c9965266d1bfa812c291c197b17e",
    ("--n", "13"): "0820d135fb3858625d0d88322916d2c7cbc2c628ca513e0b6f1464c81fdf0358",
    ("--n", "14"): "33e67addb726946ff44c85c03758a4c6f77f24f9292ad5d86796656574f10e5c",
    ("--n", "12", "--diagram", "5,4,2,1"):
        "095592a1bda843992e798fb5cdddee25d7b4494287035d12bb6efbaa21f7ce3a",
    ("--n", "14", "--diagram", ",".join(["1"] * 14)):
        "51ca3db3bd4ff74094c62f71a82d6ef84483f4d2c39023610fd7d1c4c05a7929",
}


@pytest.mark.parametrize("argv", CHAR_DIGESTS, ids=" ".join)
def test_char_output_pinned(argv):
    code, out = run_cli("char", *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == CHAR_DIGESTS[argv]


def test_char_validates_no_partition_per_cell(monkeypatch):
    # a warm degree-12 table has 77 x 77 cells; rendering it must not
    # build a Partition for each of them
    character_table(12)
    made = []
    new = partitions.Partition.__new__

    def counting(cls, *args):
        made.append(None)
        return new(cls, *args)

    monkeypatch.setattr(partitions.Partition, "__new__", counting)
    assert partitions.Partition((2, 1)) == (2, 1) and len(made) == 1
    made.clear()
    code, _ = run_cli("char", "--n", "12")
    assert code == EXIT_OK
    assert len(made) < 100


def test_generating_outputs():
    assert run_cli("generating", "--n", "2", "--ranks", "2", "--symbols", "e") == (
        EXIT_OK,
        "t1^2: 2*e - 1*delta\n",
    )
    code, out = run_cli(
        "generating",
        "--n", "3",
        "--ranks", "2,1",
        "--symbols", "e1,e2",
        "--coeff", "2,1",
    )
    assert (code, out) == (EXIT_OK, "4*e1 + 4*e2 - 5*delta\n")
    code, out = run_cli(
        "generating", "--n", "2", "--ranks", "2", "--symbols", "e",
        "--variant", "sign",
    )
    assert (code, out) == (EXIT_OK, "t1^2: 2*e - 3*delta\n")
    code, out = run_cli(
        "generating", "--n", "3", "--ranks", "2", "--symbols", "e",
        "--variant", "regular",
    )
    assert (code, out) == (EXIT_OK, "24*e - 24*delta\n")


def test_generating_validation():
    # ranks and symbols must pair up
    code, _ = run_cli("generating", "--n", "2", "--ranks", "2,1", "--symbols", "e")
    assert code == EXIT_VALIDATION
    # the regular variant takes a single input and no coefficient request
    code, _ = run_cli(
        "generating", "--n", "3", "--ranks", "2,1", "--symbols", "e1,e2",
        "--variant", "regular",
    )
    assert code == EXIT_VALIDATION
    code, _ = run_cli(
        "generating", "--n", "3", "--ranks", "2", "--symbols", "e",
        "--variant", "regular", "--coeff", "3",
    )
    assert code == EXIT_VALIDATION
    # coefficient arity must match the input count; absent monomials are
    # simply the zero class
    code, _ = run_cli(
        "generating", "--n", "3", "--ranks", "2,1", "--symbols", "e1,e2",
        "--coeff", "2,1,0",
    )
    assert code == EXIT_VALIDATION
    code, out = run_cli(
        "generating", "--n", "3", "--ranks", "2,1", "--symbols", "e1,e2",
        "--coeff", "2,2",
    )
    assert (code, out) == (EXIT_OK, "0\n")
    # malformed integer list is a usage error
    code, _ = run_cli("generating", "--n", "2", "--ranks", "2,x", "--symbols", "e")
    assert code == EXIT_USAGE


def _run_module(*argv, timeout):
    # a subprocess, so that a call that never returns fails the test; it
    # imports the hilbtaut under test, installed or not
    src = str(Path(hilbtaut.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "hilbtaut", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_generating_coeff_is_computed_alone():
    # the full expansion has 1,221,759 monomials; one coefficient is one
    # closed multinomial expression
    proc = _run_module(
        "generating", "--n", "40", "--ranks", "1,2,3,1,2,3", "--symbols", "a,b,c,d,e,f",
        "--coeff", "10,10,5,5,5,5", timeout=2,
    )
    spec = BundleSpec.build(
        (10, 10, 5, 5, 5, 5),
        [
            (rank, symbol, (size,))
            for rank, symbol, size in zip((1, 2, 3, 1, 2, 3), "abcdef", (10, 10, 5, 5, 5, 5))
        ],
    )
    assert (proc.returncode, proc.stdout) == (EXIT_OK, c1(spec).render_text() + "\n")


def test_generating_expansion_is_capped():
    proc = _run_module(
        "generating", "--n", "40", "--ranks", "1,2,3,1,2,3", "--symbols", "a,b,c,d,e,f",
        timeout=2,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, "")
    assert proc.stderr == "error: 1221759 monomials exceed the bound 25000\n"


def test_unexpected_exception_is_one_line(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "rank", broken)
    assert run_cli("rank", "--spec", "{}") == (EXIT_INTERNAL, "")
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


_JUNK = (
    None, True, False, 0, -1, 2, 3, 1.5, 1e300, "x", "1/0", "", "1e30000000", "1.5", " 1/2",
    [], [1], [[1.9]], [None, [2]], {}, {"n": 1},
)


def _json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _mutate(rng, doc):
    # one mutation at a random place: a junk value, a deleted key, or the
    # old value nested one list deeper
    path = rng.choice(list(_json_paths(doc)))
    if not path:
        return rng.choice(_JUNK)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    action = rng.randrange(4)
    if action == 0 and isinstance(parent, dict):
        del parent[path[-1]]
    elif action == 1:
        parent[path[-1]] = [parent[path[-1]]]
    else:
        parent[path[-1]] = rng.choice(_JUNK)
    return doc


def test_fuzzed_specs_exit_cleanly():
    # mutated spec and hom_table JSON through every spec command: each ends
    # in an answer or a one-line validation error, in bounded total time
    rng = random.Random(2510)
    commands = (
        ("chern",), ("chern", "--json"), ("rank",), ("ext",), ("ext", "--json"),
        ("conditions",), ("stability",),
    )
    started = time.perf_counter()
    for _ in range(600):
        doc = json.loads(json.dumps(SPEC))
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(rng, doc)
        argv = [*rng.choice(commands), "--spec", json.dumps(doc)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = dispatch(argv)
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_INTERNAL, EXIT_USAGE), argv
        assert "Traceback" not in err.getvalue(), argv
        assert not err.getvalue().startswith("internal error"), (argv, err.getvalue())
    assert time.perf_counter() - started < 5.0


def test_verify_subcommand():
    code, out = run_cli("verify", "--max-n", "3")
    assert code == EXIT_OK
    assert out.endswith("all oracles passed\n")
    assert out.count("ok   ") == 7


@pytest.mark.parametrize("max_n", ["0", "1", "-3"])
def test_verify_refuses_vacuous_bound(max_n):
    # below 2 some suites would make no check and still print "ok"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(["verify", "--max-n", max_n])
    assert code == EXIT_VALIDATION
    assert out.getvalue() == ""
    assert err.getvalue() == f"error: max_n must be at least 2, got {max_n}\n"


@pytest.mark.parametrize(
    "max_n, message",
    [
        ("10", "3628800 cosets exceed the bound 1000000"),
        ("40", "max_n = 40 needs partitions of 44, past the partition bound 14"),
    ],
)
def test_verify_refuses_past_the_caps_at_once(max_n, message):
    # the caps are checked before any suite runs; --max-n 9 still answers
    proc = _run_module("verify", "--max-n", max_n, timeout=5)
    assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, "")
    assert proc.stderr == f"error: {message}\n"


def test_verify_json_reports_each_suite():
    code, out = run_cli("verify", "--max-n", "3", "--json")
    plain_code, plain = run_cli("verify", "--max-n", "3")
    assert code == plain_code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"ok", "suites"} and doc["ok"] is True
    for suite in doc["suites"]:
        assert set(suite) == {"name", "checks", "failures", "seconds"}
        assert suite["failures"] == [] and suite["seconds"] >= 0
    reported = [f"ok   {s['name']} ({s['checks']} checks)" for s in doc["suites"]]
    assert "\n".join(reported) + "\nall oracles passed\n" == plain


def test_verify_json_keeps_the_failure_exit_code(monkeypatch, capsys):
    def failing(max_n):
        return verify.SuiteResult("broken suite", 2, ["first", "second"])

    monkeypatch.setattr(verify, "regular_suite", failing)
    code, out = run_cli("verify", "--max-n", "2", "--json")
    assert code == EXIT_INTERNAL
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["suites"][-1]["name"] == "broken suite"
    assert doc["suites"][-1]["failures"] == ["first", "second"]
    assert run_cli("verify", "--max-n", "2")[0] == EXIT_INTERNAL
    assert capsys.readouterr().err.count("oracle disagreement") == 2


def test_verify_output_pinned():
    # every suite's check count at the default bound: a dropped or added
    # check changes this output
    assert run_cli("verify", "--max-n", "6") == (
        EXIT_OK,
        "ok   coset counts vs index numbers (536 checks)\n"
        "ok   characters vs permutation brute force (35 checks)\n"
        "ok   rectangularity vs tensor multiplicity (66 checks)\n"
        "ok   transposition restriction sums (137 checks)\n"
        "ok   chern delta coefficient vs swap-trace oracle (7116 checks)\n"
        "ok   generating polynomial coefficients (56 checks)\n"
        "ok   regular-representation checksum (15 checks)\n"
        "all oracles passed\n",
    )


def test_exit_codes(spec_file, tmp_path):
    assert run_cli("nonsense")[0] == EXIT_USAGE
    assert run_cli("chern")[0] == EXIT_USAGE
    assert run_cli()[0] == EXIT_USAGE
    assert run_cli("chern", "--spec", str(tmp_path / "missing.json"))[0] == EXIT_VALIDATION
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("chern", "--spec", str(bad))[0] == EXIT_VALIDATION
    assert EXIT_INTERNAL == 2
    assert run_cli("chern", "--spec", spec_file)[0] == EXIT_OK


def test_module_entrypoint(spec_file):
    proc = _run_module("chern", "--spec", spec_file, timeout=None)
    assert proc.returncode == 0
    assert proc.stdout == "4*e1 + 4*e2 - 5*delta\n"
