"""Command line interface: spec parsing, output formats, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import hilbtaut
from hilbtaut import chern, cli, moduli, partitions, specs, verify
from hilbtaut.characters import character_table
from hilbtaut.chern import BundleSpec, c1, rank_G
from hilbtaut.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    dispatch,
)
from hilbtaut.errors import SpecValidationError
from hilbtaut.specs import parse_spec

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
    assert "blocks[0]: rank must be a positive integer" in err(lambda d: d["blocks"][0].update(rank=0))


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


# rank 2 on one block of 20,000 points: a rank of 2^20000, 6,021 digits
HUGE_RANK = json.dumps(
    {"n": 20000, "blocks": [{"size": 20000, "rank": 2, "c1": "e1", "rep": [20000]}]}
)
# self-extension counts of 4,300 digits, the most a JSON integer may have,
# whose sum end1 has 4,301
HUGE_EXT = json.dumps(
    {**SPEC, "hom_table": {**SPEC["hom_table"], "ext1": [[int("9" * 4300)] * 2] * 2}}
)
HUGE_GENERATING = ["generating", "--n", "1000", "--ranks", "1000000", "--symbols", "a"]


@pytest.mark.parametrize(
    "argv",
    [
        ["chern", "--spec", HUGE_RANK],
        ["chern", "--spec", HUGE_RANK, "--json"],
        ["rank", "--spec", HUGE_RANK],
        [*HUGE_GENERATING, "--coeff", "1000"],
        HUGE_GENERATING,
        [*HUGE_GENERATING, "--variant", "regular"],
        ["ext", "--spec", HUGE_EXT],
        ["ext", "--spec", HUGE_EXT, "--json"],
    ],
    ids=["chern", "chern-json", "rank", "coeff", "polynomial", "regular", "ext", "ext-json"],
)
def test_an_answer_past_the_digit_cap_is_refused_before_output(argv):
    # Python refuses to print an int of more than 4,300 digits; each answer
    # is checked against the documented cap of 4,000 before any of it is
    # printed, and the command exits 1 with one line naming the cap
    err = io.StringIO()
    with redirect_stderr(err):
        assert run_cli(*argv) == (EXIT_VALIDATION, "")
    assert err.getvalue() == "error: an integer of the answer exceeds the digit bound 4000\n"


@pytest.mark.parametrize("size, printed", [(3999, True), (4000, False)])
def test_digit_cap_is_exact(size, printed):
    # rank 10 on one block of `size` points has the rank 10^size: 4,000
    # digits print, 4,001 do not
    spec = json.dumps(
        {"n": size, "blocks": [{"size": size, "rank": 10, "c1": "e", "rep": [size]}]}
    )
    code, out = run_cli("rank", "--spec", spec)
    assert (code, out) == ((EXIT_OK, f"{10**size}\n") if printed else (EXIT_VALIDATION, ""))


def test_a_broken_closed_form_on_a_huge_answer_is_an_internal_failure(monkeypatch, capsys):
    # content sums moved by 1 leave r_number a remainder; its guard names
    # the 6,000-digit numerator by its size, where str() of it would raise
    # a ValueError that dispatch reports as bad input
    real = chern.content_sum
    monkeypatch.setattr(chern, "content_sum", lambda d: real(d) + 1)
    assert run_cli("chern", "--spec", HUGE_RANK) == (EXIT_INTERNAL, "")
    err = capsys.readouterr().err
    assert err.startswith("internal consistency failure: r_number: <int of ")
    assert err.count("\n") == 1 and len(err.encode()) < 300, err


def _one_block(size: int, rep: list[int]) -> dict:
    return {"n": size, "blocks": [{"size": size, "rank": 1, "c1": "e1", "rep": rep}]}


_ARMS = math.comb(1998, 999)  # the dimension of (1000, 1^999)


@pytest.mark.parametrize(
    "spec, answers",
    [
        (_one_block(3 * 10**6, [3 * 10**6]), ("1", "1*e1")),
        (_one_block(10**6, [999_999, 1]), ("999999", "999999*e1 - 1*delta")),
        (_one_block(10**6, [1] * 10**6), ("1", "1*e1 - 1*delta")),
        # a hook with two long arms: content sum 0, so r_number is rank / 2
        (_one_block(1999, [1000] + [1] * 999), (str(_ARMS), f"{_ARMS}*e1 - {_ARMS // 2}*delta")),
    ],
    ids=["row", "hook", "column", "two-long-arms"],
)
@pytest.mark.parametrize("command", ["rank", "chern"])
def test_a_block_of_a_million_points_is_answered_cold(tmp_path, spec, answers, command):
    # a dimension and a coset index cost what their answers do, not a
    # factorial of the block size nor a factor per pair of rows; each spec is read from a file, as a
    # million-row column is too long for one argument
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = _run_module(command, "--spec", str(path), timeout=2)
    expected = answers[0] if command == "rank" else answers[1]
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, expected + "\n", "")


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


def test_hom_table_of_another_size_exits_with_one_line(capsys):
    data = json.loads(json.dumps(SPEC))
    data["hom_table"] = {
        "hom": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "ext1": [[2, 0, 0], [0, 4, 0], [0, 0, 1]],
        "labels": ["A", "B", "C"],
        "slopes": ["1/2"] * 3,
    }
    assert run_cli("chern", "--spec", json.dumps(data)) == (EXIT_VALIDATION, "")
    assert capsys.readouterr().err == "error: hom_table: 3 rows for a spec with 2 blocks\n"


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


def _argv_on(mutate, command: str = "chern") -> list[str]:
    data = json.loads(json.dumps(SPEC))
    mutate(data)
    return [command, "--spec", json.dumps(data)]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["chern", "--spec", LONG], id="text-neither-path-nor-json"),
        pytest.param(_argv_on(lambda d: d.update({LONG: 1})), id="unknown-spec-key"),
        pytest.param(_argv_on(lambda d: d["blocks"][0].update({LONG: 1})), id="unknown-block-key"),
        pytest.param(_argv_on(lambda d: d["hom_table"].update({LONG: 1})), id="unknown-table-key"),
        pytest.param(_argv_on(lambda d: d.update(n=LONG)), id="long-n"),
        pytest.param(_argv_on(lambda d: d["blocks"][0].update(c1="1" + LONG)), id="long-symbol"),
        pytest.param(_argv_on(lambda d: d["blocks"][0].update(rep=[1] * 50_000)), id="rep-wrong-size"),
        pytest.param(_argv_on(lambda d: d["blocks"][0].update(size=10**3999)), id="size-digits"),
        pytest.param(
            _argv_on(lambda d: d["blocks"][0].update(rep=list(range(1, 50_001)))), id="rep-increasing"
        ),
        pytest.param(
            _argv_on(lambda d: d["hom_table"].update(labels=[LONG, LONG], slopes=[1, 2])),
            id="label-two-slopes",
        ),
        pytest.param(_argv_on(lambda d: d["hom_table"].update(k=10**4000)), id="declared-k-digits"),
        pytest.param(_argv_on(lambda d: d.update(n=10**3999)), id="n-digits"),
        pytest.param(
            _argv_on(lambda d: d["hom_table"]["hom"][0].__setitem__(0, 10**3999), "ext"),
            id="not-simple-digits",
        ),
        pytest.param(["char", "--n", "4", "--diagram", ",".join(["1"] * 50_000)], id="diagram-wrong-size"),
        pytest.param(
            ["generating", "--n", "2", "--ranks", ",".join(["1"] * 20_000),
             "--symbols", ",".join(["a"] * 20_000), "--coeff", "0" + ",-1" * 19_999],
            id="negative-exponents",
        ),
    ],
)
def test_long_input_gives_one_short_error_line(capsys, argv):
    # a message names a long value by its type and size, never echoes it
    assert run_cli(*argv) == (EXIT_VALIDATION, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200, err


def _block_argv(key, value) -> list[str]:
    return _argv_on(lambda d: d["blocks"][0].update({key: value}))


# inputs that BundleBlock, Partition, the exponent check and
# CharacterTable.row refuse, with no check of their own in the CLI
@pytest.mark.parametrize(
    "argv, place",
    [
        *[(_block_argv("rank", v), "blocks[0]") for v in (0, True, "2", 2.0)],
        *[(_block_argv("c1", v), "blocks[0]") for v in (5, ["a"], None)],
        *[
            (_block_argv("rep", v), "blocks[0].rep")
            for v in ("2", 2, {}, [2.0], [True, True], None, [1, 2])
        ],
        (["generating", "--n", "3", "--ranks", "2,1", "--symbols", "e1,e2", "--coeff", "2,1,0"],
         "exponent"),
        (["char", "--n", "3", "--diagram", "3,1"], "diagram"),
    ],
)
def test_library_checks_refuse_with_one_placed_line(capsys, argv, place):
    assert run_cli(*argv) == (EXIT_VALIDATION, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert place in err and len(err.encode()) < 200, err


@pytest.mark.parametrize("rep", [{}, {"3": 1}, "21", "2"], ids=repr)
def test_rep_that_is_no_array_is_refused_whole(capsys, rep):
    # a JSON object or string rep is not read as its keys or its characters
    assert run_cli(*_block_argv("rep", rep)) == (EXIT_VALIDATION, "")
    assert capsys.readouterr().err == (
        f"error: blocks[0].rep: partition must be a sequence of integers, got {rep!r}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["char", "--n", "2", "--diagram"], ["generating", "--n", "2", "--ranks", "1", "--symbols", "a", "--coeff"]],
    ids=["diagram", "coeff"],
)
def test_long_integer_list_option_is_not_echoed(capsys, argv):
    # a usage error: the usage line, then one short error line
    assert run_cli(*argv, LONG) == (EXIT_USAGE, "")
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith(f"{argv[-1]}: expected comma-separated integers, got <str of length 100000>")


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


@pytest.mark.parametrize(
    "argv",
    [["char", "--n"], ["generating", "--ranks", "1", "--symbols", "a", "--n"], ["verify", "--max-n"]],
    ids=["char", "generating", "verify"],
)
@pytest.mark.parametrize("value", ["9" * 5000, LONG], ids=["5000-digits", "100000-chars"])
def test_long_integer_option_gives_short_usage_error(capsys, argv, value):
    assert run_cli(*argv, value) == (EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert all(len(line.encode()) < 200 for line in err.splitlines()), err
    assert err.endswith(f"{argv[-1]}: invalid int value: <str of length {len(value)}>\n")
    # a short bad value is echoed as argparse's own int type echoes it
    assert run_cli(*argv, "x") == (EXIT_USAGE, "")
    assert capsys.readouterr().err.endswith(f"argument {argv[-1]}: invalid int value: 'x'\n")


def _spec_of_sizes(*sizes) -> str:
    blocks = [{"size": size, "rank": 1, "c1": "e", "rep": [size]} for size in sizes]
    labels = [chr(ord("A") + i) for i in range(len(sizes))]
    table = {
        "hom": [[int(i == j) for j in range(len(sizes))] for i in range(len(sizes))],
        "ext1": [[0] * len(sizes) for _ in sizes],
        "labels": labels,
        "slopes": list(range(len(sizes))),
    }
    return json.dumps({"n": sum(sizes), "blocks": blocks, "hom_table": table})


@pytest.mark.parametrize(
    "argv",
    [
        ["char", "--n", "9" * 4000],
        ["verify", "--max-n", "9" * 4000],
        ["generating", "--n", "9" * 4000, "--ranks", "1,1", "--symbols", "a,b"],
        ["ext", "--spec", _spec_of_sizes(300, 200, 100)],
        ["stability", "--spec", _spec_of_sizes(300, 200, 100)],
    ],
    ids=["char", "verify", "generating", "ext", "stability"],
)
def test_size_cap_refusal_is_one_short_line(capsys, argv):
    # the refused size is named by its bit length once it passes 180 bits
    assert run_cli(*argv) == (EXIT_VALIDATION, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200, err


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


def test_conditions_names_the_block_that_is_not_simple():
    # three blocks, the second at fault: the witness counts blocks from 1
    doc = {
        "n": 3,
        "blocks": [{"size": 1, "rank": 1, "c1": f"e{i}", "rep": [1]} for i in (1, 2, 3)],
        "hom_table": {
            "hom": [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
            "ext1": [[0] * 3 for _ in range(3)],
            "labels": ["A", "B", "C"],
            "slopes": ["0", "0", "0"],
        },
    }
    assert run_cli("conditions", "--spec", json.dumps(doc)) == (
        EXIT_OK,
        "distinct_labels = yes\n"
        "vanishing_grouping = none\n"
        "witness: block 2 is not simple: hom[2][2] = 2\n",
    )


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


def test_generating_polynomial_render():
    # one line per nonzero monomial, highest exponent tuple first, and 0
    # for a polynomial with no terms
    assert run_cli("generating", "--n", "2", "--ranks", "1,1", "--symbols", "a,b") == (
        EXIT_OK,
        "t1^2: 1*a\nt1*t2: 1*a + 1*b - 1*delta\nt2^2: 1*b\n",
    )
    code, out = run_cli("generating", "--n", "3", "--ranks", "1,2,1", "--symbols", "a,0,0")
    assert (code, out.splitlines()) == (
        EXIT_OK,
        [
            "t1^3: 1*a",
            "t1^2*t2: 4*a - 2*delta",
            "t1^2*t3: 2*a - 1*delta",
            "t1*t2^2: 4*a - 5*delta",
            "t1*t2*t3: 4*a - 6*delta",
            "t1*t3^2: 1*a - 1*delta",
            "t2^3: -2*delta",
            "t2^2*t3: -5*delta",
            "t2*t3^2: -2*delta",
        ],
    )
    assert run_cli("generating", "--n", "2", "--ranks", "1", "--symbols", "0") == (EXIT_OK, "0\n")


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


def _run_python(*args, timeout):
    # a subprocess, so that a call that never returns fails the test; it
    # imports the hilbtaut under test, installed or not
    src = str(Path(hilbtaut.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def _run_module(*argv, timeout):
    return _run_python("-m", "hilbtaut", *argv, timeout=timeout)


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


@pytest.mark.parametrize(
    "argv",
    [
        *(
            ["generating", "--n", str(2**63), "--ranks", "1", "--symbols", "a", "--variant", variant]
            for variant in ("trivial", "sign", "regular")
        ),
        [
            "generating", "--n", str(2**63 - 1), "--ranks", "1,1", "--symbols", "a,b",
            "--coeff", f"{2**63 - 2},1",
        ],
    ],
    ids=["trivial", "sign", "regular", "coeff"],
)
def test_generating_degree_is_capped(argv):
    # refused before any factorial of n: at 2**63 a factorial overflows an
    # index, and one coefficient of degree 2**63 - 1 would not finish
    proc = _run_module(*argv, timeout=2)
    assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, "")
    assert proc.stderr == f"error: n = {argv[2]} exceeds the generating bound 1000\n"


def test_unexpected_exception_is_one_line(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(specs, "_cmd_rank", broken)
    assert run_cli("rank", "--spec", "{}") == (EXIT_INTERNAL, "")
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_index_error_is_an_internal_error(monkeypatch, capsys):
    # no input check raises IndexError, so one raised inside a command is a
    # bug in the program, never the input's fault: exit 2, not 1
    def broken(args):
        return ()[0]

    monkeypatch.setattr(cli, "_cmd_char", broken)
    assert run_cli("char", "--n", "3") == (EXIT_INTERNAL, "")
    assert capsys.readouterr().err == "internal error: IndexError: tuple index out of range\n"


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
        return verify.SuiteResult("broken suite", 2, ["first", "second"], 0)

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


def test_help_text_is_argparse_own_at_every_width(monkeypatch):
    # build_parser reads the width once and hands it to each formatter; the
    # text must be what argparse's own formatter, reading the width itself,
    # prints for every parser, at each width
    real = shutil.get_terminal_size
    reads = []
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: reads.append(a) or real(*a))
    tops = set()
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        reads.clear()
        parser = cli.build_parser()
        assert len(reads) == 1
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parsers = [parser, *commands.choices.values()]
        assert len(parsers) == 9
        for p in parsers:
            texts = p.format_help(), p.format_usage()
            p.formatter_class = argparse.HelpFormatter
            assert (p.format_help(), p.format_usage()) == texts, (columns, p.prog)
        tops.add(parser.format_help())
    # the width reaches the text, so the comparison above is not vacuous
    assert len(tops) == 3


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


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("n", ["12", "3"], ids=["table-77kb", "table-short"])
def test_closed_stdout_pipe_exits_quietly(n, unbuffered):
    # the reader of stdout is gone before the first byte.  Unbuffered, the
    # first print meets the closed pipe inside the command; buffered, a 77 KB
    # table meets it there too and a short one at main's flush.  Either way:
    # no traceback, no "Exception ignored" line from the flush at exit, and
    # not the internal-error code.
    src = str(Path(hilbtaut.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hilbtaut", "char", "--n", n],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["chern", "--spec", "{}"],
        ["rank", "--spec", "{}"],
        ["ext", "--spec", "{}"],
        ["conditions", "--spec", "{}"],
        ["stability", "--spec", "{}"],
        ["char", "--n", "3"],
        ["generating", "--n", "3", "--ranks", "1", "--symbols", "a"],
        ["verify"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_subcommand_declares_its_handler(argv, monkeypatch):
    # a handler is read from its home module when the parser is built (cli's
    # own) or when it runs (a spec command's, in specs), so a patched handler
    # is the one its command runs
    home = cli if argv[0] in ("char", "generating", "verify") else specs
    handler = f"_cmd_{argv[0]}"
    assert handler in vars(home)
    monkeypatch.setattr(home, handler, lambda parsed: ("ran", parsed))
    args = cli.build_parser().parse_args(argv)
    assert args.run(args) == ("ran", args)


def test_dispatch_lets_a_broken_pipe_through(monkeypatch):
    # dispatch leaves the process's streams alone; main handles the pipe
    def closed(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_cmd_char", closed)
    with pytest.raises(BrokenPipeError):
        dispatch(["char", "--n", "3"])


def test_module_entrypoint(spec_file):
    proc = _run_module("chern", "--spec", spec_file, timeout=None)
    assert proc.returncode == 0
    assert proc.stdout == "4*e1 + 4*e2 - 5*delta\n"


# main() under an atexit hook that reports, after main has returned
# control to the interpreter, whether the collector was frozen
_EXIT_PROBE = """
import atexit, gc, sys
from hilbtaut.cli import main
atexit.register(lambda: print(f"frozen at exit: {gc.get_freeze_count() > 0}", file=sys.stderr))
main()
"""


@pytest.mark.parametrize(
    "rank, code, out, err",
    [
        (2, EXIT_OK, "12\n", ""),
        (0, EXIT_VALIDATION, "", "error: blocks[0]: rank must be a positive integer, got 0\n"),
    ],
    ids=["answer", "refused"],
)
def test_main_freezes_the_collector_and_still_runs_exit_hooks(rank, code, out, err):
    # the closing collections skip the frozen objects; sys.exit still runs
    # every atexit hook and the final flush
    argv = _argv_on(lambda d: d["blocks"][0].update(rank=rank), "rank")
    proc = _run_python("-c", _EXIT_PROBE, *argv, timeout=None)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert proc.stderr == err + "frozen at exit: True\n"


def test_profiler_still_reports_a_cli_run():
    # cProfile catches main's SystemExit and then prints its table; an
    # os._exit in main would end the process first, skipping every atexit
    # hook as well
    proc = _run_python("-m", "cProfile", "-m", "hilbtaut", "verify", "--max-n", "2", timeout=None)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert "all oracles passed\n" in proc.stdout and " function calls " in proc.stdout


def test_cli_module_runs_once_without_a_warning(spec_file):
    # the package root does not register hilbtaut.cli, so runpy finds it
    # unimported and gives no RuntimeWarning; and no module the command
    # runs (specs, for a spec command) imports it again as hilbtaut.cli,
    # which would run the whole file a second time
    src = str(Path(hilbtaut.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hilbtaut.cli", "rank", "--spec", spec_file],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    timings = proc.stderr.splitlines()
    assert proc.returncode == EXIT_OK
    assert all(line.startswith("import time:") for line in timings), proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in timings}
    assert "hilbtaut" in imported and "hilbtaut.cli" not in imported
    assert proc.stdout == _run_module("rank", "--spec", spec_file, timeout=None).stdout == "12\n"
