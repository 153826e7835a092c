"""Size caps are module constants read at each check, with no per-call
override, the README names exactly those caps, the Ext path needs no
character tables, the Chern closed forms need no characters at all, only
verify.py and scan_oracles.py enumerate for their own sake, only moduli
and scan_oracles import fractions, cli binds the characters, specs
and verify modules and specs binds moduli only as the package's lazy
modules, class sizes and transposition types stop at the partition bound,
every module-level cache is bounded, no check is an assert statement, no
raise message echoes a value through `!r` or a call such as tuple(...),
nor does a long library argument, an integrality guard formats only short
values and no bare ArithmeticError is raised, no float is computed but the clock
reads that time verify's suites, every module reads each name it imports,
and every source and test file parses as the oldest Python that
pyproject.toml declares."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

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
from hilbtaut.errors import ShapeMismatchError, SizeLimitError

_NO_CAP_PARAMETER = [
    partitions.enumerate_partitions,
    partitions.bounded_index_p,
    partitions.iter_cosets,
    moduli.check_conditions,
    moduli.offdiagonal_ext1_vanishing,
    moduli.equivariant_end_dims,
    moduli.stability_certificate,
    moduli.stability_witnesses,
    verify.invariant_restriction_rank,
    verify._coset_census,
    scan_oracles.vanishing_by_enumeration,
    scan_oracles.stability_by_enumeration,
]


def test_caps_have_no_per_call_override():
    for fn in _NO_CAP_PARAMETER:
        params = inspect.signature(fn).parameters
        assert not [p for p in params if p.startswith("max_")], fn.__qualname__
    for fn in (characters.character_table, characters.conjugacy_classes):
        assert list(inspect.signature(fn).parameters) == ["m"], fn.__qualname__
    assert not _names_from_characters(moduli)


def _imported_names(module, top_level: bool = False) -> set[str]:
    # dotted names; `from . import characters` gives ".characters".  With
    # top_level, only the statements of the module body itself count: the
    # imports that run when the module is imported.
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in tree.body if top_level else ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            imported.add(name)
            imported.update(f"{name}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


def _names_from_characters(module) -> set[str]:
    return {name for name in _imported_names(module) if "characters" in name.split(".")}


def test_chern_closed_forms_need_no_restriction_tables():
    # b_class and r_number take the content sum from partitions, with no
    # pair-index table; the swap-trace oracle that reads characters is in
    # verify.  Of the product modules only moduli (its witness generator)
    # walks cosets or permutations; the oracles that do live in verify.
    assert not _names_from_characters(chern)
    assert not hasattr(partitions, "_reduction_indices")
    enumerators = {"iter_cosets", "permutations"}
    for module in (partitions, characters, divisors, chern, cli, specs):
        found = {name for name in _imported_names(module) if name.split(".")[-1] in enumerators}
        assert not found, (module.__name__, found)


def test_only_slopes_and_inner_products_import_fractions():
    # divisor classes and inner products are ints; a Fraction is read only
    # as a hom-table slope (moduli) and made only as the seeded slopes of
    # the coset-scan oracle's tables (scan_oracles)
    importers = set()
    for path in Path(divisors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {node.module}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            else:
                continue
            if "fractions" in names:
                importers.add(path.stem)
    assert importers == {"moduli", "scan_oracles"}


def test_cli_binds_command_layers_only_as_modules():
    # `from . import moduli` binds the root's lazy module, which runs when a
    # command first reads from it; a name imported from it would run the
    # layer at `import hilbtaut.cli`, or at the first spec command's import
    # of specs.  That chern, rank and generating run none of them is
    # test_package's test_each_command_runs_only_its_layers.
    for module, layers in ((cli, {"characters", "specs", "verify"}), (specs, {"moduli"})):
        everywhere, top = (
            {name for name in _imported_names(module, top_level=level) if layers & set(name.split("."))}
            for level in (False, True)
        )
        assert everywhere == top == {f".{layer}" for layer in layers}, module.__name__


def test_module_caches_are_bounded():
    for module in (partitions, characters, divisors, chern, moduli, cli, specs, verify, scan_oracles):
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                assert obj.cache_info().maxsize is not None, f"{module.__name__}.{name}"


# the float sites the package allows, by module and enclosing definition:
# verify._suite's clock read, the wall time that `verify --json` reports
_FLOAT_SITES: list[tuple[str, str]] = [
    ("verify", "import time"),
    ("verify._suite.runner.suite", "time.perf_counter()"),
    ("verify._suite.runner.suite", "time.perf_counter()"),
]

# the standard-library modules whose every reading is a float
_FLOAT_MODULES = ("time", "statistics")

# the math functions whose value is a float
_FLOAT_MATH = frozenset(
    "sqrt cbrt exp exp2 expm1 log log2 log10 log1p pow fsum hypot dist fmod modf frexp"
    " ldexp fabs copysign sin cos tan asin acos atan atan2 degrees radians sinh cosh"
    " tanh asinh acosh atanh erf erfc gamma lgamma".split()
)


def _float_sites(node: ast.AST, scope: str):
    # (scope, what) for each float literal, true division, float() call,
    # .random() or .uniform() call, float-valued math function, read as
    # math.x or imported by name, and import or call of time or statistics,
    # under node
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        func = child.func if isinstance(child, ast.Call) else None
        if isinstance(child, ast.Constant) and isinstance(child.value, (float, complex)):
            yield scope, repr(child.value)
        elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
            yield scope, "/"
        elif isinstance(func, ast.Name) and func.id == "float":
            yield scope, "float()"
        elif isinstance(func, ast.Attribute) and func.attr in ("random", "uniform"):
            yield scope, f".{func.attr}()"
        elif (
            isinstance(child, ast.Attribute) and child.attr in _FLOAT_MATH
            and isinstance(child.value, ast.Name) and child.value.id == "math"
        ):
            yield scope, f"math.{child.attr}"
        elif isinstance(child, ast.ImportFrom) and child.module == "math":
            yield from ((scope, f"math.{a.name}") for a in child.names if a.name in _FLOAT_MATH)
        elif isinstance(child, ast.Import):
            yield from ((scope, f"import {a.name}") for a in child.names if a.name in _FLOAT_MODULES)
        elif isinstance(child, ast.ImportFrom) and child.module in _FLOAT_MODULES:
            yield from ((scope, f"{child.module}.{a.name}") for a in child.names)
        elif (
            isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in _FLOAT_MODULES
        ):
            yield scope, f"{func.value.id}.{func.attr}()"
        yield from _float_sites(child, inner)


def test_arithmetic_is_exact():
    # ints and Fractions only: a float rounds, and two routes that round
    # differently can disagree on an exact answer
    src = Path(partitions.__file__).parent
    found = sorted(
        site
        for path in src.glob("*.py")
        for site in _float_sites(ast.parse(path.read_text()), path.stem)
    )
    assert found == _FLOAT_SITES


def test_sources_parse_as_the_oldest_declared_python():
    # only one interpreter runs the tests, so syntax newer than the declared
    # floor would otherwise pass them and fail on an install that pip allows
    root = Path(partitions.__file__).resolve().parents[2]
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (root / "pyproject.toml").read_text())
    floor = (int(declared[1]), int(declared[2]))
    for path in [*(root / "src" / "hilbtaut").glob("*.py"), *(root / "tests").glob("*.py")]:
        ast.parse(path.read_text(), str(path), feature_version=floor)


def test_float_valued_math_is_a_float_site():
    tree = ast.parse("import math\nfrom math import comb, sqrt\ndef f(x):\n    return math.log(x)\n")
    assert list(_float_sites(tree, "m")) == [("m", "math.sqrt"), ("m.f", "math.log")]


def test_clock_and_statistics_are_float_sites():
    tree = ast.parse(
        "import os, time\nfrom statistics import mean\n"
        "def f(x):\n    return time.time() - statistics.median(x)\n"
    )
    assert list(_float_sites(tree, "m")) == [
        ("m", "import time"), ("m", "statistics.mean"),
        ("m.f", "time.time()"), ("m.f", "statistics.median()"),
    ]


def test_readme_caps_match_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Sizes are capped"))
    named = set(re.findall(r"`(\w+)\.(MAX_\w+)`", paragraph))
    for module_name, constant in named:
        module = importlib.import_module(f"hilbtaut.{module_name}")
        assert type(getattr(module, constant, None)) is int, f"{module_name}.{constant}"
    defined = {
        (path.stem, name.id)
        for path in Path(partitions.__file__).parent.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for name in ast.walk(node)
        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
        and name.id.startswith("MAX_")
    }
    assert named == defined


def test_no_assert_in_the_package():
    # `python -O` strips assert statements; every check in the package
    # raises instead
    src = Path(partitions.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# calls whose text grows with their argument
_ECHOING_CALLS = {"tuple", "list", "set", "sorted", "str", "repr"}


def _echoes(part: ast.AST) -> bool:
    if not isinstance(part, ast.FormattedValue):
        return False
    call = part.value
    return part.conversion == ord("r") or (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id in _ECHOING_CALLS
    )


def test_no_raise_message_echoes_a_repr():
    # a value in an error message goes through errors._brief, which names a
    # long one by its type and size; `!r` or a formatted tuple(...) or
    # str(...) would echo all of it
    src = Path(partitions.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and any(map(_echoes, ast.walk(node.exc)))
    ]
    assert found == []


def _called(node: ast.AST, names) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def _index_names(fn: ast.AST) -> set[str]:
    # the names fn binds to a position: the counter of a loop over
    # enumerate(...), or an assignment from a .index(...) call
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.For) and _called(node.iter, {"enumerate"}):
            target = node.target.elts[0] if isinstance(node.target, ast.Tuple) else node.target
            if isinstance(target, ast.Name):
                names.add(target.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "index"
            for call in ast.walk(node.value)
        ):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def _integrality_guards(tree: ast.AST, scope: str) -> tuple[set[str], list[str]]:
    # the functions under tree that build an IntegralityError, and each
    # value formatted in its message that is not a _brief(...), a len(...)
    # or an index name of the function
    guards, found = set(), []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        indices = _index_names(fn)
        for call in ast.walk(fn):
            if _called(call, {"IntegralityError"}):
                guards.add(f"{scope}.{fn.name}")
                found += [
                    f"{scope}.{fn.name}:{part.lineno}"
                    for part in ast.walk(call)
                    if isinstance(part, ast.FormattedValue)
                    and not _called(part.value, {"_brief", "len"})
                    and not (isinstance(part.value, ast.Name) and part.value.id in indices)
                ]
    return guards, found


def test_integrality_messages_format_only_short_values():
    # a guard reports a bug, and its line must survive a 6,000-digit
    # numerator, which str() of an int refuses past 4,300 digits
    guards, found = set(), []
    for path in sorted(Path(partitions.__file__).parent.glob("*.py")):
        more, bad = _integrality_guards(ast.parse(path.read_text()), path.stem)
        guards |= more
        found += bad
    assert found == []
    assert guards == {
        "partitions._dimension", "chern.c1", "chern._coefficient",
        "verify.brute_force_character_table", "verify.inner_product", "verify._swap_trace",
    }


def test_integrality_rule_flags_a_raw_value():
    tree = ast.parse(
        "def f(xs, num):\n"
        "    for i, x in enumerate(xs):\n"
        "        j = xs.index(x)\n"
        "        raise IntegralityError(f'{i} {j} {len(xs)} {_brief(num)} {num} {x + 1}')\n"
    )
    assert _integrality_guards(tree, "m") == ({"m.f"}, ["m.f:4", "m.f:4"])


def test_no_bare_arithmetic_error_is_raised():
    # an integrality failure is an IntegralityError, which dispatch reports
    # as an internal consistency failure
    src = Path(partitions.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and (
            _called(node.exc, {"ArithmeticError"})
            or (isinstance(node.exc, ast.Name) and node.exc.id == "ArithmeticError")
        )
    ]
    assert found == []


@pytest.mark.parametrize(
    "error, call",
    [
        (ShapeMismatchError, lambda: characters.character_table(4).row((1,) * 50_000)),
        (ValueError, lambda: chern.BundleSpec((3,), [chern.BundleBlock(1, "e", (1,) * 50_000)])),
        # a degree past 4,300 digits, which str() of an int refuses
        (ShapeMismatchError, lambda: characters.character((10**5000,), (1,))),
    ],
    ids=["table-row", "spec-block", "character-degree"],
)
def test_long_library_arguments_give_short_messages(error, call):
    with pytest.raises(error) as info:
        call()
    assert len(str(info.value)) < 200, str(info.value)


@pytest.mark.parametrize("degree", [15, 10**5000], ids=["15", "5000-digits"])
@pytest.mark.parametrize(
    "call",
    [lambda m: characters.class_size((m,)), characters.transposition_type],
    ids=["class_size", "transposition_type"],
)
def test_cycle_types_stop_at_the_partition_bound(call, degree):
    # refused before an m-tuple or m! is built
    with pytest.raises(SizeLimitError, match="exceeds the partition bound 14") as info:
        call(degree)
    assert len(str(info.value)) < 200, str(info.value)


def _unread_imports(path: Path) -> set[str]:
    # names an import binds that the module never loads; `from __future__`
    # binds nothing the code reads
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return bound - read


def test_every_import_is_read():
    src = Path(partitions.__file__).parent
    paths = [*src.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    unread = {p.relative_to(src.parents[1]).as_posix(): _unread_imports(p) for p in paths}
    assert {path: names for path, names in unread.items() if names} == {}
