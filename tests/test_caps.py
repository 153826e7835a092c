"""Size caps are module constants read at each check, with no per-call
override, the README names exactly those caps, the Ext path needs no
character tables, the Chern closed forms need no characters at all, only
verify.py enumerates for its own sake, cli imports the characters, moduli
and verify layers only inside the commands that use them, every
module-level cache is bounded, no check is an assert statement, and every
module reads each name it imports."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

from hilbtaut import characters, chern, cli, divisors, moduli, partitions, verify

_NO_CAP_PARAMETER = [
    partitions.enumerate_partitions,
    partitions.bounded_index_p,
    partitions.iter_cosets,
    moduli.check_conditions,
    moduli.offdiagonal_ext1_vanishing,
    moduli._ext_dims,
    moduli.equivariant_end_dims,
    moduli.moduli_component_dim,
    moduli.stability_certificate,
    moduli._Witnesses.__init__,
    verify.invariant_restriction_rank,
    verify._same_label_pair_counts,
    verify.vanishing_by_enumeration,
    verify.stability_by_enumeration,
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
    # verify.  Of the product modules only moduli (its lazy witnesses)
    # walks cosets or permutations; the oracles that do live in verify.
    assert not _names_from_characters(chern)
    assert not hasattr(partitions, "_reduction_indices")
    enumerators = {"iter_cosets", "permutations"}
    for module in (partitions, characters, divisors, chern, cli):
        found = {name for name in _imported_names(module) if name.split(".")[-1] in enumerators}
        assert not found, (module.__name__, found)


def test_cli_imports_command_layers_per_command():
    # chern, rank and generating never load characters, moduli or verify
    deferred = {"characters", "moduli", "verify"}
    found = {name for name in _imported_names(cli, top_level=True) if deferred & set(name.split("."))}
    assert not found
    assert deferred <= {name.split(".")[-1] for name in _imported_names(cli)}


def test_module_caches_are_bounded():
    for module in (partitions, characters, divisors, chern, moduli, cli, verify):
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                assert obj.cache_info().maxsize is not None, f"{module.__name__}.{name}"


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
