"""Size caps are module constants read at each check, with no per-call
override, and the Ext path needs no character tables."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

from hilbtaut import characters, chern, moduli, partitions, verify

_NO_CAP_PARAMETER = [
    partitions.enumerate_partitions,
    partitions.bounded_index_p,
    partitions.iter_cosets,
    partitions.enumerate_cosets,
    chern.invariant_restriction_rank,
    chern._same_label_pair_counts,
    moduli.check_conditions,
    moduli.offdiagonal_ext1_vanishing,
    moduli._ext_dims,
    moduli.equivariant_end_dims,
    moduli.moduli_component_dim,
    moduli.stability_certificate,
    moduli._Witnesses.__init__,
    verify.vanishing_by_enumeration,
    verify.stability_by_enumeration,
]


def test_caps_have_no_per_call_override():
    for fn in _NO_CAP_PARAMETER:
        params = inspect.signature(fn).parameters
        assert not [p for p in params if p.startswith("max_")], fn.__qualname__
    for fn in (characters.character_table, characters.conjugacy_classes):
        assert list(inspect.signature(fn).parameters) == ["m"], fn.__qualname__
    tree = ast.parse(Path(moduli.__file__).read_text())
    imported = set()  # dotted names; `from . import characters` gives ".characters"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [name for name in imported if "characters" in name.split(".")]
