"""The oracle suites as a whole: which closed forms they reach, and the
suite list that the benchmark's tracer times.

Each suite is a generator of check outcomes wrapped by one runner; the
undecorated generator stays reachable as the suite's ``__wrapped__``, so a
few hundred outcomes of each can be drawn without running it to the end.
"""

from __future__ import annotations

import ast
import inspect
import itertools
import sys
from pathlib import Path

from hilbtaut import characters, chern, divisors, moduli, partitions, verify

LAYERS = (partitions, characters, chern, divisors, moduli)
RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

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
    (verify.coset_scan_suite, 7),
    (verify.grouping_suite,),
)
OUTCOMES_PER_SUITE = 300

# Public names that no suite has to reach.  A class stands for its own
# constructor; a method or property is named Class.attribute.
TYPES = {
    "chern.BundleSpec.k",
    "characters.CharacterTable.value",
    "divisors.ClassPolynomial",
    "divisors.DivisorClass.symbol",
    "divisors.DivisorClass.delta_class",
    "moduli.ConditionReport.satisfied",
    "moduli.EndDims",
    "moduli.HomTable.end1_self",
}
RENDERERS = {"divisors.DivisorClass.render_text", "divisors.ClassPolynomial.render_text"}
JSON_HELPERS = {
    "divisors.DivisorClass.to_json_dict",
    "moduli.HomTable.to_json_dict",
    "moduli.HomTable.from_json_dict",
}
# Closed forms with no oracle yet: when a suite starts to reach one, it
# leaves this list.
KNOWN_GAPS = {
    "moduli.equivariant_end_dims",
    "moduli.moduli_component_dim",
    "partitions.multinomial_index",
}


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


def _reached_by_suites() -> set[int]:
    # ids of the code objects called while each suite yields its first
    # outcomes; the memo caches are emptied first, so that what an earlier
    # test computed is computed again here
    for module in (*LAYERS, verify):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    reached: set[int] = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(id(frame.f_code))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for suite, *bound in SUITES:
            for _ in itertools.islice(suite.__wrapped__(*bound), OUTCOMES_PER_SUITE):
                pass
    finally:
        sys.setprofile(previous)
    return reached


def test_every_closed_form_meets_an_oracle_suite():
    # "every closed form keeps an independent oracle" as a checked rule:
    # each public function and method of the five layers runs under some
    # suite, or is on one of the lists above
    reached = _reached_by_suites()
    public = dict(name_code for module in LAYERS for name_code in _public_code(module))
    allowed = TYPES | RENDERERS | JSON_HELPERS | KNOWN_GAPS
    assert allowed <= set(public), sorted(allowed - set(public))
    unreached = {name for name, code in public.items() if code is None or id(code) not in reached}
    assert unreached <= allowed, sorted(unreached - allowed)
    assert KNOWN_GAPS <= unreached, sorted(KNOWN_GAPS - unreached)


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
                return verify.SuiteResult(name, 1, [])

            monkeypatch.setattr(verify, name, recorded)
    verify.verify_all(6)
    assert tuple(ran) == traced
