"""Outside-in span recorder for the traced run.

``SpanRecorder.install`` wraps every public function of each layer module of
the program and every public method (and property getter) of the module's
public classes, then rebinds each wrapped name in every loaded ``hilbtaut``
module that imported it.  A wrapper records one span per call: function,
parent span, request id, start and end.  Spans are kept in flat arrays in
memory and written out once, by ``dump``.

Nothing in the program is edited; the spans sit at the boundaries of the
layers' public names, so a private helper's time counts as self time of the
public function that called it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

from workloads import multinomial

# `errors` holds only exception types and is not a layer.
LAYERS = ("partitions", "characters", "divisors", "chern", "moduli", "cli", "verify")
# Public functions that scan the cosets of their first argument.
COSET_SCANS = ("moduli.offdiagonal_ext1_vanishing", "moduli.stability_certificate")


def _public_callables(module):
    """(owner, attribute, function name) for every public function defined
    in ``module`` and every public method or property of its public classes."""
    seen = set()
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            if id(obj) in seen or issubclass(obj, BaseException):
                continue
            seen.add(id(obj))
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, (property, classmethod, staticmethod)) or inspect.isfunction(member):
                    yield obj, attr, f"{obj.__name__}.{attr}"
        elif callable(obj):
            yield module, name, name


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.func = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = [0] * len(LAYERS)
        self.cosets_requested = 0
        self.current_request = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import hilbtaut  # noqa: F401  (loads every layer module)

        replaced: dict[int, object] = {}
        for layer_index, layer in enumerate(LAYERS):
            module = sys.modules[f"hilbtaut.{layer}"]
            for owner, attr, name in list(_public_callables(module)):
                original = vars(owner)[attr]
                wrapped = self._wrap_member(original, len(self.names), layer_index)
                self.names.append(f"{layer}.{name}")
                self.layer_of.append(layer_index)
                self._set(owner, attr, wrapped)
                if owner is module:
                    replaced[id(original)] = wrapped
        # rebind names that other modules imported with `from .x import y`
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hilbtaut" and not mod_name.startswith("hilbtaut."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and value is not replaced[id(value)]:
                    self._set(module, attr, replaced[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_member(self, member, func_id: int, layer_index: int):
        if isinstance(member, property):
            return property(self._wrap(member.fget, func_id, layer_index), member.fset, member.fdel, member.__doc__)
        if isinstance(member, (classmethod, staticmethod)):
            return type(member)(self._wrap(member.__func__, func_id, layer_index))
        return self._wrap(member, func_id, layer_index)

    def _wrap(self, fn, func_id: int, layer_index: int):
        clock = time.perf_counter_ns
        stack = self._stack
        funcs, parents, requests = self.func.append, self.parent.append, self.request.append
        starts, ends = self.start, self.end
        layer_of, raised = self.layer_of, self.raised
        func_at = self.func.__getitem__
        counts_cosets = f"{LAYERS[layer_index]}.{fn.__name__}" in COSET_SCANS
        recorder = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if counts_cosets:
                recorder.cosets_requested += multinomial(args[0])
            index = len(starts)
            parent = stack[-1]
            funcs(func_id)
            parents(parent)
            requests(recorder.current_request)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent < 0 or layer_of[func_at(parent)] != layer_index:
                    raised[layer_index] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return span

    def report(self) -> dict:
        """Per-layer calls, self time and raised count, inclusive time per
        function, and the total time covered by top-level spans (ns)."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0] * n
        top_level = 0
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                top_level += duration[i]
            else:
                child_time[p] += duration[i]
        calls = [0] * len(LAYERS)
        self_ns = [0] * len(LAYERS)
        inclusive: dict[str, int] = {}
        call_count: dict[str, int] = {}
        for i in range(n):
            f = self.func[i]
            layer = self.layer_of[f]
            calls[layer] += 1
            self_ns[layer] += duration[i] - child_time[i]
            name = self.names[f]
            call_count[name] = call_count.get(name, 0) + 1
            # skip direct recursion, so a recursive call is not counted twice
            if self.parent[i] < 0 or self.func[self.parent[i]] != f:
                inclusive[name] = inclusive.get(name, 0) + duration[i]
        return {
            "layers": {
                layer: {"calls": calls[i], "self_ns": self_ns[i], "raised": self.raised[i]}
                for i, layer in enumerate(LAYERS)
            },
            "inclusive_ns": inclusive,
            "calls": call_count,
            "top_level_ns": top_level,
            "cosets_requested": self.cosets_requested,
        }

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header and one binary column per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("func", "parent", "request", "start", "end")
        header = {
            "functions": self.names,
            "layers": [LAYERS[i] for i in self.layer_of],
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "spans": len(self.start),
        }
        path.with_suffix(".json").write_text(json.dumps(header))
        with path.with_suffix(".bin").open("wb") as out:
            for c in columns:
                getattr(self, c).tofile(out)
