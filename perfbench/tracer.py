"""Spans around every public frickelab function, and the per-layer metrics.

`install()` wraps each public function of the eight modules at every
frickelab module binding of it, because modules import names such as
`from .poly import sturm_count`.  A span records (name, start, end, parent,
op id, flags); spans stay in memory and are written to one file at the end.
`layer_metrics()` derives self times, call counts and ratios from span
files.  Methods of classes are not wrapped, so number-field and interval
arithmetic count towards the function that drives them.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

LAYERS = ("words", "poly", "intervals", "tracering", "algebraic", "fricke", "variety", "cli")

ERROR = 1  # the call raised
USEFUL = 2  # galois_cycle_types concluded FullSymmetric
FIELD = 4  # trace_of at a number-field point
INTERVAL = 8  # trace_of at an interval point


def _classify(name: str, args, result) -> int:
    if name == "fricke.trace_of":
        kind = args[0].kind
        return FIELD if kind == "field" else INTERVAL if kind == "interval" else 0
    if name == "algebraic.galois_cycle_types":
        return USEFUL if result.is_full_symmetric() else 0
    return 0


_CLASSIFIED = ("fricke.trace_of", "algebraic.galois_cycle_types")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.flags = array("q")
        self.stack: list[int] = []
        self.op_id = -1  # -1 while fixtures are built

    def wrap(self, fn, qualname: str):
        nid = self.name_id.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        classified = qualname in _CLASSIFIED
        perf, stack = time.perf_counter, self.stack
        start, end, parent, op, name, flags = self.start, self.end, self.parent, self.op, self.name, self.flags

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            name.append(nid)
            flags.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = perf()
                flags[idx] = ERROR
                stack.pop()
                raise
            end[idx] = perf()
            stack.pop()
            if classified:
                flags[idx] = _classify(qualname, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def write(self, path: str, **header) -> None:
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.start), **header}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.start, self.end, self.parent, self.op, self.name, self.flags):
                arr.tofile(fh)


def _is_public_function(obj, module_name: str) -> bool:
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module_name
        and (hasattr(obj, "__code__") or hasattr(obj, "__wrapped__"))
    )


def install() -> Tracer:
    """Wrap every public function of the eight modules wherever frickelab binds it."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"frickelab.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if not attr.startswith("_") and _is_public_function(obj, mod.__name__):
                wrapped[id(obj)] = tracer.wrap(obj, f"{layer}.{attr}")
    for mod in [importlib.import_module("frickelab"), *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    return tracer


# -- analysis ---------------------------------------------------------------------------


def read_spans(path: str) -> dict:
    with open(path + ".json") as fh:
        head = json.load(fh)
    n = head["count"]
    arrays = []
    with open(path + ".bin", "rb") as fh:
        for code in "ddqqqq":
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    start, end, parent, op, name, flags = arrays
    return {"names": head["names"], "import_s": head.get("import_s"), "start": start, "end": end, "parent": parent,
            "op": op, "name": name, "flags": flags}


class LayerStats:
    """Totals over one or more span files."""

    def __init__(self):
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.fn_self: dict[str, float] = {}
        self.fn_total: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.entry_errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.useful: dict[str, int] = {}
        self.child_calls: dict[tuple[str, str], int] = {}
        self.entry_calls: dict[str, int] = {}
        self.trace_of_outside_tracering = {"field": 0.0, "interval": 0.0}

    def add(self, spans: dict) -> None:
        names = spans["names"]
        layer_of = [n.split(".", 1)[0] for n in names]
        start, end, parent, name, flags = (spans[k] for k in ("start", "end", "parent", "name", "flags"))
        n = len(start)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        tracering_time = {}
        for i in range(n):
            fn = names[name[i]]
            layer = layer_of[name[i]]
            dur = end[i] - start[i]
            self_time = dur - child[i]
            self.self_s[layer] += self_time
            self.fn_self[fn] = self.fn_self.get(fn, 0.0) + self_time
            self.fn_total[fn] = self.fn_total.get(fn, 0.0) + dur
            self.calls[fn] = self.calls.get(fn, 0) + 1
            p = parent[i]
            parent_layer = layer_of[name[p]] if p >= 0 else None
            if flags[i] & ERROR:
                self.errors[fn] = self.errors.get(fn, 0) + 1
                if parent_layer != layer:
                    self.entry_errors[layer] += 1
            if flags[i] & USEFUL:
                self.useful[fn] = self.useful.get(fn, 0) + 1
            if p >= 0:
                key = (names[name[p]], fn)
                self.child_calls[key] = self.child_calls.get(key, 0) + 1
            if parent_layer != layer:
                self.entry_calls[fn] = self.entry_calls.get(fn, 0) + 1
            if layer == "tracering" and parent_layer != "tracering":
                # charge this entry into the trace ring to every trace_of above it
                a = p
                while a >= 0:
                    if names[name[a]] == "fricke.trace_of":
                        tracering_time[a] = tracering_time.get(a, 0.0) + dur
                    a = parent[a]
        for i in range(n):
            if names[name[i]] == "fricke.trace_of":
                kind = "field" if flags[i] & FIELD else "interval" if flags[i] & INTERVAL else None
                if kind:
                    self.trace_of_outside_tracering[kind] += end[i] - start[i] - tracering_time.get(i, 0.0)

    def metrics(self) -> dict:
        c = self.calls.get

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "words.self_s": self.self_s["words"],
            "words.cyclic_reduce.calls": c("words.cyclic_reduce", 0),
            "tracering.self_s": self.self_s["tracering"],
            "tracering.trace_polynomial.calls": c("tracering.trace_polynomial", 0),
            "tracering.trace_polynomial.calls_per_word": ratio(
                c("tracering.trace_polynomial", 0), self.entry_calls.get("tracering.trace_polynomial", 0)
            ),
            "tracering.errors": self.entry_errors["tracering"],
            "fricke.trace_of.field_self_s": self.trace_of_outside_tracering["field"],
            "fricke.trace_of.interval_self_s": self.trace_of_outside_tracering["interval"],
            "fricke.length_of.self_s": self.fn_self.get("fricke.length_of", 0.0),
            "fricke.length_of.calls": c("fricke.length_of", 0),
            "fricke.length_of.refused": self.errors.get("fricke.length_of", 0),
            "poly.self_s": self.self_s["poly"],
            "poly.sturm_chain.calls": c("poly.sturm_chain", 0),
            "poly.sturm_count.calls": c("poly.sturm_count", 0),
            "poly.refine_root.calls": c("poly.refine_root", 0),
            "poly.refine_root.self_s": self.fn_self.get("poly.refine_root", 0.0),
            "poly.factor_mod_p.calls": c("poly.factor_mod_p", 0),
            "poly.irreducible_over_Q.calls": c("poly.irreducible_over_Q", 0),
            "poly.irreducible_over_Q.primes_per_call": ratio(
                self.child_calls.get(("poly.irreducible_over_Q", "poly.factor_mod_p"), 0),
                c("poly.irreducible_over_Q", 0),
            ),
            "poly.isolate_real_roots.self_s": self.fn_self.get("poly.isolate_real_roots", 0.0),
            "algebraic.self_s": self.self_s["algebraic"],
            "algebraic.is_geometric_salem.calls": c("algebraic.is_geometric_salem", 0),
            "algebraic.galois_cycle_types.calls": c("algebraic.galois_cycle_types", 0),
            "algebraic.galois_cycle_types.self_s": self.fn_self.get("algebraic.galois_cycle_types", 0.0),
            "algebraic.galois_cycle_types.full_symmetric_ratio": ratio(
                self.useful.get("algebraic.galois_cycle_types", 0), c("algebraic.galois_cycle_types", 0)
            ),
            "fricke.eliminate_pattern_system.calls": c("fricke.eliminate_pattern_system", 0),
            "fricke.solve_pattern_system.s": self.fn_total.get("fricke.solve_pattern_system", 0.0),
            "variety.self_s": self.self_s["variety"],
            "variety.symbolic_residual.calls": c("variety.symbolic_residual", 0),
            "cli.self_s": self.self_s["cli"],
        }
