"""In-memory span recorder for the traced benchmark run.

``install`` wraps every public function and public method defined in
the traced dwlab modules and rebinds each wrapped name in the defining
module and in every loaded dwlab module that imported it by name, so
calls made inside the program (for instance inside a verification
experiment) are traced too.  Nothing in the program changes: the
wrapping lives only in the traced benchmark process.

Spans are kept as (name, start, end, parent) in flat arrays while the
recorder is active; ``summarize`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from array import array
from time import perf_counter

# Layer name -> dwlab modules whose public names are traced.
LAYERS = {
    "dyadic": ("dwlab.dyadic",),
    "growth": ("dwlab.growth",),
    "weights": ("dwlab.weights",),
    "reducing": ("dwlab.reducing",),
    "seqspace": ("dwlab.seqspace",),
    "adops": ("dwlab.adops",),
    "transforms": ("dwlab.transforms",),
    "harness": ("dwlab.harness.experiments", "dwlab.harness.report"),
}

# Span labels that carry the variant of a call: argument name -> label.
VARIANTS = {
    "seqspace.seq_norm": ("params", lambda v: f"seqspace.seq_norm.{v.mode}"),
    "reducing.build_family": ("backend",
                              lambda v: f"reducing.build_family.{v}"),
    "transforms.square_functions": (
        "kind", lambda v: f"transforms.square_functions.{v}"),
    "harness.run_experiment": ("name", lambda v: f"harness.{str(v).upper()}"),
}

POWER_AT = "weights.power_at"


class Recorder:
    """Spans of the traced passes plus the cache-hit count of power_at.

    Only calls made while ``active`` is true are recorded, so the
    benchmark's own output checks stay out of the trace.
    """

    def __init__(self):
        self.active = False
        self.names = []
        self.name_ids = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.power_at_hits = 0

    def label_id(self, label):
        got = self.name_ids.get(label)
        if got is None:
            got = self.name_ids[label] = len(self.names)
            self.names.append(label)
        return got


def _make_wrapper(rec, label, fn):
    label_id = rec.label_id(label)
    variant = VARIANTS.get(label)
    sig = inspect.signature(fn) if variant else None
    is_power_at = label == POWER_AT

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        lid = label_id
        if variant is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            lid = rec.label_id(variant[1](bound.arguments[variant[0]]))
        idx = len(rec.start)
        rec.name_of.append(lid)
        rec.parent.append(rec.stack[-1] if rec.stack else -1)
        rec.start.append(0.0)
        rec.end.append(0.0)
        rec.stack.append(idx)
        # the cache is the program's own; a call that leaves it the same
        # size was served from it
        cache = getattr(args[0], "_power_cache", None) if is_power_at else None
        before = len(cache) if cache is not None else -1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            rec.stack.pop()
            rec.start[idx] = t0
            rec.end[idx] = t1
            if cache is not None and len(cache) == before:
                rec.power_at_hits += 1

    traced.__perfbench_original__ = fn
    return traced


def _public_callables(mod):
    """(owner, attribute, function, label suffix) defined in ``mod``."""
    for name, obj in list(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield mod, name, obj, name
        elif isinstance(obj, type):
            for mname, meth in list(vars(obj).items()):
                if not mname.startswith("_") and isinstance(meth, types.FunctionType):
                    yield obj, mname, meth, mname


def install(rec):
    """Wrap the traced layers' public callables and rebind their names."""
    import dwlab  # noqa: F401  (loads every traced module)

    replaced = {}
    for layer, modnames in LAYERS.items():
        for modname in modnames:
            mod = sys.modules[modname]
            for owner, attr, fn, suffix in _public_callables(mod):
                if hasattr(fn, "__perfbench_original__"):
                    continue
                wrapper = _make_wrapper(rec, f"{layer}.{suffix}", fn)
                setattr(owner, attr, wrapper)
                if owner is mod:
                    replaced[id(fn)] = wrapper
    for modname, mod in list(sys.modules.items()):
        if modname == "dwlab" or modname.startswith("dwlab."):
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__perfbench_original__ is obj:
                    setattr(mod, attr, wrapper)


def summarize(rec, passes):
    """Per-pass per-layer figures from the recorded spans.

    Returns {label: {"s", "calls"}}, {layer: self seconds},
    the summed duration of top-level spans, and the power_at hit count,
    each divided by the number of passes.
    """
    n = len(rec.start)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
    per_label = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    top = 0.0
    for i in range(n):
        label = rec.names[rec.name_of[i]]
        entry = per_label.setdefault(label, {"s": 0.0, "calls": 0})
        entry["calls"] += 1
        layer_self[label.split(".", 1)[0]] += dur[i] - child[i]
        # inclusive time counts only the outermost span of a label, so a
        # label nested inside itself is not counted twice
        p = rec.parent[i]
        while p >= 0 and rec.name_of[p] != rec.name_of[i]:
            p = rec.parent[p]
        if p < 0:
            entry["s"] += dur[i]
        if rec.parent[i] < 0:
            top += dur[i]
    for entry in per_label.values():
        for key in entry:
            entry[key] /= passes
    layer_self = {k: v / passes for k, v in layer_self.items()}
    return per_label, layer_self, top / passes, rec.power_at_hits / passes
