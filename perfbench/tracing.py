"""Span tracing around the library's layers, installed from outside.

`install` wraps every public function and method of the layer modules and
re-binds every name another `chambers` module imported with `from .x import
f`, so each call records a span: name, start, end, parent span and job id.
Spans live in flat arrays until `write`; `uninstall` puts the originals
back.  Counters are read only from return values.
"""

import functools
import importlib
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("groups", "coxeter", "chamber", "verify", "covers", "catalog", "cli")

# O(1) accessors and per-element permutation arithmetic.  A span per call
# would cost more than the call itself; their time stays with the caller.
UNTRACED = {
    "groups.identity", "groups.mul", "groups.inv", "groups.is_perm", "groups.pair_perm",
    "groups.CosetTable.coset_id",
    "coxeter.CoxeterMatrix.order", "coxeter.CoxeterGroupTable.element",
    "chamber.ChamberSystem.panel_of", "chamber.ChamberSystem.panel_id",
    "verify.IncidenceGeometry.incident", "verify.IncidenceGeometry.label",
    "catalog.mat_apply",
}


def _deck_counts(result, args):
    p = args[0]
    return (("covers.deck_found", len(result[0])),
            ("covers.fiber_tried", p.cover.n // p.base.n))


# span name -> counts taken from (return value, positional arguments)
COUNTERS = {
    "groups.close": lambda r, a: (("groups.closure_elements", len(r)),),
    "coxeter.enumerate_group": lambda r, a: (("coxeter.elements", r.order),),
    "coxeter.reduced_words": lambda r, a: (("coxeter.reduced_words", len(r)),),
    "coxeter.canonical_word": lambda r, a: (("coxeter.canonical_calls", 1),),
    "chamber.ChamberSystem.minimal_type_sets_from":
        lambda r, a: (("chamber.type_set_words", sum(len(t) for t in r if t is not None)),),
    "verify.is_building": lambda r, a: (("verify.pairs_checked", r[1]["pairs_checked"]),),
    "covers.universal_cover":
        lambda r, a: (("covers.cover_chambers", 0 if r.truncated else r.covering.cover.n),),
    "covers.deck_transformations": _deck_counts,
    "covers.homotopic": lambda r, a: (("covers.homotopy_queries", 1),),
}

# per-layer metric -> span names whose outermost spans it sums
INCLUSIVE = {
    "groups.generates_s": ("groups.generates",),
    "groups.left_cosets_s": ("groups.left_cosets",),
    "coxeter.enumerate_s": ("coxeter.enumerate_group",),
    "coxeter.reduced_word_sets_s": ("coxeter.CoxeterGroupTable.reduced_word_sets",),
    "coxeter.canonical_s": ("coxeter.canonical_word",),
    "chamber.type_sets_s": ("chamber.ChamberSystem.minimal_type_sets_from",),
    "chamber.component_map_s": ("chamber.ChamberSystem.component_map",),
    "chamber.infer_type_matrix_s": ("chamber.infer_type_matrix",),
    "chamber.json_s": ("chamber.system_to_json", "chamber.system_from_json"),
    "chamber.quotient_s": ("chamber.quotient",),
    "chamber.is_simplicial_s": ("chamber.is_simplicial",),
    "verify.is_building_s": ("verify.is_building",),
    "verify.is_c3_geometry_s": ("verify.is_c3_geometry",),
    "verify.incidence_geometry_s": ("verify.incidence_geometry",),
    "verify.check_star_s": ("verify.check_star",),
    "covers.universal_cover_s": ("covers.universal_cover",),
    "covers.is_covering_s": ("covers.is_covering",),
    "covers.deck_transformations_s": ("covers.deck_transformations",),
    "covers.homotopic_s": ("covers.homotopic",),
}

class Tracer:
    """Spans in flat arrays; index i is span i, parent -1 marks a root."""

    def __init__(self):
        self.on = False
        self.job = -1
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {}

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job_of.append(self.job)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def count(self, pairs):
        for key, value in pairs:
            self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def span(self, name, job):
        self.job = job
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": list(self.name),
                       "parent": list(self.parent), "job": list(self.job_of),
                       "start": list(self.start), "end": list(self.end),
                       "counts": self.counts}, fh)


def _wrap(tracer, qualname, fn):
    nid = tracer.name_id(qualname)
    counter = COUNTERS.get(qualname)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None and tracer.job >= 0:
            tracer.count(counter(result, args))
        return result

    traced.__perfbench_original__ = fn
    return traced


def install(tracer):
    """Wrap the layers' public callables; returns the patch list for
    `uninstall`."""
    patches = []
    wrappers = {}                   # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = importlib.import_module(f"chambers.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for mname, meth in list(vars(obj).items()):
                    qual = f"{layer}.{attr}.{mname}"
                    if mname.startswith("_") or not inspect.isfunction(meth) or qual in UNTRACED:
                        continue
                    setattr(obj, mname, _wrap(tracer, qual, meth))
                    patches.append((obj, mname, meth))
            elif callable(obj) and f"{layer}.{attr}" not in UNTRACED:
                wrappers[id(obj)] = (obj, _wrap(tracer, f"{layer}.{attr}", obj))
    for modname, mod in list(sys.modules.items()):
        if modname != "chambers" and not modname.startswith("chambers."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patches.append((mod, attr, obj))
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def installed_wrappers():
    """Names in the chambers modules that still hold a tracing wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "chambers" and not modname.startswith("chambers."):
            continue
        for attr, obj in vars(mod).items():
            if hasattr(obj, "__perfbench_original__"):
                found.append(f"{modname}.{attr}")
            if isinstance(obj, type):
                for mname, meth in vars(obj).items():
                    if hasattr(meth, "__perfbench_original__"):
                        found.append(f"{modname}.{attr}.{mname}")
    return found


def self_times(names, name, parent, start, end):
    """Per span, its duration minus the part its child spans cover.
    Children of one span run one after another, so that part is the sum of
    their durations."""
    dur = [e - s for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    return dur, own


def summarize(tracer):
    """Per-layer metrics from the spans: layer self times over job spans,
    outermost-span inclusive times, setup-time catalog work and counts."""
    names = tracer.names
    layer_of = [n.split(".", 1)[0] for n in names]
    dur, own = self_times(names, tracer.name, tracer.parent, tracer.start, tracer.end)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS + ("bench",)}
    job_s = 0.0
    for i, nid in enumerate(tracer.name):
        if tracer.job_of[i] < 0:
            continue
        out[f"{layer_of[nid]}.self_s"] += own[i]
        if tracer.parent[i] < 0:
            job_s += dur[i]
    wanted = {}
    for metric, span_names in INCLUSIVE.items():
        out[metric] = 0.0
        for n in span_names:
            if n in tracer._ids:
                wanted[tracer._ids[n]] = metric
    catalog_s = 0.0
    for i, nid in enumerate(tracer.name):
        metric = wanted.get(nid)
        if metric is not None and tracer.job_of[i] >= 0 and not _inside(tracer, i, lambda a: a == nid):
            out[metric] += dur[i]
        if (layer_of[nid] == "catalog" and tracer.job_of[i] < 0
                and not _inside(tracer, i, lambda a: layer_of[a] == "catalog")):
            catalog_s += dur[i]
    out["catalog.build_s"] = catalog_s
    out["trace.job_s"] = job_s
    out["trace.spans"] = len(tracer.name)
    return out


def _inside(tracer, i, pred):
    p = tracer.parent[i]
    while p >= 0:
        if pred(tracer.name[p]):
            return True
        p = tracer.parent[p]
    return False
