"""Span tracing around the calls into each spreadhom layer, from outside.

`install()` replaces the layer functions listed in TARGETS by timing
wrappers: in the defining module and in every spreadhom module (and the
package) that imported the same function with `from .x import y`, and on
the class for methods.  Spans stay in memory as (function, parent, start,
end) and are written as JSONL at exit; `summarize()` turns a span file into
the per-layer metrics.
"""
from __future__ import annotations

import atexit
import collections
import importlib
import json
import os
import time
from array import array

LAYERS = ("field", "poset", "modules", "hom", "approx", "invariants", "files", "cli")

# layer -> names in that module; "Class.method" patches the class.  Span names
# are "<layer>.<name>", except those renamed here.
TARGETS = {
    "field": ["PrimeField.rref", "PrimeField.rank", "PrimeField.kernel_basis",
              "PrimeField.solve", "PrimeField.column_space_basis"],
    "poset": ["enumerate_spreads", "containment_poset", "Poset.mobius",
              "spread_from_antichains", "spread_from_convex"],
    "modules": ["PersistenceModule.__init__", "PersistenceModule.restrict",
                "PersistenceModule.map_along", "Morphism.__matmul__", "Morphism.vec",
                "direct_sum", "spread_module", "morphism_from_vec"],
    "hom": ["hom_basis", "hom_dim", "spread_hom_dim", "kernel_module", "image_module"],
    "approx": ["Family.pair_hom", "Family.hom_matrix", "Family.member_modules",
               "builtin_family", "check_family", "minimal_approximation", "resolve"],
    "invariants": ["class_via_hom_matrix", "class_via_resolution", "dim_hom_vector",
                   "generalized_rank", "generalized_rank_vector", "signed_diagram",
                   "rank_invariant", "compare"],
    "files": ["load_poset", "load_module", "load_family"],
    "cli": ["main"],
}
RENAMED = {
    "field.PrimeField.rref": "field.rref",
    "poset.Poset.mobius": "poset.mobius",
    "modules.PersistenceModule.__init__": "modules.construct",
    "approx.Family.pair_hom": "approx.pair_hom",
    "approx.Family.hom_matrix": "approx.hom_matrix",
}


def _span_name(layer, name):
    full = f"{layer}.{name}"
    return RENAMED.get(full, full)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.stack = [-1]
        self.counters = collections.Counter()

    def wrap(self, name, fn, count=None):
        fid = len(self.names)
        self.names.append(name)
        fids, parents, t0s, t1s, stack = self.fid, self.parent, self.t0, self.t1, self.stack
        clock = time.perf_counter_ns
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            t0s.append(0)
            t1s.append(0)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                t0s[idx] = start
                stack.pop()
            if count is not None:
                count(counters, args or tuple(kwargs.values()), out)
            return out

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "counters": dict(self.counters)}) + "\n")
            for f, p, a, b in zip(self.fid, self.parent, self.t0, self.t1):
                fh.write(f"[{f},{p},{a},{b}]\n")


def _count_rref(counters, args, out):
    rows, cols = out[0].shape  # the reduced matrix has the input's shape
    counters["field.rref.cells"] += rows * cols


def _count_bytes(counters, args, out):
    path = args[0]
    if isinstance(path, str) and os.path.isfile(path):
        counters["files.bytes"] += os.path.getsize(path)


def _count_spreads(counters, args, out):
    counters["poset.spreads_enumerated"] += len(out)


COUNTERS = {
    "field.rref": _count_rref,
    "files.load_poset": _count_bytes,
    "files.load_module": _count_bytes,
    "files.load_family": _count_bytes,
    "poset.enumerate_spreads": _count_spreads,
}


def install(path):
    """Wrap every target and write the spans to `path` when the process exits."""
    import spreadhom

    tracer = Tracer()
    modules = [spreadhom] + [importlib.import_module(f"spreadhom.{m}") for m in
                             LAYERS + ("gallery", "randmod")]
    for layer, names in TARGETS.items():
        home = importlib.import_module(f"spreadhom.{layer}")
        for name in names:
            span = _span_name(layer, name)
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, tracer.wrap(span, cls.__dict__[meth], COUNTERS.get(span)))
                continue
            fn = getattr(home, name)
            wrapped = tracer.wrap(span, fn, COUNTERS.get(span))
            for mod in modules:
                if getattr(mod, name, None) is fn:
                    setattr(mod, name, wrapped)
    atexit.register(tracer.dump, path)
    return tracer


def summarize(path):
    """Per-layer metrics of one span file."""
    fids, parents, dur = array("i"), array("i"), array("q")
    with open(path) as fh:
        head = json.loads(fh.readline())
        for line in fh:
            f, p, a, b = json.loads(line)
            fids.append(f)
            parents.append(p)
            dur.append(b - a)
    names = head["names"]
    hom_basis = names.index("hom.hom_basis")
    child_time = array("q", bytes(8 * len(dur)))
    has_hom_basis_child = bytearray(len(dur))
    for f, p, d in zip(fids, parents, dur):
        if p >= 0:
            child_time[p] += d
            if f == hom_basis:
                has_hom_basis_child[p] = 1
    calls = collections.Counter(names[f] for f in fids)
    self_ns = collections.Counter()
    pair_hom = names.index("approx.pair_hom")
    pair_hom_hits = 0
    for i, f in enumerate(fids):
        self_ns[names[f].split(".")[0]] += dur[i] - child_time[i]
        if f == pair_hom and not has_hom_basis_child[i]:
            pair_hom_hits += 1
    metrics = {f"{layer}.self_s": (self_ns[layer] / 1e9, "s") for layer in LAYERS}
    for name in names:
        metrics[f"{name}.calls"] = (calls[name], "count")
    pair_calls = calls["approx.pair_hom"]
    metrics["approx.pair_hom.hit_ratio"] = (pair_hom_hits / pair_calls if pair_calls else 0.0, "ratio")
    units = {"field.rref.cells": "cells", "files.bytes": "bytes",
             "poset.spreads_enumerated": "count"}
    for key, unit in units.items():
        metrics[key] = (head["counters"].get(key, 0), unit)
    metrics["trace.spans"] = (len(dur), "count")
    return metrics
