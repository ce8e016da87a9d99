"""Per-layer tracing of acim1d from outside the package.

install() replaces every binding of the traced functions -- the home
module attribute, each ``from .x import f`` copy in other modules, and
class attributes for methods -- with a wrapper that records spans.
Function-local imports (``from .maps import orbit_grid`` inside a
function body) read the module attribute at call time, so they see the
wrapper too.

Spans are aggregated per (span, parent span) instead of being stored
one per call: the doubling workload makes millions of ``trim`` calls.
A span's time is the inclusive time of its outermost calls; a call made
while a span of the same name is already open (``PowerMap.jet_apply``
calling its base map's ``jet_apply``) is counted but not timed again.
The tracer assumes one thread, which holds because the benchmark runs
the pipeline with ``jobs = 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# Layers whose public (no leading underscore) module-level functions are
# traced, each under the span name "<module>.<function>".
MODULES = ("cli", "maps", "branches", "reparam", "tree", "times", "measures",
           "entropy")

# Functions reported together under one span name.
ALIASES = {
    "times.clip_bruteforce": "times.oracle",
    "times.trim_bruteforce": "times.oracle",
}

# Methods traced on every class of the module that defines them.
METHODS = {
    ("maps", "eval"): "maps.eval",
    ("maps", "__call__"): "maps.eval",
    ("maps", "jet_apply"): "maps.jet_apply",
    ("branches", "locate_many"): "branches.locate_many",
    ("tree", "build"): "tree.build",
}


def _add_points(counts, key):
    def hook(args, kwargs, result):
        counts[key] += int(np.size(args[1]))
    return hook


def _hooks(counts):
    """Counters read from arguments or results of outermost calls."""

    def selection(args, kwargs, result):
        counts["measures.seeds"] = result.pool.n_seeds
        counts["measures.selected"] = result.n_selected

    def atoms(args, kwargs, result):
        counts["measures.atoms"] = result.n_atoms

    def gibbs(args, kwargs, result):
        counts["entropy.gibbs_passed"] += int(bool(result["ok"]))

    def vertices(args, kwargs, result):
        counts["tree.vertices"] = args[0].n_vertices

    return {
        "branches.locate_many": _add_points(counts,
                                            "branches.locate_many_points"),
        "maps.eval": _add_points(counts, "maps.eval_points"),
        "measures.select_An": selection,
        "measures.empirical_measure": atoms,
        "entropy.gibbs_check": gibbs,
        "tree.build": vertices,
    }


class Tracer:
    """Aggregated spans and counters of one process."""

    def __init__(self):
        self.stack = [["<root>", 0.0]]      # open frames: [span, child s]
        self.open = defaultdict(int)
        self.calls = defaultdict(int)
        # (span, parent) -> [outermost calls, inclusive s, self s]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self.hooks = _hooks(self.counts)
        self.wrapped = {}

    def wrap(self, name, fn):
        """Return the traced version of fn (one wrapper per function)."""
        if id(fn) in self.wrapped:
            return self.wrapped[id(fn)]
        stack, open_, calls, stats = (self.stack, self.open, self.calls,
                                      self.stats)
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if open_[name]:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                open_[name] = 0
                parent[1] += dt
                s = stats[(name, parent[0])]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        self.wrapped[id(fn)] = traced
        return traced

    def spans(self):
        """Rows (span, parent, outermost calls, inclusive s, self s)."""
        return sorted(((name, parent, n, incl, own)
                       for (name, parent), (n, incl, own)
                       in self.stats.items()), key=lambda r: -r[3])

    def totals(self):
        """Per span: all calls, outermost inclusive seconds, self seconds."""
        out = {}
        for name, _parent, _n, incl, own in self.spans():
            row = out.setdefault(name, {"calls": self.calls[name],
                                        "s": 0.0, "self_s": 0.0})
            row["s"] += incl
            row["self_s"] += own
        return out


def _targets():
    """(function object -> span name) and (class, attribute, span name)."""
    functions = {}
    methods = []
    for short in MODULES:
        mod = importlib.import_module(f"acim1d.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            functions[obj] = ALIASES.get(name, name)
        for cls in vars(mod).values():
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                continue
            for attr in vars(cls):
                span = METHODS.get((short, attr))
                if span is not None and inspect.isfunction(vars(cls)[attr]):
                    methods.append((cls, attr, span))
    return functions, methods


def install(tracer):
    """Rebind every traced function and method of the loaded acim1d package.

    Returns the number of bindings replaced.
    """
    functions, methods = _targets()
    replaced = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "acim1d"
                               or modname.startswith("acim1d.")):
            continue
        for attr, obj in list(vars(mod).items()):
            try:
                span = functions.get(obj)
            except TypeError:       # unhashable module attribute
                continue
            if span is not None:
                setattr(mod, attr, tracer.wrap(span, obj))
                replaced += 1
    for cls, attr, span in methods:
        setattr(cls, attr, tracer.wrap(span, vars(cls)[attr]))
        replaced += 1
    return replaced
