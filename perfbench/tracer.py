"""Span tracing of the etmass layers, installed from outside the library.

``install`` wraps every public function and public method of the seven
layer modules, rebinding each wrapped function under every name any
``etmass.*`` module holds it by (``massquartic``, ``density`` and
``cli`` import functions by name, and ``unitgroups`` imports
``fplinalg.rank`` as ``fp_rank``).  Spans are aggregated in memory by
(name, parent name): the hot p-adic methods run millions of times per
run, far too often to keep one object per call.  A span's self time is
its duration minus the time its child spans cover.

``layer_metrics`` turns the aggregate into the per-layer metrics named
in ``BENCHMARK.json``.  This module imports no etmass code at import
time, so the parent process can use the metric names cheaply.
"""

from __future__ import annotations

import gc
import inspect
import sys
import time
import types

LAYERS = ("padic", "unitgroups", "massquartic", "massprime", "fplinalg", "density", "oracle")

# functions and methods reported one by one (calls and self_s each);
# ``LocalField.new`` is the constructor
NAMED = {
    "padic": (
        "LocalField.mul", "LocalField.inv", "LocalField.shift", "LocalField.add",
        "LocalField.val", "LocalField.new", "ResidueField.pow", "QuadExt.mul",
        "QuadExt.inv", "quad_extend",
    ),
    "unitgroups": (
        "c_alpha", "p_class_coords", "unit_basis", "norm_class_matrix",
        "solve_norm_equation", "strat_gens", "filtration_profile",
    ),
    "massquartic": ("premass4", "counts_14", "nec_sizes", "choose_omega", "hilbert2"),
    "massprime": ("premass_ell_total", "count_Cp"),
    "fplinalg": ("rank", "kernel_basis", "colspan_intersect", "rref_decomp", "in_colspan"),
    "density": ("euler_density", "local_mass", "primes_up_to"),
    "oracle": (
        "enum_quartic_towers", "enum_cp_characters", "enum_wild_totally_ramified",
        "wild_premass",
    ),
}

# lru_cache'd functions whose hit ratio (from cache_info deltas) is reported
CACHED = {
    "unitgroups": ("unit_basis", "norm_class_matrix", "phi_matrix"),
    "massquartic": ("_hilbert_gram",),
}

# counters filled by call hooks, reported per pass except the width
COUNTERS = {
    "padic.retained_fields": "count",  # fields alive after gc.collect()
    "fplinalg.cells": "count",  # sum of rows*cols of matrices entering fplinalg, computed
    "density.product_bits": "bits",  # bit length of numerator+denominator of coeff_lo
    "density.width_rel": "ratio",  # largest (coeff_hi - coeff_lo)/coeff_lo of a pass
    "oracle.records": "count",  # extensions returned by the enumeration oracles
}

# Elt is a data holder whose methods only delegate to the field's
SKIP_CLASSES = {"Elt"}


def metric_names():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in LAYERS:
        for fn in NAMED[layer]:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_s", "s", "lower"))
        for fn in CACHED.get(layer, ()):
            out.append((f"{layer}.{fn}.hit_ratio", "ratio", "higher"))
        out.append((f"{layer}.self_s", "s", "lower"))
    for name, unit in COUNTERS.items():
        out.append((name, unit, "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    """Aggregated spans: ``stats[(name, parent)] = [calls, total_s, self_s]``."""

    def __init__(self):
        self.stack = [[None, 0.0]]  # [span name, time covered by children]
        self.stats = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.cached = {}  # metric prefix -> original lru_cache object
        self._cache_start = {}

    def wrap(self, name, fn, before=None, after=None):
        stack, stats, clock = self.stack, self.stats, time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            if before is not None:
                before(parent[0], args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                key = (name, parent[0])
                row = stats.get(key)
                if row is None:
                    stats[key] = [1, dur, dur - frame[1]]
                else:
                    row[0] += 1
                    row[1] += dur
                    row[2] += dur - frame[1]
            if after is not None:
                after(result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    # -- hooks for the counters ------------------------------------------

    def _count_cells(self, parent, args):
        # only matrices entering the layer from outside: nested fplinalg
        # calls see the same matrices again
        if parent is not None and parent.startswith("fplinalg."):
            return
        for a in args:
            arr = getattr(a, "arr", None)
            if arr is not None and getattr(arr, "ndim", 0) == 2:
                self.counters["fplinalg.cells"] += int(arr.shape[0]) * int(arr.shape[1])

    def _count_records(self, result):
        self.counters["oracle.records"] += len(result)

    def _density_result(self, result):
        lo, hi = result.coeff_lo, result.coeff_hi
        self.counters["density.product_bits"] += lo.numerator.bit_length() + lo.denominator.bit_length()
        if lo > 0:
            w = float((hi - lo) / lo)
            self.counters["density.width_rel"] = max(self.counters["density.width_rel"], w)

    def _hooks(self, layer, name):
        if layer == "fplinalg" and name in NAMED["fplinalg"]:
            return self._count_cells, None
        if layer == "oracle" and name.startswith("enum_"):
            return None, self._count_records
        if layer == "density" and name == "euler_density":
            return None, self._density_result
        return None, None

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the public functions and methods of every layer module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "etmass" or n.startswith("etmass.")]
        for layer in LAYERS:
            mod = sys.modules[f"etmass.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__ and obj.__name__ not in SKIP_CLASSES:
                        self._wrap_class(layer, obj)
                    continue
                if attr.startswith("_") or not _defined_in(obj, mod):
                    continue
                if inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj)):
                    continue  # a span would close before the work is done
                before, after = self._hooks(layer, attr)
                wrapped = self.wrap(f"{layer}.{attr}", obj, before, after)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is obj:
                            setattr(m, k, wrapped)
            for attr in CACHED.get(layer, ()):
                orig = getattr(mod, attr)
                if not hasattr(orig, "cache_info"):  # already wrapped in a span
                    orig = orig.__wrapped__
                self.cached[f"{layer}.{attr}"] = orig

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            label = "new" if attr == "__init__" else attr
            name = f"{layer}.{cls.__name__}.{label}"
            if isinstance(obj, types.FunctionType) and not inspect.isgeneratorfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))

    # -- reading out --------------------------------------------------------

    def start(self):
        """Mark the start of the traced passes."""
        self.stats.clear()
        for k in self.counters:
            self.counters[k] = 0
        self._cache_start = {k: _cache_counts(f) for k, f in self.cached.items()}

    def snapshot(self):
        """The aggregate since ``start``, as plain JSON-ready data."""
        from etmass.padic import LocalField, QuadExt

        gc.collect()
        retained = sum(1 for o in gc.get_objects() if isinstance(o, (LocalField, QuadExt)))
        cache = {}
        for k, f in self.cached.items():
            h0, m0 = self._cache_start.get(k, (0, 0))
            h1, m1 = _cache_counts(f)
            cache[k] = [h1 - h0, m1 - m0]
        counters = dict(self.counters)
        counters["padic.retained_fields"] = retained
        spans = [[n, p, c, t, s] for (n, p), (c, t, s) in sorted(self.stats.items(), key=str)]
        return {"spans": spans, "cache": cache, "counters": counters}


def _defined_in(obj, mod):
    if isinstance(obj, types.FunctionType):
        return obj.__module__ == mod.__name__
    inner = getattr(obj, "__wrapped__", None)  # functools.lru_cache
    return callable(obj) and hasattr(obj, "cache_info") and getattr(inner, "__module__", None) == mod.__name__


def _cache_counts(f):
    info = f.cache_info()
    return info.hits, info.misses


def layer_metrics(trace, passes, overhead_s):
    """Per-pass per-layer metrics from a ``Tracer.snapshot``.

    Counts and times are divided by the number of traced passes; every
    pass of a run repeats the same inputs, so call counts per pass are
    whole numbers that repeat exactly for a seed.  A hit ratio with no
    lookups reads 0.
    """
    calls, self_s, layer_self = {}, {}, dict.fromkeys(LAYERS, 0.0)
    for name, _parent, c, _total, s in trace["spans"]:
        calls[name] = calls.get(name, 0) + c
        self_s[name] = self_s.get(name, 0.0) + s
        layer_self[name.split(".", 1)[0]] += s
    units = {n: u for n, u, _ in metric_names()}
    out = {}
    for layer in LAYERS:
        for fn in NAMED[layer]:
            key = f"{layer}.{fn}"
            out[f"{key}.calls"] = calls.get(key, 0) / passes
            out[f"{key}.self_s"] = self_s.get(key, 0.0) / passes
        for fn in CACHED.get(layer, ()):
            hits, misses = trace["cache"].get(f"{layer}.{fn}", (0, 0))
            out[f"{layer}.{fn}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"{layer}.self_s"] = layer_self[layer] / passes
    for name, value in trace["counters"].items():
        out[name] = value if name == "density.width_rel" else value / passes
    out["trace.overhead_s"] = overhead_s
    return {k: {"value": out[k], "unit": units[k]} for k, _, _ in metric_names()}
