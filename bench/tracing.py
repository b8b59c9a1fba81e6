"""Spans and counters around calls into the program's layers.

The program is not edited: each traced function is replaced, for one
round, by a wrapper that records a span (name, start, end, parent) and
its counters.  Several modules import their callees with
`from .x import y`, so a wrapper is bound under every name, in every
`threesquares` module, that refers to the original object; methods are
replaced on their class.  Everything is restored when the round ends.
"""

from __future__ import annotations

import gc
import importlib
import sys
from collections import Counter
from time import perf_counter

ROOT = "verdict"

# Metric name -> unit, in the order the traced run prints them.
LAYER_METRICS = {
    "qseries.mul_s": "s",
    "qseries.mul_calls": "count",
    "qseries.mul_coeffs": "count",
    "qseries.prod_ap_s": "s",
    "qseries.divide_exact_s": "s",
    "lattice.theta3_s": "s",
    "lattice.theta3_calls": "count",
    "lattice.theta3_points": "count",
    "lattice.theta2_s": "s",
    "lattice.s_table_s": "s",
    "lattice.s_table_len": "count",
    "lattice.short_vectors_s": "s",
    "lattice.short_vectors_calls": "count",
    "lattice.short_vectors_len": "count",
    "forms.scan_s": "s",
    "forms.reduce_s": "s",
    "forms.reduce_calls": "count",
    "forms.classes": "count",
    "forms.classes_per_candidate": "ratio",
    "forms.automorphs_s": "s",
    "genera.genus_symbol_s": "s",
    "genera.genus_symbol_calls": "count",
    "genera.find_h_s": "s",
    "genera.find_h_calls": "count",
    "genera.genera": "count",
    "catalog.evaluate_s": "s",
    "catalog.evaluate_calls": "count",
    "catalog.memo_misses": "count",
    "catalog.memo_hits": "count",
    "verify.identities": "count",
    "verify.identity_self_s": "s",
    "verify.prop54_self_s": "s",
    "cli.emit_s": "s",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "trace.overhead_s": "s",
    "trace.outside_s": "s",
}


class Tracer:
    """Spans of one round, kept in memory, with counters beside them."""

    def __init__(self):
        # Each span is [name, start, end, parent index, outermost of its name].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._gc_start = 0.0

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, not self._depth[name]]
        stack.append(len(self.spans))
        self.spans.append(span)
        self._depth[name] += 1
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._depth[name] -= 1
            stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            token = before(self, args) if before else None
            result = self.call(name, fn, args, kwargs)
            if after:
                after(self, args, result, token)
            return result

        return traced

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.counts["runtime.gc_s"] += perf_counter() - self._gc_start
            self.counts["runtime.gc_collections"] += 1

    # -- derived figures ---------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of this round (overhead is added by the caller)."""
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, outermost in self.spans:
            calls[name] += 1
            if outermost:
                inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        candidates = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
            if name == "forms.reduce" and parent >= 0:
                candidates += self.spans[parent][0] == "forms.enumerate_classes"
        c = self.counts
        return {
            "qseries.mul_s": inclusive["qseries.mul"],
            "qseries.mul_calls": calls["qseries.mul"],
            "qseries.mul_coeffs": c["qseries.mul_coeffs"],
            "qseries.prod_ap_s": inclusive["qseries.prod_ap"],
            "qseries.divide_exact_s": inclusive["qseries.divide_exact"],
            "lattice.theta3_s": inclusive["lattice.theta3"],
            "lattice.theta3_calls": calls["lattice.theta3"],
            "lattice.theta3_points": c["lattice.theta3_points"],
            "lattice.theta2_s": inclusive["lattice.theta2"],
            "lattice.s_table_s": inclusive["lattice.s_table"],
            "lattice.s_table_len": c["lattice.s_table_len"],
            "lattice.short_vectors_s": inclusive["lattice.short_vectors"],
            "lattice.short_vectors_calls": calls["lattice.short_vectors"],
            "lattice.short_vectors_len": c["lattice.short_vectors_len"],
            "forms.scan_s": self_time["forms.enumerate_classes"],
            "forms.reduce_s": inclusive["forms.reduce"],
            "forms.reduce_calls": calls["forms.reduce"],
            "forms.classes": c["forms.classes"],
            "forms.classes_per_candidate": (
                c["forms.classes"] / candidates if candidates else 0.0
            ),
            "forms.automorphs_s": inclusive["forms.automorphs"],
            "genera.genus_symbol_s": inclusive["genera.genus_symbol"],
            "genera.genus_symbol_calls": calls["genera.genus_symbol"],
            "genera.find_h_s": inclusive["genera.find_h"],
            "genera.find_h_calls": calls["genera.find_h"],
            "genera.genera": c["genera.genera"],
            "catalog.evaluate_s": inclusive["catalog.evaluate"],
            "catalog.evaluate_calls": calls["catalog.evaluate"],
            "catalog.memo_misses": c["catalog.memo_misses"],
            "catalog.memo_hits": c["catalog.memo_hits"],
            "verify.identities": calls["verify.identity"],
            "verify.identity_self_s": self_time["verify.identity"],
            "verify.prop54_self_s": self_time["verify.prop54"],
            "cli.emit_s": inclusive["cli.emit"],
            "runtime.gc_s": c["runtime.gc_s"],
            "runtime.gc_collections": c["runtime.gc_collections"],
            "trace.outside_s": self_time[ROOT],
        }

    def dump(self, round_index: int) -> dict:
        return {
            "round": round_index,
            "fields": ["name", "start", "end", "parent"],
            "spans": [s[:4] for s in self.spans],
            "counts": dict(self.counts),
        }


# -- counter hooks -------------------------------------------------------------


def _count_coeffs(tracer, args, result, _):
    tracer.counts["qseries.mul_coeffs"] += args[0].trunc + 1


def _count_points(tracer, args, result, _):
    tracer.counts["lattice.theta3_points"] += sum(result.coeffs)


def _count_len(key):
    def hook(tracer, args, result, _):
        tracer.counts[key] += len(result)

    return hook


def _lru_misses(fn):
    def before(tracer, args):
        return fn.cache_info().misses

    return before


def _count_computed(fn, key):
    """Count the result's length only when the lru memo actually computed it."""

    def after(tracer, args, result, misses_before):
        if fn.cache_info().misses > misses_before:
            tracer.counts[key] += len(result)

    return after


def _memo_probe(catalog_module):
    def before(tracer, args):
        expr, order = args
        hit = (expr, order) in catalog_module._CACHE
        tracer.counts["catalog.memo_hits" if hit else "catalog.memo_misses"] += 1

    return before


class Wiring:
    """Installs the wrappers of one Tracer and takes them out again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple] = []

    def __enter__(self):
        qs = importlib.import_module("threesquares.qseries")
        lattice = importlib.import_module("threesquares.lattice")
        forms = importlib.import_module("threesquares.forms")
        genera = importlib.import_module("threesquares.genera")
        # `threesquares.catalog` is the function of that name, not the module.
        catalog = importlib.import_module("threesquares.catalog")
        verify = importlib.import_module("threesquares.verify")
        cli = importlib.import_module("threesquares.cli")
        t = self.tracer
        plan = [
            (qs.prod_ap, "qseries.prod_ap", None, None),
            (lattice.theta_series_ternary, "lattice.theta3", None, _count_points),
            (lattice.theta_series_binary, "lattice.theta2", None, None),
            (lattice.s_table, "lattice.s_table", None,
             _count_len("lattice.s_table_len")),
            (lattice.short_vectors, "lattice.short_vectors", None,
             _count_len("lattice.short_vectors_len")),
            (forms.enumerate_classes, "forms.enumerate_classes",
             _lru_misses(forms.enumerate_classes),
             _count_computed(forms.enumerate_classes, "forms.classes")),
            (forms.reduce_form, "forms.reduce", None, None),
            (forms.automorphs, "forms.automorphs", None, None),
            (genera.genus_symbol, "genera.genus_symbol", None, None),
            (genera.find_h_between, "genera.find_h", None, None),
            (genera.genus_partition, "genera.genus_partition",
             _lru_misses(genera.genus_partition),
             _count_computed(genera.genus_partition, "genera.genera")),
            (catalog.evaluate, "catalog.evaluate", _memo_probe(catalog), None),
            (verify.verify_identity, "verify.identity", None, None),
            (verify.verify_prop54, "verify.prop54", None, None),
            (cli._emit, "cli.emit", None, None),
        ]
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "threesquares" or name.startswith("threesquares.")
        ]
        bindings = []
        for original, name, before, after in plan:
            wrapper = t.wrap(name, original, before, after)
            found = [
                (module, attr, original, wrapper)
                for module in modules
                for attr, value in vars(module).items()
                if value is original
            ]
            if not found:
                raise RuntimeError(f"no module binds the function traced as {name}")
            bindings += found
        self._method(qs.QSeries, "__mul__", "qseries.mul", after=_count_coeffs)
        self._method(qs.QSeries, "divide_exact", "qseries.divide_exact")
        for module, attr, original, wrapper in bindings:
            setattr(module, attr, wrapper)
            self._undo.append((module, attr, original))
        gc.callbacks.append(t.on_gc)
        return self

    def _method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.tracer.wrap(name, original, after=after))
        self._undo.append((cls, attr, original))

    def __exit__(self, *exc):
        gc.callbacks.remove(self.tracer.on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False
