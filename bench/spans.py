"""Span and count recording around the public functions of each layer.

The tracer replaces module attributes and class methods of ``quiverhh``
with recording wrappers while it is active and puts the original objects
back when it exits; nothing under ``src/`` changes.  A name imported by
value (``from .algebra import build_algebra``) is a separate binding, so
it is wrapped in the module that looks it up.

A span is (name, start ns, end ns, parent span id, case id).  A layer's
self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import time
from collections import Counter

# (owner, attribute, span name).  The owner is "module" or "module.Class";
# several bindings of one function share a span name.
SPANNED = (
    ("dsl", "load_presentation", "dsl.load_presentation"),
    ("dsl", "parse_presentation", "dsl.parse_presentation"),
    ("algebra", "build_algebra", "algebra.build_algebra"),
    ("analysis", "build_algebra", "algebra.build_algebra"),
    ("cli", "build_algebra", "algebra.build_algebra"),
    ("algebra.AlgebraTable", "radical_power_basis", "algebra.radical_power_basis"),
    ("linal", "rref", "linal.rref"),
    ("linal", "solve", "linal.solve"),
    ("linal", "sparse_rank", "linal.sparse_rank"),
    ("derlie", "hh1", "derlie.hh1"),
    ("derlie", "derivation_space", "derlie.derivation_space"),
    ("derlie", "inner_space", "derlie.inner_space"),
    ("derlie", "radical_preserving", "derlie.radical_preserving"),
    ("derlie", "lie_from_quotient", "derlie.lie_from_quotient"),
    ("derlie", "loop_criterion", "derlie.loop_criterion"),
    ("derlie.LieAlgebra", "derived_series", "derlie.derived_series"),
    ("derlie", "delta_map", "kron.delta_map"),
    ("kron", "delta_map", "kron.delta_map"),
    ("kron", "maximal_chains", "kron.maximal_chains"),
    ("kron", "decomposition_report", "kron.decomposition_report"),
    ("kron", "reptype_radsq", "quiver.reptype_radsq"),
    ("quiver", "separated_quiver", "quiver.separated_quiver"),
    ("quiver", "classify_components", "quiver.classify_components"),
    ("quiver", "reptype_radsq", "quiver.reptype_radsq"),
    ("oracle", "bar_hh1_dim", "oracle.bar_hh1_dim"),
    ("analysis", "run_analyze", "analysis.run_analyze"),
    ("cli", "run_analyze", "analysis.run_analyze"),
    ("analysis.AnalysisReport", "to_dict", "analysis.to_dict"),
    ("cli", "main", "cli.main"),
)

# Called too often for a span each; only the calls are counted.
COUNTED = (
    ("algebra.AlgebraTable", "multiply", "algebra.multiply"),
)

# metric -> span names whose outermost spans it sums
TOTAL_TIME = {
    "dsl.load_s": ("dsl.load_presentation", "dsl.parse_presentation"),
    "algebra.build_s": ("algebra.build_algebra",),
    "algebra.radical_power_basis_s": ("algebra.radical_power_basis",),
    "linal.rref_s": ("linal.rref",),
    "linal.sparse_rank_s": ("linal.sparse_rank",),
    "derlie.hh1_s": ("derlie.hh1",),
    "derlie.derivation_space_s": ("derlie.derivation_space",),
    "derlie.inner_space_s": ("derlie.inner_space",),
    "derlie.radical_preserving_s": ("derlie.radical_preserving",),
    "derlie.lie_from_quotient_s": ("derlie.lie_from_quotient",),
    "derlie.loop_criterion_s": ("derlie.loop_criterion",),
    "derlie.derived_series_s": ("derlie.derived_series",),
    "kron.decomposition_report_s": ("kron.decomposition_report",),
    "quiver.septype_s": ("quiver.separated_quiver", "quiver.classify_components",
                         "quiver.reptype_radsq"),
    "oracle.bar_hh1_dim_s": ("oracle.bar_hh1_dim",),
    "analysis.to_dict_s": ("analysis.to_dict",),
}

# metric -> span name whose self time it sums
SELF_TIME = {
    "analysis.run_analyze_self_s": "analysis.run_analyze",
    "cli.main_self_s": "cli.main",
}

# metric -> count key
CALLS = {
    "algebra.radical_power_basis_calls": "algebra.radical_power_basis",
    "algebra.multiply_calls": "algebra.multiply",
    "linal.rref_calls": "linal.rref",
    "linal.rref_cells": "linal.rref_cells",
    "linal.solve_calls": "linal.solve",
    "derlie.hh1_calls": "derlie.hh1",
    "derlie.derived_series_calls": "derlie.derived_series",
    "kron.delta_map_calls": "kron.delta_map",
    "kron.chains": "kron.chains",
}

SIZES = ("algebra.dim", "algebra.rules", "algebra.loewy_length", "derlie.slots",
         "derlie.der_dim", "derlie.inn_dim", "derlie.hh1_dim")


def _owner(mods: dict, path: str):
    module, _, cls = path.partition(".")
    return getattr(mods[module], cls) if cls else mods[module]


class Tracer:
    """Records spans and counts while installed; a context manager.

    ``case`` is set by the caller before each case; spans, counts and
    sizes are keyed by it.
    """

    def __init__(self, mods: dict):
        self.mods = mods
        self.case = None
        self.spans: list = []
        self.counts: dict = {}   # case -> Counter
        self.sizes: dict = {}    # case -> {size metric: value}
        self._stack: list = []
        self._saved: list = []

    def __enter__(self):
        for path, attr, name in SPANNED + COUNTED:
            owner = _owner(self.mods, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            wrap = self._span if (path, attr, name) in SPANNED else self._count
            setattr(owner, attr, wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _counter(self) -> Counter:
        return self.counts.setdefault(self.case, Counter())

    def _count(self, fn, name):
        def counted(*args, **kwargs):
            self._counter()[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.case)
            self._record(name, args, kwargs, result)
            return result
        return traced

    def _record(self, name, args, kwargs, result) -> None:
        counts = self._counter()
        counts[name] += 1
        if name == "linal.rref":
            rows = args[1]
            counts["linal.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)
        elif name == "kron.maximal_chains":
            counts["kron.chains"] += len(result)
        elif name == "algebra.build_algebra":
            self.sizes.setdefault(self.case, {}).update({
                "algebra.dim": result.dim,
                "algebra.rules": len(result.groebner),
                "algebra.loewy_length": len(result.rad_dims) - 1,
            })
        elif name == "derlie.hh1" and not kwargs.get("rad_only", False):
            self.sizes.setdefault(self.case, {}).update({
                "derlie.slots": result.layout.size,
                "derlie.der_dim": result.der_dim,
                "derlie.inn_dim": result.inn_dim,
                "derlie.hh1_dim": result.lie.dim,
            })


def layer_totals(spans: list, counts: Counter) -> dict:
    """Time (s) and count metrics over one group of spans and its counts."""
    by_id = {}
    child_ns = Counter()
    for sid, (name, start, end, parent, _) in spans:
        by_id[sid] = name
        if parent is not None:
            child_ns[parent] += end - start
    parent_of = {sid: span[3] for sid, span in spans}

    def outermost(sid, names):
        p = parent_of[sid]
        while p is not None:
            if by_id.get(p) in names:
                return False
            p = parent_of.get(p)
        return True

    out = {}
    for metric, names in TOTAL_TIME.items():
        out[metric] = sum(end - start for sid, (name, start, end, _, _) in spans
                          if name in names and outermost(sid, names)) / 1e9
    for metric, target in SELF_TIME.items():
        out[metric] = sum(end - start - child_ns[sid]
                          for sid, (name, start, end, _, _) in spans
                          if name == target) / 1e9
    for metric, key in CALLS.items():
        out[metric] = counts[key]
    return out
