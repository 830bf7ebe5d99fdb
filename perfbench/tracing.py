"""Per-layer spans measured from outside holotree.

The tracer rebinds each traced public function wherever a holotree module
holds it by name: in the module that defines it and in every module that
imports it (`holotree.theorems.enumerate_forests`,
`holotree.forests.boundary_operator`, `holotree.cli.parse_graph_text`, ...).
Nothing inside holotree changes, and the rebinding lives only in the process
that installs it.

Spans nest on a stack: a span's self time is its duration minus the time
covered by the traced calls made inside it.  Every call, hot ones included,
is folded into per-name totals (calls, inclusive seconds, self seconds)
rather than kept as one record per call.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
import weakref
from collections import defaultdict

LAYERS = ("graphs", "bundle", "chains", "forests", "theorems", "fileformat", "cli")

TRACED = {
    "graphs": ("components",),
    "bundle": ("h0_trivial", "holonomy", "gauge_transform"),
    "chains": ("boundary_operator", "kernel_basis", "numerical_rank", "laplacian", "determinant"),
    "forests": ("enumerate_forests", "tbar_operator", "forest_record"),
    "theorems": (
        "matrix_tree_report",
        "kirchhoff_projection",
        "solve_network",
        "gauge_invariance_check",
        "oracle_projection",
        "tree_laplacian_identity",
        "low_temp_demo",
    ),
    "fileformat": ("parse_graph_text",),
    "cli": ("main", "render_json"),
}

# Per-layer metrics (name, unit, better); README.md says which end-to-end
# metric each should move, and on which workload.
LAYER_METRICS = (
    ("cli.main_self_s", "s", "lower"),
    ("cli.render_json_s", "s", "lower"),
    ("fileformat.parse_graph_text_s", "s", "lower"),
    ("fileformat.parse_graph_text_calls", "count", "lower"),
    ("graphs.components_s", "s", "lower"),
    ("graphs.components_calls", "count", "lower"),
    ("bundle.h0_trivial_s", "s", "lower"),
    ("bundle.h0_trivial_calls", "count", "lower"),
    ("bundle.holonomy_s", "s", "lower"),
    ("bundle.holonomy_calls", "count", "lower"),
    ("bundle.gauge_transform_s", "s", "lower"),
    ("chains.boundary_operator_s", "s", "lower"),
    ("chains.boundary_operator_calls", "count", "lower"),
    ("chains.kernel_basis_s", "s", "lower"),
    ("chains.numerical_rank_s", "s", "lower"),
    ("chains.laplacian_s", "s", "lower"),
    ("chains.determinant_s", "s", "lower"),
    ("forests.enumerate_cold_s", "s", "lower"),
    ("forests.enumerate_warm_s", "s", "lower"),
    ("forests.combinations", "count", "lower"),
    ("forests.admitted", "count", "higher"),
    ("forests.admit_ratio", "1", "higher"),
    ("forests.tbar_operator_s", "s", "lower"),
    ("forests.tbar_operator_calls", "count", "lower"),
    ("forests.forest_record_s", "s", "lower"),
    ("forests.peak_alloc_mb", "MB", "lower"),
    ("theorems.kirchhoff_projection_self_s", "s", "lower"),
    ("theorems.solve_network_self_s", "s", "lower"),
    ("theorems.matrix_tree_report_self_s", "s", "lower"),
    ("theorems.gauge_invariance_check_self_s", "s", "lower"),
    ("theorems.oracle_projection_s", "s", "lower"),
    ("theorems.oracle_projection_calls", "count", "lower"),
    ("theorems.low_temp_demo_s", "s", "lower"),
    ("theorems.tree_laplacian_identity_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
)


class Tracer:
    """Install once, before the workload's set-up; spans are recorded only
    while `active` is true.  Graphs enumerated while inactive (in set-up)
    still count as seen, so a later census on them is classed as warm."""

    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._seen = weakref.WeakSet()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = [importlib.import_module(f"holotree.{name}") for name in LAYERS]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"holotree.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(original, f"{layer}.{name}")
                for mod in mods:
                    if getattr(mod, name, None) is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    def _span(self, key, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            inner = stack.pop()
            if stack:
                stack[-1] += dt
            self.calls[key] += 1
            self.total[key] += dt
            self.self_time[key] += dt - inner

    def _wrap(self, fn, key):
        if key == "forests.enumerate_forests":
            def traced(g, *args, **kwargs):
                if not self.active:
                    out = fn(g, *args, **kwargs)
                    self._seen.add(g)
                    return out
                name = "forests.enumerate_warm" if g in self._seen else "forests.enumerate_cold"
                out = self._span(name, fn, (g, *args), kwargs)
                self._seen.add(g)
                self.counts["forests.combinations"] += math.comb(len(g.edges), len(g.vertices))
                self.counts["forests.admitted"] += len(out)
                return out
        else:
            def traced(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                return self._span(key, fn, args, kwargs)
        return functools.wraps(fn)(traced)

    def metrics(self, overhead_ratio: float, peak_alloc_mb: float) -> dict[str, float]:
        out = {}
        for name, _, _ in LAYER_METRICS:
            if name == "trace.overhead_ratio":
                value = overhead_ratio
            elif name == "forests.peak_alloc_mb":
                value = peak_alloc_mb
            elif name == "forests.admit_ratio":
                combos = self.counts["forests.combinations"]
                value = self.counts["forests.admitted"] / combos if combos else 0.0
            elif name in ("forests.combinations", "forests.admitted"):
                value = self.counts[name]
            elif name.endswith("_self_s"):
                value = self.self_time[name[: -len("_self_s")]]
            elif name.endswith("_calls"):
                value = self.calls[name[: -len("_calls")]]
            else:
                value = self.total[name[: -len("_s")]]
            out[name] = value
        return out
