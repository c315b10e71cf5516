"""Spans around the calls into each se3sym module, and the per-layer metrics.

The tracer replaces every public function of the eight modules with a
wrapper, in every module namespace that holds it (functions imported by name,
such as ``claims.hyperplane_scan``, are wrapped where they are looked up), and
replaces ``AlgebraElement.__post_init__`` so that element construction counts
as algebra time.  Nothing in ``src/`` is edited.  A wrapper records a span
(function, parent span, start, end) only while a root span is open, so code
the benchmark runs between ops, such as answer checks, is not traced.  Spans
stay in memory and are written out once, at the end of the process.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
import tracemalloc
from typing import Callable, Dict, List, Sequence

LAYERS = ("cli", "claims", "optimal", "adjoint", "algebra", "jets", "linalg", "solutions")

ROOT_OP = "op"
ROOT_KERNEL = "kernel"
ROOT_RECIPES = "recipes"


# hooks run the call themselves and return (result, span attributes); a call
# that raises keeps its span but gets no attributes


def _scan_hook(call, args, kwargs):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, {"covectors": result.grid_points + result.random_samples, "peak_bytes": peak}


def _solve_hook(call, args, kwargs):
    cap = args[2] if len(args) > 2 else kwargs.get("max_degree", 3)
    return call(), {"cap": cap}


def _exact_solve_hook(call, args, kwargs):
    result = call()
    rows = args[0]
    cols = len(rows[0]) if rows else 0
    attrs = {"rows": len(rows), "cols": cols}
    if result is not None:
        attrs["rank"] = cols - len(result[1])
    return result, attrs


def _flow_hook(call, args, kwargs):
    result = call()
    return result, {"steps": result.steps}


def _classify_hook(call, args, kwargs):
    result = call()
    return result, {"fallback": result.fallback}


HOOKS: Dict[str, Callable] = {
    "optimal.hyperplane_scan": _scan_hook,
    "jets.solve_phi_for_xi": _solve_hook,
    "linalg.exact_solve": _exact_solve_hook,
    "solutions.flow": _flow_hook,
    "optimal.classify_1d_paper": _classify_hook,
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name: List[int] = []
        self.parent: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.attrs: Dict[int, dict] = {}
        self._stack: List[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, qualname: str) -> Callable:
        name_id = self._name_id(qualname)
        hook = HOOKS.get(qualname)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        attrs, stack, clock = self.attrs, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(ends)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                result, attrs[idx] = hook(lambda: fn(*args, **kwargs), args, kwargs)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer."""
        modules = {layer: importlib.import_module(f"se3sym.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        package = importlib.import_module("se3sym")
        for module in list(modules.values()) + [package]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        element = modules["algebra"].AlgebraElement
        element.__post_init__ = self._wrap(element.__post_init__, "algebra.AlgebraElement")

    def root(self, kind: str, fn: Callable, *args):
        """Run fn(*args) as a root span named kind; returns its result."""
        idx = len(self.end)
        self.name.append(self._name_id(kind))
        self.parent.append(-1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def span_count(self) -> int:
        return len(self.end)

    def dump(self, path: str, **extra) -> None:
        payload = {
            "names": self.names,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "attrs": {str(k): v for k, v in self.attrs.items()},
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# from spans to metrics
# ---------------------------------------------------------------------------

_UNIT_SUFFIXES = (("_per_s", "1/s"), ("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_mb", "MB"),
                  ("_ratio", "ratio"), ("_share", "ratio"))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name; counts otherwise."""
    base = metric.rsplit(".cap", 1)[0]
    return next((unit for suffix, unit in _UNIT_SUFFIXES if base.endswith(suffix)), "count")



def self_times(parent: Sequence[int], start: Sequence[int], end: Sequence[int]) -> List[int]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their summed
    durations are the part of the parent's interval they cover.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


class SpanSet:
    """Spans of several trace files, indexed by function and by root kind."""

    def __init__(self, payloads: Sequence[dict]):
        self.calls: Dict[str, List[tuple]] = {}  # function -> [(root kind, ns, attrs)]
        self.self_ns: Dict[tuple, int] = {}  # (root kind, layer) -> ns
        self.roots: Dict[str, int] = {}
        self.import_s: List[float] = []
        for payload in payloads:
            self._add(payload)

    def _add(self, payload: dict) -> None:
        names, parent, start, end = payload["names"], payload["parent"], payload["start"], payload["end"]
        if "import_s" in payload:
            self.import_s.append(payload["import_s"])
        selfs = self_times(parent, start, end)
        root_kind: List[str] = []
        for i, p in enumerate(parent):
            name = names[payload["name"][i]]
            if p < 0:
                root_kind.append(name)
                self.roots[name] = self.roots.get(name, 0) + 1
                continue
            kind = root_kind[p]
            root_kind.append(kind)
            attrs = payload["attrs"].get(str(i), {})
            self.calls.setdefault(name, []).append((kind, end[i] - start[i], attrs))
            key = (kind, name.split(".")[0])
            self.self_ns[key] = self.self_ns.get(key, 0) + selfs[i]

    def _calls(self, function: str, where=None) -> tuple:
        """(source, calls): the workload's own ops when they reach the
        function, else the kernel pass, with the calls made there."""
        calls = [c for c in self.calls.get(function, ()) if where is None or where(c[2])]
        kind = ROOT_OP if any(k == ROOT_OP for k, _, _ in calls) else ROOT_KERNEL
        return kind, [(ns, attrs) for k, ns, attrs in calls if k == kind]

    def durations(self, function: str, where=None) -> List[tuple]:
        return self._calls(function, where)[1]

    def median_ns(self, function: str, where=None) -> float:
        values = [ns for ns, _ in self.durations(function, where)]
        return statistics.median(values) if values else 0.0

    def per_root(self, function: str, value=lambda ns, attrs: 1) -> float:
        """Sum of value over the calls of function, per root span of their source."""
        kind, calls = self._calls(function)
        return sum(value(ns, attrs) for ns, attrs in calls) / max(1, self.roots.get(kind, 0))

    def layer_self_s(self, layer: str) -> float:
        """Self time of the layer per root span, in seconds."""
        reached = self.self_ns.get((ROOT_OP, layer), 0) > 0
        kind = ROOT_OP if reached else ROOT_KERNEL
        return self.self_ns.get((kind, layer), 0) / 1e9 / max(1, self.roots.get(kind, 0))


def per_layer_metrics(spanset: SpanSet, recipes_from_ops: bool) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, values in their units.

    The recipe success ratio comes from the ops when recipes_from_ops is
    set, and from the recipe pass otherwise.
    """
    m: Dict[str, float] = {}
    ms, us = 1e-6, 1e-3
    m["cli.import_s"] = statistics.median(spanset.import_s) if spanset.import_s else 0.0
    m["cli.render_ms"] = spanset.layer_self_s("cli") * 1e3 / max(spanset.per_root("cli.main"), 1.0)
    m["claims.report_s"] = spanset.median_ns("claims.claims_report") / 1e9
    m["claims.self_s"] = spanset.layer_self_s("claims")

    scans = spanset.durations("optimal.hyperplane_scan", lambda a: "covectors" in a)
    m["optimal.hyperplane_scan_s"] = spanset.median_ns("optimal.hyperplane_scan") / 1e9
    scan_ns = sum(ns for ns, _ in scans)
    m["optimal.covectors_per_s"] = sum(a["covectors"] for _, a in scans) / (scan_ns / 1e9) if scan_ns else 0.0
    m["optimal.scan_peak_alloc_mb"] = max((a["peak_bytes"] for _, a in scans), default=0) / 2**20
    for fn in ("classify_1d_paper", "canonicalize_screw", "equivalence_search"):
        m[f"optimal.{fn}_us"] = spanset.median_ns(f"optimal.{fn}") * us
    source = ROOT_OP if recipes_from_ops else ROOT_RECIPES
    classified = [a for kind, _, a in spanset.calls.get("optimal.classify_1d_paper", ())
                  if kind == source and "fallback" in a]
    m["optimal.recipe_success_ratio"] = (
        sum(1 for a in classified if a["fallback"] is False) / len(classified) if classified else 0.0
    )
    m["optimal.verify_lists_ms"] = (
        spanset.median_ns("optimal.verify_2d_list") + spanset.median_ns("optimal.verify_3d_4d")
    ) * ms
    m["optimal.self_s"] = spanset.layer_self_s("optimal")

    m["adjoint.apply_word_calls"] = spanset.per_root("adjoint.apply_word")
    m["adjoint.apply_word_us"] = spanset.median_ns("adjoint.apply_word") * us
    m["adjoint.closed_form_ms"] = spanset.per_root("adjoint.adjoint_closed_form", lambda ns, a: ns) * ms
    m["adjoint.self_s"] = spanset.layer_self_s("adjoint")

    m["algebra.bracket_calls"] = spanset.per_root("algebra.bracket")
    m["algebra.closure_check_ms"] = spanset.median_ns("algebra.closure_check") * ms
    m["algebra.self_s"] = spanset.layer_self_s("algebra")

    for cap in (2, 3, 4, 5):
        m[f"jets.solve_phi_ms.cap{cap}"] = spanset.median_ns(
            "jets.solve_phi_for_xi", lambda a, cap=cap: a.get("cap") == cap) * ms
    m["jets.defining_equations_ms"] = spanset.median_ns("jets.defining_equations") * ms
    m["jets.invariance_residual_ms"] = spanset.median_ns("jets.invariance_residual") * ms
    m["jets.self_s"] = spanset.layer_self_s("jets")

    solves = spanset.durations("linalg.exact_solve")
    m["linalg.exact_solve_ms"] = spanset.median_ns("linalg.exact_solve") * ms
    largest = max((a for _, a in solves if "rank" in a), key=lambda a: a["cols"], default={})
    for key in ("rows", "cols", "rank"):
        m[f"linalg.{key}"] = float(largest.get(key, 0))
    phi_ns = sum(ns for ns, _ in spanset.durations("jets.solve_phi_for_xi"))
    m["linalg.solve_share"] = sum(ns for ns, _ in solves) / phi_ns if phi_ns else 0.0

    m["solutions.verify_invariance_ms"] = spanset.median_ns("solutions.verify_invariance") * ms
    flows = spanset.durations("solutions.flow", lambda a: "steps" in a)
    steps = sum(a["steps"] for _, a in flows)
    flow_ns = sum(ns for ns, _ in flows)
    m["solutions.rk4_steps"] = spanset.per_root("solutions.flow", lambda ns, a: a.get("steps", 0))
    m["solutions.rk4_steps_per_s"] = steps / (flow_ns / 1e9) if flow_ns else 0.0
    m["solutions.self_s"] = spanset.layer_self_s("solutions")
    return m
