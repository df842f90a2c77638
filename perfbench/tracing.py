"""Spans around toricwidth's public functions, recorded from outside.

The package imports names with `from .x import f`, so wrapping a function
means rebinding its name in every toricwidth module that holds it.  Spans
are plain lists kept in memory: [name, start, end, parent index, call id,
counters], with start and end in thread CPU seconds.  Scalar helpers called
millions of times (lattice.dot, numeric._monomial) are deliberately not
wrapped.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

TRACED = {
    "lattice": ("solve_rational", "rref"),
    "polytope": (
        "enumerate_vertices", "recession_direction", "is_delzant",
        "lattice_points", "normalize_at_vertex",
    ),
    "fan": ("normal_fan", "is_strictly_convex", "cone_linear_parts"),
    "charts": ("chart_for_cone", "transition_map"),
    "embedding": ("sections_by_polytope",),
    "width": ("width_report", "cylinder_bound", "lu_lambda", "fano_check", "lu_gamma"),
    "numeric": ("potential_value", "potential_partial", "psi_map", "pullback_check"),
    "verify": ("chart_suite", "numeric_suite"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

NAME, START, END, PARENT, CALL, COUNTERS = range(6)


class Tracer:
    """Records a span per call of each wrapped function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.call_id = None
        self._stack: list[int] = []
        self._paused = False
        self._rebound: list[tuple] = []

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            counters = before(*args) if before else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id, counters]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.thread_time()
                stack.pop()
            if after:
                rec[COUNTERS] = after(result, counters)
            return result

        return wrapper

    def untraced(self, fn, *args):
        """Call fn without recording spans, e.g. for the benchmark's own checks."""
        self._paused = True
        try:
            return fn(*args)
        finally:
            self._paused = False

    def install(self) -> None:
        """Wrap every function of TRACED, in every module that imported it."""
        polytope = importlib.import_module("toricwidth.polytope")

        def box_size(P):
            # outside the span, so the count does not inflate its time
            try:
                lo, hi = self.untraced(polytope.bounding_box, P)
            except ValueError:
                return {"scanned": 0}
            return {"scanned": math.prod(max(0, b - a + 1) for a, b in zip(lo, hi))}

        hooks = {
            "polytope.lattice_points": (box_size, lambda pts, c: {**c, "kept": len(pts)}),
            "embedding.sections_by_polytope": (
                None, lambda E, c: {"exponents": len(E.exponents)}),
        }
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "toricwidth"]
        for modname, names in TRACED.items():
            mod = importlib.import_module(f"toricwidth.{modname}")
            for fname in names:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{modname}.{fname}", original,
                                     *hooks.get(f"{modname}.{fname}", (None, None)))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._rebound.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._rebound):
            setattr(m, attr, original)
        self._rebound.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out.append((s[END] - s[START]) - covered)
    return out


def has_ancestor(spans: list[list], i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans: list[list], inputs: int) -> dict[str, float]:
    """Per-layer calls, self time and counters, summed over the spans given."""
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    scanned = kept = exponents = rref_calls = 0
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        name = s[NAME]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        counters = s[COUNTERS] or {}
        scanned += counters.get("scanned", 0)
        kept += counters.get("kept", 0)
        exponents += counters.get("exponents", 0)
        if name == "lattice.rref" and has_ancestor(spans, i, "width.fano_check"):
            rref_calls += 1
    out["polytope.lattice_points.scanned"] = scanned
    out["polytope.lattice_points.kept"] = kept
    out["polytope.lattice_points.keep_ratio"] = kept / scanned if scanned else 0.0
    out["polytope.enumerate_vertices.per_input"] = (
        out["polytope.enumerate_vertices.calls"] / inputs)
    out["width.fano_check.rref_calls"] = rref_calls
    out["embedding.sections_by_polytope.exponents"] = exponents
    return out


def per_call_breakdown(spans: list[list]) -> dict[str, dict]:
    """For each CLI call: total time, self time per span name, fano rrefs."""
    own = self_times(spans)
    calls: dict[str, dict] = {}
    for i, s in enumerate(spans):
        c = calls.setdefault(s[CALL], {"total_s": 0.0, "self_s": defaultdict(float),
                                        "fano_rref_calls": 0})
        c["self_s"][s[NAME]] += own[i]
        if s[NAME] == "cli.main":
            c["total_s"] += s[END] - s[START]
        if s[NAME] == "lattice.rref" and has_ancestor(spans, i, "width.fano_check"):
            c["fano_rref_calls"] += 1
    return calls
