"""Spans around the calls that bsq.cli makes into each layer.

The tracer replaces the layer functions that bsq.cli imports (and two
methods of ThetaBasisMatrix) with wrappers that record a span each: name,
start, end, parent span and job id, plus counts taken from the arguments
and the result after the span has ended.  Spans stay in memory until the
run writes them out.  A span's self time is its duration minus the part
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _scanned(k, u, s_window, grid, tol):
    """Grid points times the branches m that trace_slice scans, from its arguments."""
    u = complex(u)
    corners = [k * b + u.real * s for b in (0.0, 1.0) for s in s_window]
    return grid * (math.floor(max(corners)) - math.ceil(min(corners)) + 1)


# name in bsq.cli -> (span name, counts recorded from the result and arguments)
LAYER_CALLS = {
    "verlinde_dim": ("verlinde.verlinde_dim", lambda r, *a, **kw: {"error_bound": r.error_bound}),
    "generate_trivalent": ("trigraph.generate_trivalent", lambda r, *a, **kw: {"classes": len(r)}),
    "bridges": ("trigraph.bridges", None),
    "parse_graph_text": ("trigraph.parse_graph_text", None),
    "graph_to_text": ("trigraph.graph_to_text", None),
    "count_admissible": (
        "weights.count_admissible",
        lambda r, graph, k, max_numerator=None: {"counted": r, "row": [graph.edges, k, max_numerator]},
    ),
    "enumerate_admissible": ("weights.enumerate_admissible", lambda r, *a, **kw: {"listed": len(r)}),
    "bpu_matrix": ("theta.bpu_matrix", lambda r, *a, **kw: {"entries": r.k * r.k}),
    "trace_slice": ("ucurve.trace_slice", lambda r, *a: {"scanned": _scanned(*a), "points": len(r.points)}),
    "zero_level_fiber": ("ucurve.zero_level_fiber", lambda r, k: {"scanned": k, "points": len(r.points)}),
}
THETA_METHODS = ("smallest_singular_value", "determinant")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.job = None
        self._open: list[dict] = []

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "job": self.job,
                    "parent": self._open[-1]["id"] if self._open else None}
            self.spans.append(span)
            self._open.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["start"], span["end"] = start, perf_counter()
                self._open.pop()
            if counts is not None:
                span.update(counts(result, *args, **kwargs))
            return result

        return traced

    @contextmanager
    def installed(self, cli, matrix_class):
        """Wrap the layer calls of the bsq.cli module for the duration."""
        saved = {name: getattr(cli, name) for name in LAYER_CALLS}
        saved_methods = {name: getattr(matrix_class, name) for name in THETA_METHODS}
        try:
            for name, (span_name, counts) in LAYER_CALLS.items():
                setattr(cli, name, self.wrap(span_name, saved[name], counts))
            for name in THETA_METHODS:
                setattr(matrix_class, name, self.wrap(f"theta.{name}", saved_methods[name]))
            yield self
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)
            for name, fn in saved_methods.items():
                setattr(matrix_class, name, fn)

    def write_jsonl(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                row = {k: v for k, v in s.items() if k != "row"}
                row["start"], row["end"] = s["start"] - origin, s["end"] - origin
                fh.write(json.dumps(row) + "\n")


# per-layer metric -> unit
UNITS = {
    "cli.self_s": "s", "cli.out_bytes": "bytes",
    "verlinde.calls": "count", "verlinde.busy_s": "s", "verlinde.failed": "count", "verlinde.margin_bits": "bits",
    "trigraph.generate_busy_s": "s", "trigraph.classes": "count", "trigraph.aux_busy_s": "s",
    "weights.count_busy_s": "s", "weights.counted": "count", "weights.counted_per_s": "1/s",
    "weights.enum_busy_s": "s", "weights.listed": "count", "weights.listed_per_s": "1/s",
    "theta.build_busy_s": "s", "theta.entries": "count", "theta.entries_per_s": "1/s", "theta.linalg_busy_s": "s",
    "ucurve.busy_s": "s", "ucurve.scanned": "count", "ucurve.points": "count", "ucurve.yield": "ratio",
}

AUX = ("trigraph.bridges", "trigraph.parse_graph_text", "trigraph.graph_to_text")


def _duration(span) -> float:
    return span["end"] - span["start"]


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def pass_metrics(spans: list[dict]) -> dict:
    """Every per-layer metric over the spans of one pass (0 where a layer did not run)."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += _duration(s)

    def busy(*names):
        return sum(_duration(s) for n in names for s in by_name[n])

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    mains = by_name["cli.main"]
    verlinde = by_name["verlinde.verlinde_dim"]
    bounds = [s["error_bound"] for s in verlinde if "error_bound" in s]
    m = {
        "cli.self_s": sum(_duration(s) - child_time[s["id"]] for s in mains),
        "cli.out_bytes": total("cli.main", "out_bytes"),
        "verlinde.calls": len(verlinde),
        "verlinde.busy_s": busy("verlinde.verlinde_dim"),
        "verlinde.failed": sum(1 for s in verlinde if "error" in s),
        "verlinde.margin_bits": min((math.log2(0.5 / b) for b in bounds), default=0.0),
        "trigraph.generate_busy_s": busy("trigraph.generate_trivalent"),
        "trigraph.classes": total("trigraph.generate_trivalent", "classes"),
        "trigraph.aux_busy_s": busy(*AUX),
        "weights.count_busy_s": busy("weights.count_admissible"),
        "weights.counted": total("weights.count_admissible", "counted"),
        "weights.enum_busy_s": busy("weights.enumerate_admissible"),
        "weights.listed": total("weights.enumerate_admissible", "listed"),
        "theta.build_busy_s": busy("theta.bpu_matrix"),
        "theta.entries": total("theta.bpu_matrix", "entries"),
        "theta.linalg_busy_s": busy("theta.smallest_singular_value", "theta.determinant"),
        "ucurve.busy_s": busy("ucurve.trace_slice", "ucurve.zero_level_fiber"),
        "ucurve.scanned": total("ucurve.trace_slice", "scanned") + total("ucurve.zero_level_fiber", "scanned"),
        "ucurve.points": total("ucurve.trace_slice", "points") + total("ucurve.zero_level_fiber", "points"),
    }
    m["weights.counted_per_s"] = _rate(m["weights.counted"], m["weights.count_busy_s"])
    m["weights.listed_per_s"] = _rate(m["weights.listed"], m["weights.enum_busy_s"])
    m["theta.entries_per_s"] = _rate(m["theta.entries"], m["theta.build_busy_s"])
    m["ucurve.yield"] = m["ucurve.points"] / m["ucurve.scanned"] if m["ucurve.scanned"] else 0.0
    return m


def repeated_rows(spans: list[dict]) -> dict:
    """Weight counts of one pass whose (graph, level) an earlier call of the pass
    already counted: their share of the calls and of weights.count_busy_s."""
    seen = set()
    calls = repeated = 0
    busy = repeated_busy = 0.0
    for s in spans:
        if s["name"] != "weights.count_admissible":
            continue
        key = repr(s["row"])
        calls += 1
        busy += _duration(s)
        if key in seen:
            repeated += 1
            repeated_busy += _duration(s)
        seen.add(key)
    return {"calls": calls, "repeated": repeated,
            "call_share": repeated / calls if calls else 0.0,
            "time_share": repeated_busy / busy if busy else 0.0}


def layer_shares(metrics: dict, pass_s: float) -> dict:
    """Share of a traced pass spent in each layer's spans, and in cli self time."""
    parts = {
        "cli.self": metrics["cli.self_s"],
        "verlinde": metrics["verlinde.busy_s"],
        "trigraph": metrics["trigraph.generate_busy_s"] + metrics["trigraph.aux_busy_s"],
        "weights": metrics["weights.count_busy_s"] + metrics["weights.enum_busy_s"],
        "theta": metrics["theta.build_busy_s"] + metrics["theta.linalg_busy_s"],
        "ucurve": metrics["ucurve.busy_s"],
    }
    return {name: value / pass_s for name, value in parts.items()}


def median_metrics(per_pass: list[dict]) -> dict:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
