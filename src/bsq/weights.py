"""Admissible integer weights on trivalent graphs, level by level.

An edge labeling w_e = j_e/k (integer numerators, shared denominator k) is
admissible when at every vertex the three incident edge ends (a loop
contributes its label twice) satisfy, with exact integer arithmetic:

  1. j_l + j_m + j_n is even,
  2. j_l + j_m + j_n <= 2k,
  3. every end is at most the sum of the other two (triangle inequalities),

and 4. every bridge edge has an even numerator.

Labels run over {0, 1/k, ..., k/k}; the count of admissible labelings equals
the Verlinde dimension, which is what ties this module to verlinde.py.  The
enumeration is a backtracker over edges ordered to close vertices early, with
each vertex checked the moment its three ends are labeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .trigraph import TrivalentGraph, bridges


class ShapeMismatch(ValueError):
    """Weight or point data does not line up with the graph's edge list."""


class Violation(NamedTuple):
    site: str       # "vertex <i>" or "edge <i>"
    condition: int  # 1 parity, 2 level cap, 3 triangle, 4 bridge parity
    detail: str


@dataclass(frozen=True)
class WeightFunction:
    """Edge labels j_e/k stored as integer numerators over denominator k."""

    graph: TrivalentGraph
    k: int
    numerators: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "numerators", tuple(self.numerators))
        if self.k < 1:
            raise ValueError(f"level must be >= 1, got {self.k}")
        if len(self.numerators) != len(self.graph.edges):
            raise ShapeMismatch(
                f"{len(self.numerators)} numerators for {len(self.graph.edges)} edges"
            )
        if any(not isinstance(j, int) or j < 0 for j in self.numerators):
            raise ValueError("numerators must be non-negative integers")

    @property
    def labels(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(j, self.k) for j in self.numerators)


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    violations: tuple[Violation, ...]


# A point of the weight cube, one real coordinate per edge.
ActionPoint = Sequence[float]


def _incidence(graph: TrivalentGraph) -> list[list[int]]:
    """incidence[v] lists the edge index of each of v's three ends."""
    inc = [[] for _ in range(graph.vertex_count)]
    for idx, (a, b) in enumerate(graph.edges):
        inc[a].append(idx)
        inc[b].append(idx)
    return inc


def _vertex_conditions(ends, k):
    """Violated condition ids (subset of {1, 2, 3}) for one vertex."""
    s = sum(ends)
    out = []
    if s % 2 != 0:
        out.append(1)
    if s > 2 * k:
        out.append(2)
    if 2 * max(ends) > s:
        out.append(3)
    return out


def is_admissible(graph: TrivalentGraph, k: int, weight) -> AdmissibilityReport:
    """Check all four conditions; the report lists every violation found.

    weight may be a WeightFunction on this graph or a bare numerator sequence.
    """
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    if isinstance(weight, WeightFunction):
        if weight.graph != graph:
            raise ShapeMismatch("weight was built on a different graph")
        if weight.k != k:
            raise ShapeMismatch(f"weight has denominator {weight.k}, expected {k}")
        nums = weight.numerators
    else:
        nums = tuple(weight)
        if len(nums) != len(graph.edges):
            raise ShapeMismatch(f"{len(nums)} numerators for {len(graph.edges)} edges")

    violations = []
    for v, ends_idx in enumerate(_incidence(graph)):
        ends = [nums[i] for i in ends_idx]
        s = sum(ends)
        for cond in _vertex_conditions(ends, k):
            if cond == 1:
                detail = f"ends {ends} have odd numerator sum {s}"
            elif cond == 2:
                detail = f"ends {ends} sum to {s} > 2k = {2 * k}"
            else:
                detail = f"ends {ends} break a triangle inequality"
            violations.append(Violation(f"vertex {v}", cond, detail))
    for idx in sorted(bridges(graph)):
        if nums[idx] % 2 != 0:
            violations.append(
                Violation(f"edge {idx}", 4, f"bridge numerator {nums[idx]} is odd")
            )
    return AdmissibilityReport(not violations, tuple(violations))


def _edge_order(graph: TrivalentGraph) -> list[int]:
    """Order edges so each assignment closes vertices as early as possible."""
    filled = [0] * graph.vertex_count
    remaining = list(range(len(graph.edges)))
    order = []
    while remaining:
        def score(idx):
            a, b = graph.edges[idx]
            contrib = {a: 0, b: 0}
            contrib[a] += 1
            contrib[b] += 1
            closes = sum(1 for v, c in contrib.items() if filled[v] + c == 3)
            progress = sum(filled[v] for v in contrib)
            return (closes, progress, -idx)

        best = max(remaining, key=score)
        remaining.remove(best)
        order.append(best)
        a, b = graph.edges[best]
        filled[a] += 1
        filled[b] += 1
    return order


def _enumerate_numerators(graph: TrivalentGraph, k: int, max_numerator: int) -> Iterator[tuple[int, ...]]:
    """Backtracking generator of admissible numerator tuples (edge order)."""
    n_edges = len(graph.edges)
    inc = _incidence(graph)
    bridge_set = bridges(graph)
    order = _edge_order(graph)
    position = {edge: pos for pos, edge in enumerate(order)}
    # a vertex closes at the latest position among its three ends
    closes_at = [[] for _ in range(n_edges)]
    for v, ends_idx in enumerate(inc):
        closes_at[max(position[i] for i in ends_idx)].append(v)

    nums = [0] * n_edges

    def fill(pos):
        if pos == n_edges:
            yield tuple(nums)
            return
        edge = order[pos]
        for j in range(max_numerator + 1):
            if edge in bridge_set and j % 2 != 0:
                continue
            nums[edge] = j
            ok = True
            for v in closes_at[pos]:
                ends = [nums[i] for i in inc[v]]
                if _vertex_conditions(ends, k):
                    ok = False
                    break
            if ok:
                yield from fill(pos + 1)
        nums[edge] = 0

    yield from fill(0)


def _check_enum_args(graph, k, max_numerator):
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"level must be an integer >= 1, got {k!r}")
    if max_numerator is None:
        max_numerator = k
    if not isinstance(max_numerator, int) or max_numerator < 0:
        raise ValueError(f"max_numerator must be an integer >= 0, got {max_numerator!r}")
    return max_numerator


def enumerate_admissible(graph: TrivalentGraph, k: int, max_numerator: int | None = None) -> list[WeightFunction]:
    """All admissible weights, sorted lexicographically by numerators.

    max_numerator defaults to k (labels up to k/k = 1); passing k-1 restricts
    to the open range {0, ..., (k-1)/k}, which is the documented way to break
    the count identity on purpose.
    """
    max_numerator = _check_enum_args(graph, k, max_numerator)
    tuples = sorted(_enumerate_numerators(graph, k, max_numerator))
    return [WeightFunction(graph, k, t) for t in tuples]


def count_admissible(graph: TrivalentGraph, k: int, max_numerator: int | None = None) -> int:
    """Number of admissible weights, counted without materializing them."""
    max_numerator = _check_enum_args(graph, k, max_numerator)
    return sum(1 for _ in _enumerate_numerators(graph, k, max_numerator))


def polytope_contains(graph: TrivalentGraph, point: ActionPoint) -> bool:
    """Real relaxation: vertex conditions 2 and 3 only, no integrality.

    The polytope is closed and the test is exact (coordinates are promoted
    to Fraction), so boundary points count as inside.  The triangle
    inequalities force every coordinate into [0, 1] on their own, so no
    separate cube check is needed.
    """
    coords = [Fraction(c) for c in point]
    if len(coords) != len(graph.edges):
        raise ShapeMismatch(f"{len(coords)} coordinates for {len(graph.edges)} edges")
    for ends_idx in _incidence(graph):
        ends = [coords[i] for i in ends_idx]
        s = sum(ends)
        if s > 2:
            return False
        if 2 * max(ends) > s:
            return False
    return True
