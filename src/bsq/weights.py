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
each vertex checked the moment its three ends are labeled; the order is
searched for from the graph's structure, so its cost does not depend on how
the graph is numbered.
"""

from __future__ import annotations

import math
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


# _edge_order's search over vertex orders takes about 0.4 ms at genus 4 (6
# vertices), 1 ms at genus 5 and 7 ms at genus 6 (10 vertices); larger graphs
# take the greedy order.
_ORDER_SEARCH_MAX_VERTICES = 10


def _passing_triples(k: int, max_numerator: int) -> int:
    """How many end triples in {0..max_numerator}^3 pass the vertex conditions."""
    passing = 0
    for x in range(max_numerator + 1):
        for y in range(max_numerator + 1):
            # z runs over |x - y|, |x - y| + 2, ... up to x + y, 2k - x - y
            # and max_numerator: conditions 1, 3 and 2
            low, high = abs(x - y), min(x + y, 2 * k - x - y, max_numerator)
            if high >= low:
                passing += (high - low) // 2 + 1
    return passing


def _edge_order(graph: TrivalentGraph, inc, bridge_set, k: int, max_numerator: int) -> list[int]:
    """The order in which the backtracker assigns the edges.

    The backtracker visits about N(S) nodes for each prefix S of the order:
    the partial weights on S that pass the conditions of every vertex whose
    ends all lie in S.  N(S) is estimated as the product of the edges' value
    counts (a bridge takes even values only) times rho for each such vertex,
    rho being the share of end triples that pass a vertex's conditions.

    The order visits the vertices one by one and assigns the edges at each
    vertex that are still open, in increasing order of the factor each puts
    on N: its value count, times rho if it completes another vertex.  The
    vertex order with the least estimated sum over the prefixes is found by
    dynamic programming over vertex subsets, in exact integers.  It is chosen
    from the graph's structure, not from how its vertices and edges are
    numbered, so relabelling a graph does not change the cost of the search:
    each genus-3 class at k = 4 and 8 and each genus-4 class at k = 4 costs
    the same number of steps under every relabelling tried, where the greedy
    order varied up to 2.5-fold.

    The greedy order of _greedy_edge_order is taken instead for graphs with
    more than _ORDER_SEARCH_MAX_VERTICES vertices, and where the search over
    orders would cost more than the backtracker: the estimated count N(all
    edges) does not depend on the order, and when max_numerator + 1 times it
    is below the n * 2^(n-1) steps of the search over n vertices, the order
    is not worth searching for: at genus 4, for every class at k <= 2 and
    for some at k = 3.
    """
    n_vertices = graph.vertex_count
    if n_vertices > _ORDER_SEARCH_MAX_VERTICES:
        return _greedy_edge_order(graph)
    values = [max_numerator // 2 + 1 if e in bridge_set else max_numerator + 1 for e in range(len(graph.edges))]
    triples = (max_numerator + 1) ** 3
    passing = _passing_triples(k, max_numerator)
    # N(all edges), times triples^n_vertices
    found = math.prod(values) * passing**n_vertices
    if (max_numerator + 1) * found < (n_vertices << n_vertices - 1) * triples**n_vertices:
        return _greedy_edge_order(graph)
    masks = [sum(1 << e for e in set(ends)) for ends in inc]
    endpoints = [tuple(set(edge)) for edge in graph.edges]
    # the edges at each vertex, each with its other end (the vertex itself for a loop)
    around = [[(e, a + b - v) for e, (a, b) in enumerate(graph.edges) if v in (a, b)] for v in range(n_vertices)]
    full = (1 << n_vertices) - 1
    assigned = [0] * (full + 1)  # the edges at the vertices in t
    best = [0] * (full + 1)  # least estimated cost of assigning them
    size = [triples**n_vertices] + [0] * full  # their N, times triples^n_vertices
    step = [None] * (full + 1)  # (t before the last visit, the edges it assigned)
    # only connected vertex sets are visited: a vertex apart from them opens
    # all its edges and completes nothing
    neighbours = [sum(1 << u for u in {u for _, u in around[v]}) for v in range(n_vertices)]
    for t in range(full):
        if t and step[t] is None:
            continue
        done = assigned[t]
        for v in range(n_vertices):
            if t >> v & 1 or t and not neighbours[v] & t:
                continue
            # an edge completes its other end when it is that vertex's last open end
            new = sorted(
                (values[e] * (passing if masks[u] & ~done == 1 << e else triples), e)
                for e, u in around[v]
                if not done >> e & 1
            )
            cost, n, cur = best[t], size[t], done
            for _, e in new:
                cur |= 1 << e
                n *= values[e]
                for u in endpoints[e]:
                    if cur & masks[u] == masks[u]:
                        n = n * passing // triples
                cost += n
            later = t | 1 << v
            if step[later] is None or cost < best[later]:
                assigned[later], best[later], size[later] = cur, cost, n
                step[later] = (t, [e for _, e in new])
    order = []
    t = full
    while t:
        t, edges = step[t]
        order[:0] = edges
    return order


def _greedy_edge_order(graph: TrivalentGraph) -> list[int]:
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
    order = _edge_order(graph, inc, bridge_set, k, max_numerator)
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
