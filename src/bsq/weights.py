"""Admissible integer weights on trivalent graphs, level by level.

An edge labeling w_e = j_e/k (integer numerators, shared denominator k) is
admissible when at every vertex the three incident edge ends (a loop
contributes its label twice) satisfy, with exact integer arithmetic:

  1. j_l + j_m + j_n is even,
  2. j_l + j_m + j_n <= 2k,
  3. every end is at most the sum of the other two (triangle inequalities).

Every bridge then has an even numerator: summed over the vertices on one side
of a bridge, the ends give twice the side's inner labels plus the bridge's,
and condition 1 makes that sum even.  So a bridge needs no rule of its own.

A weight is passed and returned as its numerators alone, one int per edge in
the graph's edge order; its labels are Fraction(j, k).  Labels run over
{0, 1/k, ..., k/k}; the count of admissible labelings equals the Verlinde
dimension, which is what ties this module to verlinde.py.
Conditions 1-3 are the su(2)_k fusion rule N_abc in {0, 1}: given ends a and
b, the third end runs from |a - b| to min(a + b, 2k - a - b) in steps of 2.
Counting and listing share one plan: the vertices in an order taken from the
graph's structure, each with the labellings of its ends that pass it, written
from that range, and one sweep over the vertices.  A listing keeps the tables
as lists, from the labels of a vertex's ends labelled before to those of its
new edges, and the partial weights that end in each labelling of the open
edges, extending each group by a whole list at once.  A count keeps how many
end in it, and the tables as counting tables: for each labelling of a
vertex's ends labelled before, the distinct labellings of the edges it opens,
each with its multiplicity, the number of labels its loops can take along
with them.  A state then moves to each opened labelling once, its count times
the multiplicity; at a vertex that opens nothing, a key has one multiplicity,
so a state costs one lookup and one add there.
A plan is split in two.  Its skeleton, the vertex order with each vertex's
edge bookkeeping and the getters that take its keys and kept labels from a
state, does not depend on the level.  Its tables grow with the level: with
labels up to the level, a labelling enters its vertex's table at the least
level that admits it, so a sweep over levels 1..K builds one skeleton and adds
each level's labellings before that level's count, at about the cost of one
level-K plan.  A single count or listing grows its tables to k in one step.
A vertex's table depends on its shape alone, not on the vertex: how many of
its ends were labelled before, how many edges it labels and how many of those
it opens.  There are six shapes, three ends with 0..3 labelled before and a
loop over an end labelled before or not, so the tables live in a store keyed
by shape and label step, which every visit of that shape reads, in one plan
or in the plans of every class of a genus.

Odd levels.  At odd k with labels up to k, the count is 2^g times the number
of labellings whose labels are all even.  Proof: at each vertex, condition 1
leaves 0 or 2 odd ends, so the odd edges of an admissible labelling form an
element of the graph's Z/2 cycle space, which has 2^g elements; a loop is a
cycle by itself.  Map j -> k - j on the edges of one element C.  At a vertex C
takes 0 or 2 ends, and N_abc = N_{k-a,k-b,c} (the sum becomes 2k - a - b + c,
of the same parity and at most 2k exactly when c <= a + b, and the triangle
inequalities trade places with the level cap), so the map keeps conditions
1-3; it is its own inverse.  At odd k it flips the parity of exactly C's
edges, so it carries the labellings whose odd edges are D onto those whose odd
edges are D + C, and the 2^g parity classes have one size, that of the all-even
class.  (This is the simple current j -> k - j of su(2)_k, compare Blanchet,
Habegger, Masbaum and Vogel, Topology 34, 1995.)  The all-even class is
counted on tables written in steps of 2.  With labels capped below k, 0 maps to
k outside the range, and the count takes every label, as a listing always does.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, itemgetter
from typing import Callable, NamedTuple, Sequence

from .trigraph import TrivalentGraph, _least_key, _matrix


class ShapeMismatch(ValueError):
    """Weight or point data does not line up with the graph's edge list."""


class Violation(NamedTuple):
    site: str       # "vertex <i>"
    condition: int  # 1 parity, 2 level cap, 3 triangle; an odd bridge breaks 1 on each side
    detail: str


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
    return [cond for cond, broken in ((1, s % 2), (2, s > 2 * k), (3, 2 * max(ends) > s)) if broken]


def is_admissible(graph: TrivalentGraph, k: int, numerators: Sequence[int]) -> AdmissibilityReport:
    """Check conditions 1-3 at every vertex on one numerator per edge; the report lists every violation found."""
    _check_enum_args(k, None)
    nums = tuple(numerators)
    if len(nums) != len(graph.edges):
        raise ShapeMismatch(f"{len(nums)} numerators for {len(graph.edges)} edges")
    if any(type(j) is not int or j < 0 for j in nums):
        raise ValueError("numerators must be non-negative integers")

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
    return AdmissibilityReport(not violations, tuple(violations))


# The search for the canonical ordering takes at most 1 ms on every class up to
# genus 5 and 5 ms on the Petersen graph (genus 6, 10 vertices), on one core of
# an Intel Xeon under Python 3.11.  Above this many vertices the vertex order
# breaks its ties by the input numbering instead.
_CANONICAL_RANK_MAX_VERTICES = 10


class _Visit(NamedTuple):
    """One vertex of a plan, and the tables of the labels that pass it."""

    old: tuple[int, ...]  # its ends labelled before, each open until now
    old_of: Callable  # the open edges' labels -> the tuple of those of old
    kept_of: Callable  # the open edges' labels -> the tuple of those that stay open
    new: tuple[int, ...]  # its edges labelled here: those it opens, then its loops
    opens: int
    # the tables of its shape in a store: old labels -> new labels, grown by _grow, read by a listing
    passing: dict[tuple[int, ...], list[tuple[int, ...]]]
    # old labels -> {opened labels: multiplicity}, or -> multiplicity where the
    # vertex opens nothing; grown by _grow for a count
    tally: dict[tuple[int, ...], dict[tuple[int, ...], int] | int]

    @property
    def shape(self) -> tuple[int, int, int]:
        """Its ends labelled before, its new edges and those it opens: its tables
        depend on these and the level alone."""
        return len(self.old), len(self.new), self.opens


# (shape, label step) -> the passing and counting tables of that shape
_Store = dict[tuple[tuple[int, int, int], int], tuple[dict, dict]]


def _vertex_order(graph: TrivalentGraph) -> list[int]:
    """The order in which a plan visits the vertices.

    Each step takes the vertex, next to those already taken, that opens the
    fewest edges less the ones it closes, and breaks ties by the vertex's
    rank in the ordering that reaches the canonical key.  Any two such
    orderings differ by an automorphism, so the order, and with it the cost
    of a count or listing, depends on the graph's class only, not on its numbering.
    """
    n = graph.vertex_count
    rank = list(range(n))
    if n <= _CANONICAL_RANK_MAX_VERTICES:
        for r, v in enumerate(_least_key(_matrix(graph), n)[1]):
            rank[v] = r
    taken, order = set(), []
    while len(order) < n:
        def growth(v):
            ends = [b if a == v else a for a, b in graph.edges if v in (a, b)]
            return sum(1 if u not in taken else -1 for u in ends if u != v), rank[v]

        nearby = {u for a, b in graph.edges for u in (a, b) if {a, b} & taken} - taken
        v = min(nearby or range(n), key=growth)
        taken.add(v)
        order.append(v)
    return order


def _projection(places: Sequence[int]) -> Callable:
    """An itemgetter from a tuple to the tuple of its items at places.  An
    itemgetter of one place returns the bare item and one of none fails, so
    fewer than two places are taken as a slice."""
    if len(places) > 1:
        return itemgetter(*places)
    return itemgetter(slice(places[0], places[0] + 1) if places else slice(0))


def _skeleton(graph: TrivalentGraph) -> list[_Visit]:
    """One visit per vertex, in _vertex_order, each with empty tables.

    This is the part of a plan that does not depend on the level, so a sweep
    over the levels builds it once, takes its tables from a store with _on and
    grows them with _grow.
    """
    inc = _incidence(graph)
    labelled, open_edges, plan = set(), [], []
    for v in _vertex_order(graph):
        old_at = [i for i, e in enumerate(open_edges) if v in graph.edges[e]]
        kept_at = [i for i, e in enumerate(open_edges) if v not in graph.edges[e]]
        old = tuple(open_edges[i] for i in old_at)
        fresh = sorted(set(inc[v]) - labelled)
        opened = [e for e in fresh if graph.edges[e] != (v, v)]
        new = tuple(opened + [e for e in fresh if graph.edges[e] == (v, v)])
        plan.append(_Visit(old, _projection(old_at), _projection(kept_at), new, len(opened), {}, {}))
        labelled.update(new)
        open_edges = [open_edges[i] for i in kept_at] + opened
    return plan


def _on(skeleton: list[_Visit], store: _Store, step: int = 1) -> list[_Visit]:
    """The plan whose visits read the tables of their shape and label step in
    store, which gains an empty pair of tables for each shape it lacks."""
    plan = []
    for visit in skeleton:
        passing, tally = store.setdefault((visit.shape, step), ({}, {}))
        plan.append(visit._replace(passing=passing, tally=tally))
    return plan


def _grow(store: _Store, lo: int, k: int, max_numerator: int, counting: bool = False, step: int = 1) -> None:
    """Add to each table of the label step in store the labellings that enter
    it at a level in lo+1..k: to the counting tables when counting, else to
    the lists.  Each table is grown once, however many visits read it.

    Precondition: lo = 0, or labels run up to the level (max_numerator = k).
    A labelling of a vertex's ends then enters at half the ends' sum h, the
    least level that admits it, so growing an empty plan (lo = 0) to k writes
    the level-k plan, and growing the level-lo plan to k adds the shells of h
    in lo+1..k.  Labels capped below the level would move the cap with it and
    let labellings of h <= lo enter: such tables are written afresh from lo = 0.
    A shell is written from the fusion rule, not by filtering: the first end a
    runs over its values, the second b over the run that leaves the third,
    2h - a - b, at most h (triangle) and max_numerator.  A bridge's label is
    left to the other vertices' conditions, which make it even in every full
    weight.  At step 2 the tables hold the labellings whose labels are all
    even: the first end runs in steps of 2, the second too from an even start,
    and a loop's label is even (the end under it, 2h - 2l, always is).
    """
    shells = range(lo + 1 if lo else 0, k + 1)  # h, half the sum of the ends
    for ((n_old, n_new, opens), table_step), (passing, tally) in store.items():
        if table_step != step:
            continue
        entered = {} if counting else passing  # old labels -> the new labels that enter
        for h in shells:
            if n_old + n_new == 2:  # ends (x, l, l), l the loop: x = 2h - 2l is even, and l >= x/2
                x0 = max(0, 2 * (h - max_numerator))
                for x in range(x0 + 2 * ((h - x0 // 2) % step), min(h, max_numerator) + 1, 2 * step):
                    ends = (x, h - x // 2)
                    entered.setdefault(ends[:n_old], []).append(ends[n_old:])
                continue
            for a in range(0, min(h, max_numerator) + 1, step):
                rest = 2 * h - a  # b + c
                lowest = max(h - a, rest - max_numerator)
                for b in range(lowest + lowest % step, min(h, max_numerator) + 1, step):
                    ends = (a, b, rest - b)
                    entered.setdefault(ends[:n_old], []).append(ends[n_old:])
        if counting:
            _tally(tally, opens, entered)


def _tally(tally: dict, opens: int, entered: dict[tuple[int, ...], list[tuple[int, ...]]]) -> None:
    """Add the new labels that entered a table to its counting table:
    one more way to each labelling of old and of the edges it opens."""
    for key, new_labels in entered.items():
        if not opens:
            tally[key] = tally.get(key, 0) + len(new_labels)
            continue
        row = tally.setdefault(key, {})
        for new in new_labels:
            opened = new[:opens]
            row[opened] = row.get(opened, 0) + 1


def _plan(graph: TrivalentGraph, k: int, max_numerator: int) -> list[_Visit]:
    """The level-k plan of a listing: a table per vertex shape from the labels
    of its ends labelled before to the list of every labelling of its new
    edges that passes conditions 1-3 there."""
    store = {}
    plan = _on(_skeleton(graph), store)
    _grow(store, 0, k, max_numerator)
    return plan


def _check_enum_args(k, max_numerator):
    """max_numerator, k when None, once it and the level k are checked."""
    if type(k) is not int or k < 1:
        raise ValueError(f"level must be an integer >= 1, got {k!r}")
    if max_numerator is None:
        max_numerator = k
    if type(max_numerator) is not int or max_numerator < 0:
        raise ValueError(f"max_numerator must be an integer >= 0, got {max_numerator!r}")
    return max_numerator


def enumerate_admissible(graph: TrivalentGraph, k: int, max_numerator: int | None = None) -> list[tuple[int, ...]]:
    """All admissible weights, as tuples of numerators in edge order, sorted lexicographically.

    max_numerator defaults to k (labels up to k/k = 1); passing k-1 restricts
    to the open range {0, ..., (k-1)/k}, which is the documented way to break
    the count identity on purpose.  The sweep of _sweep, keeping the partial
    weights that end in each labelling of the open edges, not their count.
    """
    plan = _plan(graph, k, _check_enum_args(k, max_numerator))
    # a partial weight holds the visits' new labels in plan order, until the last visit
    labelled = [e for visit in plan for e in visit.new]
    in_edge_order = _projection(sorted(range(len(labelled)), key=labelled.__getitem__))
    partials = {(): [()]}
    for visit in plan:
        swept, old_of, kept_of, passing = defaultdict(list), visit.old_of, visit.kept_of, visit.passing
        opens, finish = visit.opens, in_edge_order if visit is plan[-1] else None
        while partials:  # a group is released once extended, so about one level of partial weights is held
            labels, group = partials.popitem()
            new_labels = passing.get(old_of(labels))
            if new_labels:
                kept = kept_of(labels)
                for new in new_labels:
                    grown = map(add, group, repeat(new))
                    swept[kept + new[:opens]] += map(finish, grown) if finish else grown
        partials = swept
    found = partials.pop((), [])
    found.sort()
    return found


def count_admissible(graph: TrivalentGraph, k: int, max_numerator: int | None = None) -> int:
    """Number of admissible weights, counted without materializing them: the
    one count of _level_counts at level k.  No label above k passes
    conditions 2 and 3 together, so a cap above k counts as k."""
    gap = max(k - _check_enum_args(k, max_numerator), 0)
    return _level_counts([graph], [k], gap)[0][0]


def _level_counts(graphs: Sequence[TrivalentGraph], levels: Sequence[int], gap: int) -> list[list[int]]:
    """count_admissible(graph, k, k - gap) for each k of levels, in increasing
    order, one list per graph, from one skeleton per graph whose counting
    tables come from one store that every graph shares.  Level by level, the
    tables that level reads grow once, then every graph's plan is swept.  With
    labels up to k (gap 0), odd levels count the all-even labellings, on the
    even tables grown from the previous odd level, times 2^g, and even levels
    take every label, on the full tables grown from the previous even level;
    with labels below k, every level takes every label, on tables written
    afresh at each level, since the cap k - gap moves with it."""
    steps = [1 if gap or k % 2 == 0 else 2 for k in levels]
    skeletons = [_skeleton(graph) for graph in graphs]
    store, counts = {}, [[] for _ in graphs]
    # every plan the levels read takes its tables from the store before the first grow fills them
    plans = {step: [_on(skeleton, store, step) for skeleton in skeletons] for step in sorted(set(steps))}
    grown = dict.fromkeys(plans, 0)  # the level that each step's tables have reached
    for k, step in zip(levels, steps):
        if gap:
            for _, tally in store.values():
                tally.clear()
            grown[step] = 0
        _grow(store, grown[step], k, k - gap, counting=True, step=step)
        grown[step] = k
        for graph, plan, row in zip(graphs, plans[step], counts):
            row.append(_sweep(plan) << (graph.genus if step == 2 else 0))
    return counts


def _sweep(plan: list[_Visit]) -> int:
    """The count of a plan: a sweep over its vertices that keeps, for each
    labelling of the edges open so far, how many partial weights end in it."""
    counts = {(): 1}
    for visit in plan:
        swept, old_of, kept_of, tally = {}, visit.old_of, visit.kept_of, visit.tally
        if visit.opens:
            for labels, n in counts.items():
                row = tally.get(old_of(labels))
                if row:
                    kept = kept_of(labels)
                    for opened, mult in row.items():
                        state = kept + opened
                        swept[state] = swept.get(state, 0) + n * mult
        else:  # one multiplicity per key
            for labels, n in counts.items():
                mult = tally.get(old_of(labels))
                if mult:
                    state = kept_of(labels)
                    swept[state] = swept.get(state, 0) + n * mult
        counts = swept
    return sum(counts.values())


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
        if s > 2 or 2 * max(ends) > s:
            return False
    return True
