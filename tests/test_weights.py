import itertools
import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import _oracles
import bsq.weights as weights_module
from bsq.cli import verify_jw
from bsq.theta import bpu_matrix, bs_points, characteristics
from bsq.trigraph import DUMBBELL_GRAPH, THETA_GRAPH, TrivalentGraph, generate_trivalent
from bsq.ucurve import SupercyclePoint, trace_slice, zero_level_fiber
from bsq.verlinde import verlinde_dim
from bsq.weights import (
    ShapeMismatch,
    count_admissible,
    enumerate_admissible,
    is_admissible,
    polytope_contains,
)


def _shuffled(graph, rng):
    """The same graph with its vertices renumbered and its edges reordered."""
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) for a, b in graph.edges]
    rng.shuffle(edges)
    return TrivalentGraph(graph.vertex_count, tuple(edges))


# every genus-3 class, renumbered, and two genus-4 classes, renumbered
_GENUS3 = [_shuffled(graph, random.Random(index)) for index, graph in enumerate(generate_trivalent(3))]
_GENUS4 = [_shuffled(generate_trivalent(4)[index], random.Random(index)) for index in (3, 12)]


def test_theta_level1_weights_are_the_four_even_triples():
    got = enumerate_admissible(THETA_GRAPH, 1)
    assert got == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_dumbbell_level1_weights_leave_the_bridge_at_zero():
    # edge order: loop at 0, bridge, loop at 1
    got = enumerate_admissible(DUMBBELL_GRAPH, 1)
    assert got == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]


@pytest.mark.parametrize("k", range(1, 7))
def test_count_identity_genus2(k):
    dim = verlinde_dim(2, k).dim
    assert count_admissible(THETA_GRAPH, k) == dim
    assert count_admissible(DUMBBELL_GRAPH, k) == dim


@pytest.mark.parametrize("k", range(1, 4))
def test_count_identity_genus3_all_graphs(k):
    dim = verlinde_dim(3, k).dim
    for graph in generate_trivalent(3):
        assert count_admissible(graph, k) == dim, graph.edges


@pytest.mark.parametrize("graph", [THETA_GRAPH, DUMBBELL_GRAPH, *_GENUS3])
@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("open_range", [False, True])
def test_backtracker_matches_exhaustive_filter(graph, k, open_range):
    # the name predates the sweep; it is kept so that the test's ids stay stable
    max_numerator = k - 1 if open_range else None
    expected = _oracles.oracle_weights(
        graph.vertex_count, graph.edges, k, max_numerator=max_numerator
    )
    assert count_admissible(graph, k, max_numerator=max_numerator) == len(expected)
    assert enumerate_admissible(graph, k, max_numerator=max_numerator) == expected


def test_open_range_breaks_the_count_on_purpose():
    # with numerators capped at k-1 = 0 only the zero labeling survives
    assert count_admissible(THETA_GRAPH, 1, max_numerator=0) == 1
    assert verlinde_dim(2, 1).dim == 4


@pytest.mark.parametrize("k", range(1, 5))
def test_enumerate_and_count_agree(k):
    for graph in (THETA_GRAPH, DUMBBELL_GRAPH, *generate_trivalent(3), *_GENUS4):
        listed = enumerate_admissible(graph, k)
        assert len(listed) == count_admissible(graph, k)
        assert listed == sorted(set(listed))


def test_every_enumerated_weight_passes_the_checker():
    for graph in (THETA_GRAPH, DUMBBELL_GRAPH):
        for w in enumerate_admissible(graph, 3):
            report = is_admissible(graph, 3, w)
            assert report.admissible
            assert report.violations == ()


def test_dumbbell_bridge_numerators_are_always_even():
    for k in range(1, 6):
        for w in enumerate_admissible(DUMBBELL_GRAPH, k):
            assert w[1] % 2 == 0


def _sides(graph, cut):
    """The vertex sets of the two components left when edge cut is removed."""
    sides = []
    for start in graph.edges[cut]:
        side, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for idx, (a, b) in enumerate(graph.edges):
                if idx != cut and v in (a, b):
                    for w in {a, b} - side:
                        side.add(w)
                        stack.append(w)
        sides.append(side)
    return sides


def test_odd_bridge_numerator_trips_condition_1_on_both_sides():
    # bridge parity is no rule of its own: an odd bridge leaves each side an odd
    # number of odd-sum vertices, so condition 1 fails on both sides
    rng = random.Random(23)
    bridged = 0
    for g in (2, 3, 4):
        for graph in generate_trivalent(g):
            cuts = sorted(_oracles.oracle_bridges(graph.vertex_count, graph.edges))
            bridged += bool(cuts)
            for cut in cuts:
                sides = _sides(graph, cut)
                assert not sides[0] & sides[1], graph.edges
                for k in (1, 2, 3):
                    labellings = [[0] * len(graph.edges)] + [[rng.randrange(k + 1) for _ in graph.edges] for _ in range(10)]
                    for nums in labellings:
                        nums[cut] = rng.randrange(1, k + 1, 2)
                        report = is_admissible(graph, k, nums)
                        assert not report.admissible
                        odd = {int(v.site.split()[1]) for v in report.violations if v.condition == 1}
                        assert all(odd & side for side in sides), (graph.edges, cut, nums)
    # the dumbbell, 3 of the 5 classes of genus 3 and 12 of the 17 of genus 4
    assert bridged == 1 + 3 + 12


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_is_admissible_agrees_with_the_four_condition_oracle_on_every_labelling(g, k):
    # the report checks the vertex conditions alone; the oracle adds even bridges
    for graph in generate_trivalent(g):
        expected = set(_oracles.oracle_weights(graph.vertex_count, graph.edges, k))
        for nums in itertools.product(range(k + 1), repeat=len(graph.edges)):
            assert is_admissible(graph, k, nums).admissible == (nums in expected), (graph.edges, nums)


def test_odd_sum_and_level_cap_violations():
    report = is_admissible(THETA_GRAPH, 1, (1, 1, 1))
    assert not report.admissible
    conditions = {v.condition for v in report.violations}
    assert conditions == {1, 2}
    # both trinion vertices see the same three ends
    assert {v.site for v in report.violations} == {"vertex 0", "vertex 1"}


def test_triangle_violation():
    report = is_admissible(THETA_GRAPH, 2, (2, 0, 0))
    assert not report.admissible
    assert {v.condition for v in report.violations} == {3}


def test_is_admissible_accepts_weight_function_or_raw_tuple():
    # named when a weight could also be a wrapper object; kept so that its id stays
    assert is_admissible(THETA_GRAPH, 2, (1, 1, 2)).admissible
    assert is_admissible(THETA_GRAPH, 2, [1, 1, 2]).admissible


def test_is_admissible_rejects_what_weight_function_rejects():
    # named for the wrapper class that once did this validation; kept so that its id stays
    for graph, nums in ((THETA_GRAPH, (0.5, 0.5, 1.0)), (DUMBBELL_GRAPH, (1, 0.0, 1)), (THETA_GRAPH, (0, 1, -1))):
        with pytest.raises(ValueError, match="non-negative integers"):
            is_admissible(graph, 1, nums)
    for k in (0, 2.5, 2.0):
        with pytest.raises(ValueError, match="level must be an integer >= 1"):
            is_admissible(THETA_GRAPH, k, (1, 1, 2))
    for nums in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(ShapeMismatch):
            is_admissible(THETA_GRAPH, 2, nums)


def test_enumeration_argument_validation():
    with pytest.raises(ValueError):
        enumerate_admissible(THETA_GRAPH, 0)
    with pytest.raises(ValueError):
        enumerate_admissible(THETA_GRAPH, 2, max_numerator=-1)
    with pytest.raises(ValueError):
        count_admissible(THETA_GRAPH, 2.0)  # type: ignore[arg-type]


# isinstance(True, int) holds, so each of these once returned a result
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: enumerate_admissible(THETA_GRAPH, True), id="enumerate-level"),
        pytest.param(lambda: enumerate_admissible(THETA_GRAPH, 2, max_numerator=True), id="enumerate-max-numerator"),
        pytest.param(lambda: count_admissible(THETA_GRAPH, True), id="count-level"),
        pytest.param(lambda: count_admissible(THETA_GRAPH, 2, max_numerator=False), id="count-max-numerator"),
        pytest.param(lambda: is_admissible(THETA_GRAPH, True, (0, 0, 0)), id="is-admissible-level"),
        pytest.param(lambda: is_admissible(THETA_GRAPH, 2, (True, True, 0)), id="is-admissible-numerator"),
        pytest.param(lambda: verlinde_dim(True, 3), id="verlinde-genus"),
        pytest.param(lambda: verlinde_dim(2, True), id="verlinde-level"),
        pytest.param(lambda: verify_jw(2, True), id="verify-jw-max-level"),
        pytest.param(lambda: zero_level_fiber(True), id="ucurve-level"),
        pytest.param(lambda: SupercyclePoint(b=Fraction(1, 2), s=0j, u=0j, m=True), id="ucurve-branch"),
        pytest.param(lambda: trace_slice(True, 0.5 + 0.5j, (-2.0, 2.0), 1000, 1e-9), id="trace-slice-level"),
        pytest.param(lambda: characteristics(True), id="theta-characteristics-level"),
        pytest.param(lambda: bs_points(True), id="theta-points-level"),
        pytest.param(lambda: bpu_matrix(True), id="theta-basis-level"),
    ],
)
def test_a_bool_is_not_an_integer_argument(call):
    with pytest.raises(ValueError, match="integer"):
        call()


def test_admissible_labels_lie_in_the_polytope():
    # exact rational coordinates, so boundary weights stay inside
    for graph in (THETA_GRAPH, DUMBBELL_GRAPH):
        for w in enumerate_admissible(graph, 3):
            assert polytope_contains(graph, [Fraction(j, 3) for j in w])


def test_polytope_rejects_outside_points():
    # vertex sum above 2
    assert not polytope_contains(THETA_GRAPH, (0.9, 0.8, 0.7))
    # broken triangle inequality
    assert not polytope_contains(THETA_GRAPH, (0.9, 0.1, 0.1))
    # negative coordinates are caught by the triangle inequalities
    assert not polytope_contains(THETA_GRAPH, (-0.1, 0.5, 0.5))
    assert polytope_contains(THETA_GRAPH, (0.5, 0.5, 0.5))
    with pytest.raises(ShapeMismatch):
        polytope_contains(THETA_GRAPH, (0.5, 0.5))


def test_genus4_spot_check_against_dimension():
    # one graph is enough at genus 4; the full sweep lives in the
    # acceptance suite at lower genus
    graph = generate_trivalent(4)[0]
    assert count_admissible(graph, 2) == verlinde_dim(4, 2).dim


def _plan_shape(graph, k):
    """Per visit: how many edges it closes and opens (which fix how many it keeps
    open), its keys and its passing labellings."""
    return [
        (len(v.old), v.opens, len(v.passing), sum(map(len, v.passing.values())))
        for v in weights_module._plan(graph, k, k)
    ]


@pytest.mark.parametrize("g, k", [(3, 4), (3, 8), (4, 4)])
def test_search_cost_does_not_depend_on_the_labelling(g, k):
    # ties in the vertex order go by the canonical ordering, so a relabelling
    # changes neither the tables nor the shape of the sweep
    rng = random.Random(1000 * g + k)
    dim = verlinde_dim(g, k).dim
    for graph in generate_trivalent(g):
        assert count_admissible(graph, k) == dim
        shape = _plan_shape(graph, k)
        for _ in range(3):
            shuffled = _shuffled(graph, rng)
            assert count_admissible(shuffled, k) == dim, graph.edges
            assert _plan_shape(shuffled, k) == shape, graph.edges


@pytest.mark.parametrize("k", range(1, 7))
def test_plan_tables_match_the_exhaustive_vertex_filter(k):
    # every class up to genus 4, as generated and renumbered: loops, bridges
    # and parallel edges, with labels up to k and up to k - 1
    rng = random.Random(k)
    for g in (2, 3, 4):
        for graph in generate_trivalent(g):
            for relabelled in (graph, _shuffled(graph, rng)):
                order = weights_module._vertex_order(relabelled)
                for max_numerator in (k, k - 1):
                    plan = weights_module._plan(relabelled, k, max_numerator)
                    for v, visit in zip(order, plan):
                        expected = _oracles.oracle_vertex_table(
                            relabelled.vertex_count, relabelled.edges, k, max_numerator, v, visit.old, visit.new
                        )
                        got = {key: sorted(new) for key, new in visit.passing.items()}
                        assert got == expected, (relabelled.edges, v, max_numerator)


def _shared_plans(g, rng, step=1):
    """Every genus-g class, renumbered, with its vertex order and a plan on one
    store of tables that all of them share, as verify_jw builds them."""
    store, classes = {}, []
    for graph in generate_trivalent(g):
        relabelled = _shuffled(graph, rng)
        plan = weights_module._on(weights_module._skeleton(relabelled), store, step)
        classes.append((relabelled, weights_module._vertex_order(relabelled), plan))
    return store, classes


def _grow_to(store, k, open_range, counting=False):
    """Grow the lists, and the counting tables too when counting, to level k as
    verify_jw grows them: from level k - 1 with labels up to k, and afresh
    from 0 with labels below k, whose cap moves with the level."""
    if open_range:
        for passing, tally in store.values():
            passing.clear()
            tally.clear()
    lo, max_numerator = (0, k - 1) if open_range else (k - 1, k)
    weights_module._grow(store, lo, k, max_numerator)
    if counting:
        weights_module._grow(store, lo, k, max_numerator, counting=True)


@pytest.mark.parametrize("open_range", [False, True])
def test_grown_plan_tables_match_the_exhaustive_vertex_filter_at_every_level(open_range):
    # one skeleton per class on tables shared by shape across the classes of a
    # genus, grown level by level as verify_jw sweeps them: each level's
    # tables are, at every vertex of every class, that level's plan, with no
    # labelling twice
    rng = random.Random(100 + open_range)
    for g, max_k in ((2, 9), (3, 6), (4, 4)):
        store, classes = _shared_plans(g, rng)
        for k in range(1, max_k + 1):
            max_numerator = k - 1 if open_range else k
            _grow_to(store, k, open_range)
            for relabelled, order, plan in classes:
                for v, visit in zip(order, plan):
                    expected = _oracles.oracle_vertex_table(
                        relabelled.vertex_count, relabelled.edges, k, max_numerator, v, visit.old, visit.new
                    )
                    got = {key: sorted(new) for key, new in visit.passing.items()}
                    assert got == expected, (relabelled.edges, k, v)


def test_even_tables_match_the_exhaustive_vertex_filter_at_odd_levels():
    # tables at label step 2, grown from one odd level to the next as verify_jw
    # grows them: the vertex's labellings whose labels are all even, and their tallies
    def even(labels):
        return not any(j % 2 for j in labels)

    rng = random.Random(300)
    for g, max_k in ((2, 11), (3, 7), (4, 5)):
        store, classes = _shared_plans(g, rng, step=2)
        for k in range(1, max_k + 1, 2):
            weights_module._grow(store, max(k - 2, 0), k, k, step=2)
            weights_module._grow(store, max(k - 2, 0), k, k, counting=True, step=2)
            for relabelled, order, plan in classes:
                for v, visit in zip(order, plan):
                    table = _oracles.oracle_vertex_table(
                        relabelled.vertex_count, relabelled.edges, k, k, v, visit.old, visit.new
                    )
                    expected = {key: [new for new in rows if even(new)] for key, rows in table.items() if even(key)}
                    expected = {key: rows for key, rows in expected.items() if rows}
                    got = {key: sorted(new) for key, new in visit.passing.items()}
                    assert got == expected, (relabelled.edges, k, v)
                    for key, rows in expected.items():
                        opened = Counter(new[: visit.opens] for new in rows)
                        assert visit.tally[key] == (opened if visit.opens else len(rows))


def test_the_tensor_oracle_counts_what_the_exhaustive_filter_lists():
    # the contraction stands in for the filter where 7^9 labellings per class are too many
    for g, max_k in ((2, 6), (3, 3), (4, 1)):
        for graph in generate_trivalent(g):
            for k in range(1, max_k + 1):
                for max_numerator in (k, k - 1):
                    expected = _oracles.oracle_count(graph.vertex_count, graph.edges, k, max_numerator)
                    got = _oracles.oracle_tensor_count(graph.vertex_count, graph.edges, k, max_numerator)
                    assert got == expected, (graph.edges, k, max_numerator)


@pytest.mark.parametrize("g", [2, 3, 4])
@pytest.mark.parametrize("open_range", [False, True])
def test_counts_equal_the_oracle_on_every_class_up_to_level_6(g, open_range):
    rng = random.Random(10 * g + open_range)
    for graph in generate_trivalent(g):
        relabelled = _shuffled(graph, rng)
        for k in range(1, 7):
            max_numerator = k - 1 if open_range else k
            expected = _oracles.oracle_tensor_count(relabelled.vertex_count, relabelled.edges, k, max_numerator)
            assert count_admissible(relabelled, k, max_numerator) == expected, (relabelled.edges, k)


@pytest.mark.parametrize("open_range", [False, True])
def test_counting_tables_tally_the_lists_at_every_level(open_range):
    # for each key, the distinct labellings of the opened edges in its list, each
    # with the number of list entries it stands for; grown level by level, as
    # verify_jw grows them.  Only a loop's labels make a multiplicity above 1.
    # The lists are checked against the exhaustive filter, so that lists and
    # tallies wrong in the same way do not pass.
    rng = random.Random(200 + open_range)
    looped_above_one = set()
    for g, max_k in ((2, 8), (3, 6), (4, 4)):
        store, classes = _shared_plans(g, rng)
        for k in range(1, max_k + 1):
            max_numerator = k - 1 if open_range else k
            _grow_to(store, k, open_range, counting=True)
            for relabelled, order, plan in classes:
                looped = any(a == b for a, b in relabelled.edges)
                for v, visit in zip(order, plan):
                    expected = _oracles.oracle_vertex_table(
                        relabelled.vertex_count, relabelled.edges, k, max_numerator, v, visit.old, visit.new
                    )
                    assert {key: sorted(new) for key, new in visit.passing.items()} == expected, (relabelled.edges, k)
                    assert visit.tally.keys() == visit.passing.keys()
                    for key, new_labels in visit.passing.items():
                        row = visit.tally[key]
                        if visit.opens:
                            assert row == Counter(new[: visit.opens] for new in new_labels)
                            assert sum(row.values()) == len(new_labels)
                            most = max(row.values())
                        else:
                            assert row == len(new_labels)
                            most = row
                        assert most == 1 or looped, (relabelled.edges, k)
                        if most > 1:
                            looped_above_one.add(relabelled.edges)
    # the dumbbell of genus 2 and the looped classes of genus 3 and 4
    assert len(looped_above_one) == sum(
        any(a == b for a, b in graph.edges) for g in (2, 3, 4) for graph in generate_trivalent(g)
    )


def test_plan_builds_no_table_by_filtering(monkeypatch):
    # the tables come from the fusion range; the vertex check is for is_admissible's report
    def refuse(ends, k):
        raise AssertionError("a plan table was built by filtering")

    monkeypatch.setattr(weights_module, "_vertex_conditions", refuse)
    for g in (2, 3, 4):
        dim = verlinde_dim(g, 3).dim
        for graph in generate_trivalent(g):
            assert count_admissible(graph, 3) == dim
            assert len(enumerate_admissible(graph, 2)) == verlinde_dim(g, 2).dim


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_vertex_order_is_a_permutation_of_the_vertices(g):
    for graph in generate_trivalent(g):
        assert sorted(weights_module._vertex_order(graph)) == list(range(graph.vertex_count))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_edge_order_is_a_permutation_of_the_edges(k):
    # the plan labels each edge once, and reads only edges labelled before
    for g in (2, 3, 4):
        for graph in generate_trivalent(g):
            labelled = []
            for visit in weights_module._plan(graph, k, k):
                assert set(visit.old) <= set(labelled)
                labelled.extend(visit.new)
            assert sorted(labelled) == list(range(len(graph.edges)))


def test_genus4_counts_match_the_dimension_at_level_4():
    dim = verlinde_dim(4, 4).dim
    rng = random.Random(4)
    for graph in generate_trivalent(4):
        assert count_admissible(_shuffled(graph, rng), 4) == dim, graph.edges


def test_graphs_above_the_canonical_rank_cap_count_and_list():
    # the prism over a hexagon: 12 vertices, genus 7; its vertex order breaks
    # ties by the input numbering
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    edges += [(i, i + 6) for i in range(6)]
    graph = TrivalentGraph(12, tuple(edges))
    assert graph.vertex_count > weights_module._CANONICAL_RANK_MAX_VERTICES
    assert count_admissible(graph, 1) == verlinde_dim(7, 1).dim == 2**7
    assert len(enumerate_admissible(graph, 1)) == 2**7


# the census as a file, so that these tests share no code with the package
_CENSUS = json.loads((Path(__file__).parent / "data" / "trivalent_classes.json").read_text())


def _renumbered(entry, rng):
    """A renumbering of a census class (vertices, edge order and each edge's ends),
    and for each of its edges the index of the census edge it came from."""
    n, edges = entry["vertex_count"], entry["edges"]
    perm = list(range(n))
    rng.shuffle(perm)
    source = list(range(len(edges)))
    rng.shuffle(source)
    renumbered = []
    for i in source:
        a, b = perm[edges[i][0]], perm[edges[i][1]]
        renumbered.append((a, b) if rng.random() < 0.5 else (b, a))
    return TrivalentGraph(n, tuple(renumbered)), source


@pytest.mark.parametrize("g, k", [(3, 6), (4, 3)])
def test_a_renumbered_class_lists_the_same_weights_with_its_edge_columns_permuted(g, k):
    rng = random.Random(100 * g + k)
    for entry in _CENSUS[str(g)]:
        original = enumerate_admissible(TrivalentGraph(entry["vertex_count"], tuple(map(tuple, entry["edges"]))), k)
        assert original
        for _ in range(2):
            graph, source = _renumbered(entry, rng)
            permuted = sorted(tuple(w[i] for i in source) for w in original)
            assert enumerate_admissible(graph, k) == permuted, entry["text"]


def test_a_listing_holds_at_most_twice_its_own_size():
    # a listing sweep keeps about one level of partial weights beside the weights
    # it has built; one that keeps two levels alive reaches about 2.5 times its
    # result.  Labels up to 12 are small ints, which Python caches, so a weight's
    # bytes are those of its tuple.
    for entry in _CENSUS["3"]:
        graph = TrivalentGraph(entry["vertex_count"], tuple(map(tuple, entry["edges"])))
        enumerate_admissible(graph, 2)
        tracemalloc.start()
        try:
            found = enumerate_admissible(graph, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sys.getsizeof(found) + sum(map(sys.getsizeof, found))
        assert len(found) == 43953
        assert peak <= 2 * size, (entry["text"], peak / size)


# the parity route: at odd k, j -> k - j on an element C of the cycle space
# carries each parity class onto another, so dim(g, k) = 2^g times the even count
def _classes_renumbered(g, seed):
    rng = random.Random(seed)
    return [_shuffled(graph, rng) for graph in generate_trivalent(g)]


@pytest.mark.parametrize("g, k", [(2, 1), (2, 3), (2, 5), (2, 7), (3, 1), (3, 3), (3, 5), (3, 7), (4, 1), (4, 3)])
def test_the_simple_current_on_a_cycle_flips_its_parity_at_odd_levels(g, k):
    for graph in _classes_renumbered(g, 10 * g + k):
        n, edges = graph.vertex_count, graph.edges
        basis, space = _oracles.oracle_cycle_space(n, edges)
        assert len(basis) == g and len(space) == 2**g
        listed = enumerate_admissible(graph, k)
        sizes = Counter(frozenset(i for i, j in enumerate(w) if j % 2) for w in listed)
        assert set(sizes) == space, edges  # the odd edges form an element, and each is met
        assert set(sizes.values()) == {len(listed) >> g}, edges
        for cycle in space:
            images = []
            for w in listed:
                image = _oracles.oracle_simple_current(w, cycle, k)
                assert _oracles.oracle_admissible(n, edges, k, image), (edges, w, cycle)
                assert {i for i, (j, m) in enumerate(zip(w, image)) if (j - m) % 2} == cycle
                images.append(image)
            assert sorted(images) == listed, (edges, cycle)


@pytest.mark.parametrize("g, k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_the_simple_current_keeps_parity_at_even_levels_and_needs_a_cycle(g, k):
    for graph in _classes_renumbered(g, 20 * g + k):
        n, edges = graph.vertex_count, graph.edges
        space = _oracles.oracle_cycle_space(n, edges)[1]
        listed = enumerate_admissible(graph, k)
        for size in range(1, len(edges) + 1):
            for edge_set in map(frozenset, itertools.combinations(range(len(edges)), size)):
                images = [_oracles.oracle_simple_current(w, edge_set, k) for w in listed]
                if edge_set not in space:  # some vertex meets it once: a label k beside two of 0 breaks it
                    assert not all(_oracles.oracle_admissible(n, edges, k, image) for image in images)
                elif k % 2 == 0:
                    assert sorted(images) == listed
                    assert all((j - m) % 2 == 0 for w, image in zip(listed, images) for j, m in zip(w, image))


@pytest.mark.parametrize("g, max_k", [(2, 15), (3, 11), (4, 7)])
def test_odd_level_counts_are_2_to_the_g_times_the_even_fusion_trace(g, max_k):
    for k in range(1, max_k + 1, 2):
        even = _oracles.oracle_even_fusion_dimension(g, k)
        assert even << g == _oracles.oracle_fusion_dimension(g, k)
        for graph in _classes_renumbered(g, 30 * g + k):
            assert count_admissible(graph, k) == even << g, (graph.edges, k)
            assert count_admissible(graph, k, k + 3) == even << g, (graph.edges, k)


@pytest.mark.parametrize("g, max_k", [(2, 7), (3, 3), (4, 1)])
def test_odd_level_counts_equal_the_exhaustive_filter(g, max_k):
    for k in range(1, max_k + 1, 2):
        for graph in _classes_renumbered(g, 40 * g + k):
            assert count_admissible(graph, k) == _oracles.oracle_count(graph.vertex_count, graph.edges, k)


def _watching_sweeps(monkeypatch):
    """Replace _sweep by one that records, per call, whether every state it
    read (the labels of the open edges as each visit meets them) was even."""
    even_only, sweep = [], weights_module._sweep

    def watched(plan):
        states = []

        def reading(old_of):
            def read(labels):
                states.append(labels)
                return old_of(labels)
            return read

        count = sweep([visit._replace(old_of=reading(visit.old_of)) for visit in plan])
        even_only.append(not any(j % 2 for labels in states for j in labels))
        return count

    monkeypatch.setattr(weights_module, "_sweep", watched)
    return even_only


def test_odd_levels_sweep_the_even_labels_alone(monkeypatch):
    even_only = _watching_sweeps(monkeypatch)
    for graph in (THETA_GRAPH, DUMBBELL_GRAPH, *_GENUS3, *_GENUS4):
        for k in range(1, 8):
            assert count_admissible(graph, k) == verlinde_dim(graph.genus, k).dim
            assert even_only.pop() or k % 2 == 0, (graph.edges, k)
    # where a sweep takes every label, the watch sees odd ones: the theta
    # graph's first vertex opens all three edges
    count_admissible(THETA_GRAPH, 2)
    count_admissible(THETA_GRAPH, 3, 2)
    assert even_only == [False, False]
    even_only.clear()
    rows, ok, _ = verify_jw(3, 6)
    assert ok
    # level by level, each level's sweeps over the five classes
    levels = [even_only[5 * k - 5:5 * k] for k in range(1, 7)]
    assert [all(level) for level in levels] == [True, False] * 3


def test_the_open_range_keeps_the_full_sweep_and_its_mismatch(monkeypatch):
    even_only = _watching_sweeps(monkeypatch)
    rows, ok, _ = verify_jw(3, 5, open_range=True)
    assert not ok and not any(row["match"] for row in rows)
    # at k = 1 the labels are all 0; above it, every level reads odd ones
    assert [all(even_only[5 * k - 5:5 * k]) for k in range(1, 6)] == [True] + [False] * 4
    for row in rows:
        n, edges = 4, [tuple(e) for e in row["edges"]]
        expected = _oracles.oracle_tensor_count(n, edges, row["level"], row["level"] - 1)
        assert row["weight_count"] == expected


def test_verify_jw_grows_each_shape_table_once_per_level(monkeypatch):
    # one store for all the classes: a table per shape and label step, grown
    # once before each level's sweeps
    grown, grow = [], weights_module._grow

    def recorded(store, lo, k, max_numerator, counting=False, step=1):
        grown.append((lo, k, step, sorted(store)))
        grow(store, lo, k, max_numerator, counting, step)

    monkeypatch.setattr(weights_module, "_grow", recorded)
    verify_jw(4, 6)
    shapes = sorted({visit.shape for graph in generate_trivalent(4) for visit in weights_module._skeleton(graph)})
    assert shapes == [(0, 2, 1), (0, 3, 3), (1, 1, 0), (1, 2, 2), (2, 1, 1), (3, 0, 0)]
    keys = sorted((shape, step) for shape in shapes for step in (1, 2))
    assert grown == [(max(k - 2, 0), k, 1 + k % 2, keys) for k in range(1, 7)]
    # every visit of a shape, in any class, reads that shape's tables themselves
    store = {}
    for graph in generate_trivalent(4):
        for step in (1, 2):
            for visit in weights_module._on(weights_module._skeleton(graph), store, step):
                passing, tally = store[visit.shape, step]
                assert visit.passing is passing and visit.tally is tally
    assert len(store) == 12


def test_the_open_range_writes_its_tables_afresh_at_each_level(monkeypatch):
    # with labels below k the cap k - 1 moves with the level, so each level's
    # counting tables are cleared and written from level 0
    grown, grow = [], weights_module._grow

    def recorded(store, lo, k, max_numerator, counting=False, step=1):
        grown.append((lo, k, max_numerator, counting, step, any(tally for _, tally in store.values())))
        grow(store, lo, k, max_numerator, counting, step)

    monkeypatch.setattr(weights_module, "_grow", recorded)
    verify_jw(3, 5, open_range=True)
    assert grown == [(0, k, k - 1, True, 1, False) for k in range(1, 6)]
