import gc
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import _oracles
from bsq.trigraph import (
    DUMBBELL_GRAPH,
    THETA_GRAPH,
    TrivalentGraph,
    _least_key,
    _matrix,
    bridges,
    canonical_key,
    generate_trivalent,
    graph_to_text,
    is_isomorphic,
    parse_graph_text,
)
from bsq.weights import count_admissible

# The graphs lists of `bsq graphs --genus 2/3/4` as the walk-then-canonicalise
# generator printed them: every class, its edge order, bridges and text.
GOLDEN = Path(__file__).parent / "data" / "trivalent_classes.json"


def relabel(graph, perm):
    edges = tuple((perm[a], perm[b]) for a, b in graph.edges)
    return TrivalentGraph(graph.vertex_count, edges)


def test_genus2_is_exactly_theta_and_dumbbell():
    # oracle: degree equations on 2 vertices force 2*l0 + e01 = 2*l1 + e01 = 3,
    # so (l0, l1, e01) is (0, 0, 3) or (1, 1, 1), nothing else
    found = generate_trivalent(2)
    assert len(found) == 2
    assert any(is_isomorphic(g, THETA_GRAPH) for g in found)
    assert any(is_isomorphic(g, DUMBBELL_GRAPH) for g in found)


def test_genus3_has_five_classes():
    # oracle: hand case analysis by loop count found exactly K4, the
    # 4-cycle with two doubled opposite edges, the one-loop doubled-pair,
    # the two-loop chain, and the three-loop tripod
    assert len(generate_trivalent(3)) == 5


@pytest.mark.parametrize("g", [2, 3, 4])
def test_counts_degrees_and_euler(g):
    graphs = generate_trivalent(g)
    assert graphs, f"no graphs generated at genus {g}"
    for graph in graphs:
        assert graph.vertex_count == 2 * g - 2
        assert len(graph.edges) == 3 * g - 3
        deg = [0] * graph.vertex_count
        for a, b in graph.edges:
            deg[a] += 1
            deg[b] += 1
        assert all(d == 3 for d in deg)
        assert sum(deg) == 6 * g - 6
        assert graph.genus == g


@pytest.mark.parametrize("g", [2, 3])
def test_classes_pairwise_nonisomorphic(g):
    graphs = generate_trivalent(g)
    for i, g1 in enumerate(graphs):
        for g2 in graphs[i + 1:]:
            assert not is_isomorphic(g1, g2), f"{g1.edges} ~ {g2.edges}"


@pytest.mark.parametrize("g", [2, 3, 4])
def test_classes_match_the_committed_census(g):
    golden = json.loads(GOLDEN.read_text())[str(g)]
    found = [
        {
            "bridges": sorted(bridges(graph)),
            "edges": [list(e) for e in graph.edges],
            "text": graph_to_text(graph),
            "vertex_count": graph.vertex_count,
        }
        for graph in generate_trivalent(g)
    ]
    assert found == golden


def test_generation_is_deterministic():
    first = generate_trivalent(3)
    second = generate_trivalent(3)
    assert [g.edges for g in first] == [g.edges for g in second]


def test_isomorphism_ignores_labels():
    assert is_isomorphic(THETA_GRAPH, relabel(THETA_GRAPH, [1, 0]))
    assert is_isomorphic(DUMBBELL_GRAPH, relabel(DUMBBELL_GRAPH, [1, 0]))
    for graph in generate_trivalent(3):
        shuffled = relabel(graph, [2, 0, 3, 1])
        assert is_isomorphic(graph, shuffled)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_genus4_classes_keep_their_key(seed):
    rng = random.Random(seed)
    graphs = generate_trivalent(4)
    for graph in graphs:
        perm = list(range(graph.vertex_count))
        rng.shuffle(perm)
        edges = list(relabel(graph, perm).edges)
        rng.shuffle(edges)
        shuffled = TrivalentGraph(graph.vertex_count, tuple(edges))
        assert canonical_key(shuffled) == canonical_key(graph)
        assert [is_isomorphic(shuffled, other) for other in graphs] == [
            other is graph for other in graphs
        ]


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_least_key_ordering_rebuilds_the_key(g):
    # the ordering _least_key returns with the key, applied to a relabelled
    # class's matrix, borders row by row into that same key
    rng = random.Random(g)
    for graph in generate_trivalent(g):
        perm = list(range(graph.vertex_count))
        rng.shuffle(perm)
        mat = _matrix(relabel(graph, perm))
        key, ordering = _least_key(mat, graph.vertex_count)
        assert sorted(ordering) == list(range(graph.vertex_count))
        rebuilt = ()
        for r, v in enumerate(ordering):
            rebuilt += (mat[v][v], *[mat[v][u] for u in ordering[:r]])
        assert rebuilt == key == canonical_key(graph)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_least_key_and_ordering_equal_the_brute_force_over_every_permutation(g):
    # the key, and the first ordering in lexicographic order that reaches it;
    # a search bounded by a key finds a lesser one exactly when there is one
    rng = random.Random(50 + g)
    for graph in generate_trivalent(g):
        n = graph.vertex_count
        for relabelled in (graph, *(relabel(graph, rng.sample(range(n), n)) for _ in range(2))):
            mat = _matrix(relabelled)
            least, first = _oracles.oracle_least_key(n, [row[:] for row in mat])
            assert _least_key(mat, n) == (least, first), relabelled.edges
            assert _least_key(mat, n, bound=least) == (None, None)
            as_given = tuple(x for r in range(n) for x in [mat[r][r]] + mat[r][:r])
            assert (_least_key(mat, n, bound=as_given)[0] is None) == (as_given == least)


@pytest.mark.parametrize(
    "vertex_count, edges",
    [
        pytest.param(2, ((0, True), (0, 1), (0, 1)), id="bool-end"),
        pytest.param(2.0, ((0, 1), (0, 1), (0, 1)), id="float-vertex-count"),
        pytest.param(4.0, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), id="float-vertex-count-4"),
        pytest.param(2, ((0, 1.0), (0, 1), (0, 1)), id="float-end"),
    ],
)
def test_a_graph_takes_only_exact_integers(vertex_count, edges):
    # a bool end was accepted and written as "e 0 True", which the parser
    # refuses; a float raised TypeError
    with pytest.raises(ValueError, match="integer"):
        TrivalentGraph(vertex_count, edges)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_classes_come_in_increasing_canonical_key_order(g):
    keys = [canonical_key(graph) for graph in generate_trivalent(g)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_theta_is_not_dumbbell():
    assert not is_isomorphic(THETA_GRAPH, DUMBBELL_GRAPH)


def test_bridge_examples():
    assert bridges(THETA_GRAPH) == frozenset()
    assert bridges(DUMBBELL_GRAPH) == frozenset({1})


def test_loops_and_parallel_edges_are_never_bridges():
    for g in (2, 3):
        for graph in generate_trivalent(g):
            for idx in bridges(graph):
                a, b = graph.edges[idx]
                assert a != b, f"loop {idx} flagged as bridge in {graph.edges}"
                assert graph.multiplicity(a, b) == 1


def test_bridges_commute_with_relabeling():
    perm = [3, 1, 0, 2]
    for graph in generate_trivalent(3):
        shuffled = relabel(graph, perm)
        direct = sorted(shuffled.edges[i] for i in bridges(shuffled))
        mapped = sorted(
            tuple(sorted((perm[a], perm[b])))
            for a, b in (graph.edges[i] for i in bridges(graph))
        )
        assert direct == mapped


@pytest.mark.parametrize("g", [2, 3])
def test_text_format_round_trips(g):
    for graph in generate_trivalent(g):
        assert parse_graph_text(graph_to_text(graph)) == graph


def test_text_format_allows_comments_and_blanks():
    text = "# a dumbbell\nv 2\n\ne 0 0\ne 0 1  # the bridge\ne 1 1\n"
    assert parse_graph_text(text) == DUMBBELL_GRAPH


@pytest.mark.parametrize(
    "text",
    [
        "e 0 1\nv 2\n",          # edge before the vertex count
        "v 2\nx 0 1\n",           # unknown record
        "v 2\nv 2\ne 0 1\n",      # duplicate count
        "",                        # empty
        # integers are ASCII decimal digits only; int() would read the first four as a dumbbell
        "v 2\ne 0_0 1\ne 0 0\ne 1 1\n",        # an underscore
        "v 2\ne 0 0\ne 0 \u0661\ne 1 1\n",     # ARABIC-INDIC DIGIT ONE
        "v \uff12\ne 0 0\ne 0 1\ne 1 1\n",     # FULLWIDTH DIGIT TWO
        "v +2\ne 0 0\ne 0 1\ne 1 1\n",         # a sign
        "v 2\ne 0 0\ne 0 1_0\ne 1 1\n",        # read as 10, out of range
        "v 2\ne 0 0\ne 0 -1\ne 1 1\n",
        "v 2\ne 0 0\ne 0 0x1\ne 1 1\n",
        "v 2\ne 0 0\ne 0 1\u00b2\ne 1 1\n",   # a superscript two passes str.isdigit, not int()
    ],
)
def test_text_format_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_graph_text(text)


def test_import_leaves_networkx_unloaded():
    # networkx is a test oracle only, never a runtime dependency
    code = "import sys, bsq; sys.exit('networkx' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_rejects_wrong_degrees():
    with pytest.raises(ValueError):
        TrivalentGraph(2, ((0, 1), (0, 1)))


def test_rejects_disconnected():
    # two dumbbell halves: every vertex trivalent but two components
    with pytest.raises(ValueError):
        TrivalentGraph(4, ((0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3)))


def test_edge_endpoints_are_normalized():
    graph = TrivalentGraph(2, ((1, 0), (1, 0), (0, 1)))
    assert graph.edges == ((0, 1), (0, 1), (0, 1))


def test_searches_leave_no_reference_cycles():
    # the recursive searches are closures that refer to themselves; they are
    # released when the search ends, so nothing waits for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        classes = generate_trivalent(4)
        assert gc.collect() == 0
        canonical_key(classes[5])
        assert gc.collect() == 0
        count_admissible(classes[5], 4)
        assert gc.collect() == 0
    finally:
        gc.enable()
