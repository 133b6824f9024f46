"""networkx as an outside oracle for the trivalent graph census.

networkx shares no code with bsq.trigraph: the graphs are rebuilt from raw
edge lists, loop counts and edge multiplicities become node and edge
attributes, and isomorphism and automorphism counts come from networkx's
VF2 multigraph matcher.
"""

from collections import Counter
from functools import lru_cache
from math import factorial

import pytest

from bsq.trigraph import generate_trivalent

nx = pytest.importorskip("networkx")
iso = nx.algorithms.isomorphism

NODE_MATCH = iso.categorical_node_match("loops", None)
EDGE_MATCH = iso.categorical_multiedge_match("mult", None)

# Connected trivalent multigraphs with loops (OEIS A005967), and the number
# of labelled adjacency matrices over all of them: 3,550 at genus 4 counted
# by orbits, 983,640 at genus 5 counted by a walk over every labelled matrix.
CLASSES = {4: 17, 5: 71}
LABELLED = {4: 3_550, 5: 983_640}


@lru_cache(maxsize=None)
def census(g):
    return tuple(generate_trivalent(g))


def to_networkx(graph):
    pairs = Counter(graph.edges)
    out = nx.MultiGraph()
    for v in range(graph.vertex_count):
        out.add_node(v, loops=pairs[(v, v)])
    for (a, b), mult in pairs.items():
        for _ in range(mult):
            out.add_edge(a, b, mult=mult)
    return out


def automorphisms(graph):
    g = to_networkx(graph)
    matcher = iso.MultiGraphMatcher(g, g, node_match=NODE_MATCH, edge_match=EDGE_MATCH)
    return sum(1 for _ in matcher.isomorphisms_iter())


@pytest.mark.parametrize("g", sorted(CLASSES))
def test_class_count_and_shape(g):
    graphs = census(g)
    assert len(graphs) == CLASSES[g]
    for graph in graphs:
        nxg = to_networkx(graph)
        assert nx.is_connected(nxg)
        assert all(d == 3 for _, d in nxg.degree())


@pytest.mark.parametrize("g", sorted(CLASSES))
def test_classes_pairwise_nonisomorphic_under_networkx(g):
    graphs = [to_networkx(graph) for graph in census(g)]
    for i, g1 in enumerate(graphs):
        for j in range(i + 1, len(graphs)):
            assert not nx.is_isomorphic(
                g1, graphs[j], node_match=NODE_MATCH, edge_match=EDGE_MATCH
            ), f"classes {i} and {j} are isomorphic"


@pytest.mark.parametrize("g", sorted(LABELLED))
def test_mass_formula_counts_every_labelled_matrix(g):
    # each class G stands for n!/|Aut G| labelled matrices, so the classes
    # cover all labelled matrices exactly when the masses add up
    n = 2 * g - 2
    assert sum(factorial(n) // automorphisms(graph) for graph in census(g)) == LABELLED[g]
