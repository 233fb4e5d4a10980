"""Cross-check of the graph algorithms against networkx at q = 2 and 3:
maximal cliques, and the BFS distances and geodesic counts from every
vertex."""

import pytest

from ternions.geometry import geodesics_from, maximal_cliques

nx = pytest.importorskip("networkx")


def _to_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from((i, j) for i in range(graph.n) for j in graph.neighbours[i] if i < j)
    return g


@pytest.mark.parametrize("which", [2, 3])
def test_maximal_cliques_match_networkx(which, graph2, graph3):
    graph = {2: graph2, 3: graph3}[which]
    want = {frozenset(c) for c in nx.find_cliques(_to_networkx(graph))}
    got = maximal_cliques(graph)
    assert len(got) == len(want)
    assert set(got) == want


@pytest.mark.parametrize("which", [2, 3])
def test_distances_match_networkx(which, graph2, graph3):
    graph = {2: graph2, 3: graph3}[which]
    g = _to_networkx(graph)
    for start in range(graph.n):
        want = nx.single_source_shortest_path_length(g, start)
        assert geodesics_from(graph, start)[0] == [want.get(v, -1) for v in range(graph.n)]


def test_geodesic_counts_match_networkx(graph2, graph3):
    for graph in (graph2, graph3):
        g = _to_networkx(graph)
        for i in range(graph.n):
            dist, paths = geodesics_from(graph, i)
            for j in range(graph.n):
                got = list(nx.all_shortest_paths(g, i, j))
                assert (dist[j], paths[j]) == (len(got[0]) - 1, len(got))
