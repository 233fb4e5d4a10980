"""Cross-check of the graph algorithms against networkx at q = 2 and 3:
maximal cliques, BFS distances from every vertex and, at q = 2, the
geodesic counts of the `adj:distance` reference."""

import pytest
from conftest import count_geodesics

from ternions.geometry import distances_from, maximal_cliques

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
        assert distances_from(graph, start) == [want.get(v, -1) for v in range(graph.n)]


def test_geodesic_counts_match_networkx(graph2):
    g = _to_networkx(graph2)
    for i in range(graph2.n):
        for j in range(i + 1, graph2.n):
            paths = list(nx.all_shortest_paths(g, i, j))
            assert count_geodesics(graph2, i, j) == (len(paths[0]) - 1, len(paths))
