"""The point-set oracle shares no code with the paths it checks: with every
kernel method, the lattice operations of `linalg` and the catalog's traces
made to raise, each oracle function still runs at q = 2, and agrees with
what the library found before."""

import sys

import oracle
from conftest import J_K_SWAP

from ternions import linalg
from ternions._pycore import Kernel
from ternions.geometry import (
    _incidence_counts,
    build_graph,
    delta_j,
    first_failed_condition,
    g0_generators,
    preserver_from_collineation,
    scan_lines,
    scan_solids,
    xi_map,
)
from ternions.gf import automorphisms
from ternions.linalg import SemilinearMap
from ternions.model import Catalog, scan_planes_for_x

LATTICE = ("meet", "join", "contains", "meet_dim", "point_vectors", "pencil", "complement_in")
CACHED = ("normaliser", "flat", "points", "flats_jklh", "_x_scan_through")


def test_oracle_calls_no_kernel_and_no_lattice_operation(cat2, monkeypatch):
    field = cat2.field
    maps = [f for fs in g0_generators(field).values() for f in fs]
    maps.append(SemilinearMap(field, 6, J_K_SWAP, automorphisms(field)[0]))
    graph = build_graph(cat2)
    n_x = len(cat2.g_x)
    k_traces = {}
    for m in cat2.g_x:
        k_traces.setdefault(cat2.traces[m][1], []).append(m)
    want = (
        scan_planes_for_x(cat2),
        [scan_lines(cat2), scan_solids(cat2)],
        _incidence_counts(cat2),
        graph.neighbours,
        [first_failed_condition(f, cat2) for f in maps],
        preserver_from_collineation(maps[0], graph),
        [graph.vindex[xi_map(m, cat2)] for m in cat2.g_x],
        delta_j(cat2.l_line),
        k_traces,
        [frozenset(range(n_x, graph.n)), *graph.cliques[0]],
        [graph.vertices[j] for nbrs in graph.neighbours[:n_x] for j in nbrs if j >= n_x],
        [[j in nbrs for j in range(graph.n)] for nbrs in graph.neighbours],
    )

    def refuse(*args):
        raise AssertionError("the oracle ran a path it checks")

    for name, value in list(vars(Kernel).items()):
        if callable(value) and not name.startswith("__"):
            monkeypatch.setattr(Kernel, name, refuse)
    modules = [m for key, m in sys.modules.items() if key.startswith("ternions")] + [oracle]
    for real in map(vars(linalg).get, LATTICE):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(Catalog, "traces", property(refuse))
    for name in CACHED:
        getattr(oracle, name).cache_clear()

    l_line = oracle.flats_jklh(field)[2]
    images = oracle.xi_images(cat2)
    assert want == (
        oracle.x_scan(cat2),
        [oracle.transversals(cat2, 2), oracle.transversals(cat2, 4)],
        oracle.incidence_counts(cat2),
        oracle.adjacency(cat2)[0],
        [oracle.first_failed(f, cat2) for f in maps],
        oracle.preserver(maps[0], cat2),
        images,
        oracle.subspace(field, oracle.delta_j(field, l_line)),
        oracle.k_trace_classes(cat2),
        [frozenset(map(graph.vindex.get, c)) for c in oracle.expected_cliques(cat2)],
        [oracle.companion_y(m, cat2) for m in cat2.g_x],
        [[oracle.adjacent(a, b) for b in cat2.planes] for a in cat2.planes],
    )
    assert oracle.first_mismatch(cat2) is None and oracle.xi_facts(cat2, images)[1]
    assert oracle.plane_failure(maps[-1], cat2) == "iii"
    assert [oracle.sweep(cat2, 2), oracle.sweep(cat2, 4)] == want[1]
