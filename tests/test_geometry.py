import random
from itertools import combinations, product

import pytest
import oracle
from conftest import (
    DELTA_J,
    FIELD_ORDERS,
    J_K_SWAP,
    delta_j_by_matrix,
    edge_count,
    edges_by_neighbours,
    every_field,
    geodesics_by_neighbours,
    matrix_identity,
    polar_by_matrix,
    preserves_by_neighbours,
    random_nonblock_invertible,
    random_recipe,
    recipe_permutation,
    regrouped,
    replace_fields,
    verify_decomposition_sampled,
    with_orbit_lists,
)
from oracle import adjacent, companion_y, expected_cliques, k_trace_classes

import ternions.geometry as geometry
from ternions._pycore import Kernel
from ternions.gf import automorphisms, field_of_order
from ternions.linalg import (
    BudgetError,
    SemilinearMap,
    Subspace,
    contains,
    enumerate_subspaces,
    full_space,
    join,
    meet,
    meet_dim,
    point_vectors,
    projective_points,
    projective_vectors,
)
from ternions.geometry import (
    build_graph,
    decompose_semilinear,
    delta_j,
    expected_incidence_row,
    first_failed_condition,
    g0_generators,
    geodesics_from,
    graph_edges,
    graph_to_dot,
    graph_to_json,
    incidence_table,
    induced_collineation,
    is_recipe,
    j_form,
    maximal_cliques,
    no_duality_certificate,
    preserver_from_collineation,
    scan_lines,
    scan_solids,
    verify_decomposition,
    verify_preserver,
    recipe_generators,
    xi_map,
    xi_report,
    _fixes_j,
    _homothety_rows,
    _incidence_counts,
)
from ternions.model import (
    TYPE_ORDER,
    SubmoduleType,
    build_catalog,
    cyclic_span,
    block6_rows,
    distinguished_flats,
    embed_j,
    is_block6_patterned,
    matrix2_from_block6,
    quadric,
    quadric_value,
    standard_triple,
    validate_catalog,
)
from ternions.ternion import (
    Ternion,
    act_right,
    enumerate_pairs,
    random_invertible,
)


# -- incidence ---------------------------------------------------------------


def test_incidence_rows_match_closed_forms(cat2, cat3):
    # the closed forms, against the point-set oracle's counts
    for cat in (cat2, cat3):
        counts = oracle.incidence_counts(cat)
        for t in TYPE_ORDER:
            expect = expected_incidence_row(t, cat.field.q)
            for p0 in cat.members(t):
                assert tuple(counts[p0]) == expect


def test_incidence_table_verdict(cat2):
    rep = incidence_table(cat2)
    assert rep["ok"] is True
    assert rep["first_mismatch"] is None
    assert rep["column_order"] == ["X", "Y", "alpha", "beta", "gamma"]
    assert rep["rows"]["X"] == [1, 0, 1, 2, 1]
    assert rep["rows"]["gamma"] == [6, 3, 1, 0, 1]


def _doctored(cat, how):
    if how == "drop a beta point":
        return with_orbit_lists(cat, g_beta=cat.g_beta[1:])
    if how == "move a beta point into g_gamma":
        return with_orbit_lists(cat, g_beta=cat.g_beta[1:], g_gamma=cat.g_gamma + cat.g_beta[:1])
    if how == "move an X plane into g_y":
        return replace_fields(cat, g_x=cat.g_x[1:], g_y=cat.g_y + cat.g_x[:1])
    return replace_fields(cat, g_alpha=cat.g_alpha[1:])  # drop an alpha line


DOCTORINGS = [
    "drop a beta point",
    "move an X plane into g_y",
    "drop an alpha line",
    "move a beta point into g_gamma",
]


@pytest.mark.parametrize("how", DOCTORINGS)
@pytest.mark.parametrize("which", [2, 3])
def test_incidence_table_mismatch_matches_reference(which, how, cat2, cat3):
    # the trace counts and the point-set oracle find the same first bad
    # member on catalogs that break the closed forms
    bad = _doctored({2: cat2, 3: cat3}[which], how)
    want = oracle.first_mismatch(bad)
    assert want is not None
    rep = incidence_table(bad)
    assert rep["ok"] is False
    assert rep["first_mismatch"] == want


# -- the adjacency graph -----------------------------------------------------


def test_adjacent_basics(cat2):
    m = cat2.g_x[0]
    assert not adjacent(m, m)
    assert not adjacent(m, cat2.g_alpha[0])  # different dimensions
    y = companion_y(m, cat2)
    assert adjacent(m, y)
    assert meet_dim(m, y) == 2


def expected_edges(q):
    # one Y clique of size q+1 plus q+1 cliques of size q^2+q+1
    c2 = lambda n: n * (n - 1) // 2
    return c2(q + 1) + (q + 1) * c2(q * q + q + 1)


def test_graph_counts(graph2, graph3):
    assert (graph2.n, edge_count(graph2)) == (21, 66)
    assert (graph3.n, edge_count(graph3)) == (52, 318)
    assert edge_count(graph2) == expected_edges(2)
    assert edge_count(graph3) == expected_edges(3)


@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_incidence_counts_match_point_index_reference(which, cat2, cat3, cat4, cat5):
    # the counts through l ^ L equal the point-set oracle's containment
    # counts, also where the bulk count does not apply
    cat = {2: cat2, 3: cat3, 4: cat4, 5: cat5}[which]
    for c in (cat, *(_doctored(cat, how) for how in DOCTORINGS)):
        assert _incidence_counts(c) == oracle.incidence_counts(c)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rows_in_l_span_the_meet_with_l(q):
    # `_incidence_counts` reads l ^ L off the reduced rows of every line l
    # of J, each line of PG(3,q) put into J
    field = field_of_order(q)
    l_line = distinguished_flats(field)[2]
    for ln in enumerate_subspaces(field, 4, 2):
        rows = tuple((a, b, 0, c, d, 0) for a, b, c, d in ln.basis)
        in_l = tuple(r for r in rows if not (r[0] or r[3]))
        assert Subspace(field, 6, in_l) == meet(Subspace(field, 6, rows), l_line)


def test_incidence_counts_list_no_j_line_points(cat4, monkeypatch):
    # on the catalog the bulk count applies: the only points listed are
    # those of L, of the alpha lines and of each l ^ L
    listed = []
    real = geometry.point_vectors
    monkeypatch.setattr(geometry, "point_vectors", lambda u: listed.append(u) or real(u))
    _incidence_counts(cat4)
    allowed = {cat4.l_line, *cat4.g_alpha}
    assert all(u in allowed or u.dim == 1 for u in listed)
    assert sum(u.dim == 2 for u in listed) == len(cat4.g_y) + len(cat4.g_alpha)


@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_graph_matches_point_index_reference(which, cat2, cat3, cat4, cat5):
    # the trace groups give the planes sharing a line, as point sets, and
    # so does `are_adjacent` on every pair; two planes share a point exactly
    # when their J-lines meet (`xi_report`)
    cat = {2: cat2, 3: cat3, 4: cat4, 5: cat5}[which]
    nbrs, meets = oracle.adjacency(cat)
    graph = build_graph(cat)
    assert graph.neighbours == nbrs
    n = len(cat.planes)
    assert all(graph.are_adjacent(i, j) is (j in nbrs[i]) for i in range(n) for j in range(n))
    lines = [oracle.flat(cat.traces[m][0]) for m in cat.planes]
    assert meets == tuple(
        frozenset(j for j, b in enumerate(lines) if j != i and a & b) for i, a in enumerate(lines)
    )


@pytest.mark.parametrize("which", [2, 3, 4])
def test_graph_guards_count_edges_and_j_line_points(which, cat2, cat3, cat4):
    # the edge guard lives where the edges are listed: reading `neighbours`
    # at its count passes and one below raises, naming the count, while
    # the groups, the group paths and the J-line paths run under a budget
    # below both the edge count and the V (q+1) J-line points
    cat = {2: cat2, 3: cat3, 4: cat4}[which]
    edges = edge_count(build_graph(cat))
    assert edges == expected_edges(which)
    points = len(cat.planes) * (which + 1)
    traces = 2 * len(cat.planes)
    assert traces < min(edges, points)
    small = replace_fields(cat, budget=traces)
    graph = build_graph(small)
    assert "neighbours" not in graph.__dict__
    assert geodesics_from(graph, 0) == geodesics_by_neighbours(build_graph(cat).neighbours, 0)
    assert incidence_table(small)["ok"] and xi_report(graph)["skew_preserved_both_ways"]
    with pytest.raises(BudgetError, match=f"enumerating {edges} adjacency edges"):
        graph.neighbours
    at = build_graph(replace_fields(cat, budget=edges))
    assert at.neighbours == build_graph(cat).neighbours


def test_vertex_order_and_types(graph2):
    # the vertices, their index and their group ids are derived from the
    # catalog and the groups; the export spells X for the first len(g_x)
    cat = graph2.catalog
    assert graph2.vertices == cat.planes
    nx = len(cat.g_x)
    types = [cat.type_of(v) for v in graph2.vertices]
    assert types == [SubmoduleType.X] * nx + [SubmoduleType.Y] * (graph2.n - nx)
    assert [v["type"] for v in graph_to_json(graph2)["vertices"]] == [t.value for t in types]
    assert graph2.vindex == {v: i for i, v in enumerate(graph2.vertices)}
    assert graph2.vertex_groups == tuple(
        tuple(gid for gid, g in enumerate(graph2.groups) if i in g) for i in range(graph2.n)
    )


def test_y_planes_pairwise_adjacent(graph3):
    cat = graph3.catalog
    ys = [graph3.vindex[y] for y in cat.g_y]
    for i in ys:
        for j in ys:
            if i != j:
                assert graph3.are_adjacent(i, j)


def test_companion(cat2, graph2):
    for m in cat2.g_x:
        y = companion_y(m, cat2)
        assert cat2.type_of(y) is SubmoduleType.Y
        # the unique Y neighbour
        i = graph2.vindex[m]
        y_nbrs = [
            j
            for j in graph2.neighbours[i]
            if cat2.type_of(graph2.vertices[j]) is SubmoduleType.Y
        ]
        assert [graph2.vertices[j] for j in y_nbrs] == [y]
    with pytest.raises(ValueError):
        companion_y(cat2.g_y[0], cat2)


def test_k_trace_classes(cat3):
    q = 3
    classes = k_trace_classes(cat3)
    assert set(classes.keys()) == set(cat3.g_alpha)
    assert sum(len(ms) for ms in classes.values()) == len(cat3.g_x)
    for p, members in classes.items():
        assert len(members) == q * q + q
        for m in members:
            assert meet(m, cat3.k_solid) == p


def test_companion_constant_on_classes(cat2):
    classes = k_trace_classes(cat2)
    for p, members in classes.items():
        want = join(p, cat2.l_line)
        for m in members:
            assert companion_y(m, cat2) == want


# -- cliques -----------------------------------------------------------------


def test_expected_cliques_structure(cat2, graph2):
    q = 2
    cliques = expected_cliques(cat2)
    assert len(cliques) == q + 2
    sizes = sorted(len(c) for c in cliques)
    assert sizes == [q + 1] + [q * q + q + 1] * (q + 1)
    # pairwise intersections have at most one vertex
    for i in range(len(cliques)):
        for j in range(i + 1, len(cliques)):
            assert len(cliques[i] & cliques[j]) <= 1
    # each is a clique in the graph
    for c in cliques:
        idx = [graph2.vindex[v] for v in c]
        for a in idx:
            for b in idx:
                if a != b:
                    assert graph2.are_adjacent(a, b)


@pytest.mark.parametrize("which", [2, 3])
def test_maximal_cliques_match(which, graph2, graph3):
    graph = {2: graph2, 3: graph3}[which]
    got = set(maximal_cliques(graph))
    want = {
        frozenset(graph.vindex[v] for v in c)
        for c in expected_cliques(graph.catalog)
    }
    assert got == want


def test_clique_interval_content(cat2, graph2):
    # each clique [P, P+J]_3 holds 7 planes through P, all X or Y planes
    for p, members in zip(cat2.g_alpha, graph2.cliques[0]):
        assert len(members) == 7 and None not in members
        for i in members:
            z = graph2.vertices[i]
            assert contains(z, p)
            t = cat2.type_of(z)
            assert t in (SubmoduleType.X, SubmoduleType.Y)


# -- distances ---------------------------------------------------------------


def test_distances_q2(graph2):
    cat = graph2.catalog
    nx = len(cat.g_x)
    trace = {m: None for m in cat.g_x}
    for i, m in enumerate(cat.g_x):
        dist = geodesics_from(graph2, i)[0]
        assert all(d >= 0 for d in dist)  # connected
        for j in range(nx):
            if i == j:
                continue
            assert dist[j] in (1, 3)
        comp = graph2.vindex[companion_y(m, cat)]
        assert dist[comp] == 1
        for j in range(nx, graph2.n):
            if j != comp:
                assert dist[j] == 2


def test_unique_geodesic_q2(graph2):
    cat = graph2.catalog
    nx = len(cat.g_x)
    found = 0
    for i in range(nx):
        dist, paths = geodesics_from(graph2, i)
        for j in range(i + 1, nx):
            if dist[j] == 3:
                found += 1
                assert paths[j] == 1
    assert found > 0


def test_geodesic_is_companion_path(graph2):
    cat = graph2.catalog
    m1 = cat.g_x[0]
    i = graph2.vindex[m1]
    dist = geodesics_from(graph2, i)[0]
    j = next(
        graph2.vindex[m]
        for m in cat.g_x
        if dist[graph2.vindex[m]] == 3
    )
    m2 = graph2.vertices[j]
    y1, y2 = companion_y(m1, cat), companion_y(m2, cat)
    k1, k2 = graph2.vindex[y1], graph2.vindex[y2]
    assert graph2.are_adjacent(i, k1)
    assert graph2.are_adjacent(k1, k2)
    assert graph2.are_adjacent(k2, j)


# -- transversal scans and the duality certificate -----------------------------


@pytest.mark.parametrize("which", [2, 3, 5])
def test_scans(which, cat2, cat3, cat5):
    cat = {2: cat2, 3: cat3, 5: cat5}[which]
    q = cat.field.q
    lines = scan_lines(cat)
    solids = scan_solids(cat)
    assert set(lines) == set(cat.quadric.regulus_opposite)
    assert set(solids) == {cat.j_solid, cat.k_solid}
    cert = no_duality_certificate(cat, lines=lines, solids=solids)
    assert cert["duality_excluded"] is True
    assert cert["transversal_lines"] == q + 1
    assert cert["transversal_solids"] == 2
    assert cert["counts_match"] is True
    assert cert["lines_are_opposite_regulus"] is True
    assert cert["solids_are_j_and_k"] is True


@pytest.mark.parametrize("which", [2, 3])
def test_anchored_scans_match_full_sweep(which, cat2, cat3):
    # every line, and every solid, of PG(5,q) tested on every X plane
    cat = {2: cat2, 3: cat3}[which]
    assert scan_lines(cat) == oracle.sweep(cat, 2)
    assert scan_solids(cat) == oracle.sweep(cat, 4)


@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_scans_match_join_loop(which, cat2, cat3, cat4, cat5):
    # every join of two skew X planes' points or lines, on point sets
    cat = {2: cat2, 3: cat3, 4: cat4, 5: cat5}[which]
    assert scan_lines(cat) == oracle.transversals(cat, 2)
    assert scan_solids(cat) == oracle.transversals(cat, 4)


@pytest.mark.parametrize("q", [q for q in FIELD_ORDERS if q <= 9])
def test_scans_match_per_plane_loop(q, request):
    # hits inside K or J are confirmed on the stored traces, every other
    # candidate on the X planes; the scans give the opposite regulus and
    # J, K, as Lemma 1 states
    cat = request.getfixturevalue(f"cat{q}") if q <= 5 else build_catalog(field_of_order(q))
    assert scan_lines(cat) == sorted(cat.quadric.regulus_opposite, key=Subspace.key)
    assert scan_solids(cat) == sorted((cat.j_solid, cat.k_solid), key=Subspace.key)


@pytest.mark.parametrize("which", [2, 3])
def test_scans_read_every_stored_trace(which, cat2, cat3):
    # swap the two stored traces of the last X plane only: K now meets one
    # of the "alpha lines" in a point, J one of the "J-lines", so neither is
    # confirmed, and of the transversal lines, pairwise skew, only L passes
    # through the point where the J-line of that plane meets K
    cat = {2: cat2, 3: cat3}[which]
    last = cat.g_x[-1]
    doctored = replace_fields(cat)
    doctored.traces = {**cat.traces, last: cat.traces[last][::-1]}
    assert scan_solids(doctored) == []
    assert scan_lines(doctored) == [cat.l_line]


def test_scan_budget_counts_anchored_candidates(cat2):
    # one candidate A + A per point (lines) or line (solids) A of PG(2,2): 7;
    # the scan reads the traces, which keep their own guard (2V = 42)
    tight = replace_fields(cat2, budget=7)
    with pytest.raises(BudgetError, match="42 plane traces"):
        scan_lines(tight)
    tight.traces = cat2.traces  # built under the default budget
    assert len(scan_lines(tight)) == 3
    with pytest.raises(BudgetError, match="7 anchored scan candidates"):
        scan_lines(replace_fields(cat2, budget=6))
    with pytest.raises(BudgetError, match="7 anchored scan candidates"):
        scan_solids(replace_fields(cat2, budget=6))


def test_scan_needs_skew_anchor(cat2):
    lone = replace_fields(cat2, g_x=cat2.g_x[:1])
    with pytest.raises(AssertionError, match="skew"):
        scan_lines(lone)
    with pytest.raises(AssertionError, match="skew"):
        scan_solids(lone)


@pytest.mark.parametrize("which", [2, 3])
def test_scan_names_a_standard_plane_outside_x(which, cat2, cat3):
    cat = {2: cat2, 3: cat3}[which]
    m2 = standard_triple(cat.field)[2]
    assert m2 in cat.g_x
    doctored = replace_fields(cat, g_x=tuple(m for m in cat.g_x if m != m2))
    with pytest.raises(AssertionError, match="skew"):
        scan_lines(doctored)
    with pytest.raises(AssertionError, match="skew"):
        scan_solids(doctored)


def test_certificate_needs_unequal_counts(cat2):
    # q = 1 would give 2 = 2; the logical step alone cannot conclude
    lines = list(cat2.quadric.regulus_opposite)
    solids = [cat2.j_solid, cat2.k_solid]
    degenerate = no_duality_certificate(cat2, lines[:2], solids)
    assert degenerate["duality_excluded"] is False
    assert no_duality_certificate(cat2, lines, solids)["duality_excluded"] is True


# -- the characterization ------------------------------------------------------


def test_lift_satisfies_conditions(cat2):
    rng = random.Random(5)
    for _ in range(10):
        s = random_invertible(cat2.field, rng)
        for sigma in automorphisms(cat2.field):
            f = induced_collineation(s, sigma)
            assert first_failed_condition(f, cat2) is None


def test_coordinate_swap_fails_iv(cat2):
    # x1 <-> x3 moves J, so condition iv must fail
    f2 = cat2.field
    perm = [[0] * 6 for _ in range(6)]
    image = [2, 1, 0, 3, 4, 5]
    for i, j in enumerate(image):
        perm[i][j] = 1
    f = SemilinearMap(f2, 6, tuple(tuple(r) for r in perm), automorphisms(f2)[0])
    assert first_failed_condition(f, cat2) == "iv"


def _random_positive(cat, rng):
    auts = automorphisms(cat.field)
    return induced_collineation(random_invertible(cat.field, rng), rng.choice(auts))


def _random_j_fixing(field, rng):
    """A random invertible matrix whose rows 0, 1, 3, 4 vanish in columns 2, 5."""
    while True:
        rows = tuple(
            tuple(
                0 if i in (0, 1, 3, 4) and j in (2, 5) else rng.randrange(field.q)
                for j in range(6)
            )
            for i in range(6)
        )
        if field.kernel.rank(rows) == 6:
            return rows


@pytest.mark.parametrize("which", [2, 3, 4])
def test_j_test_from_matrix_entries(which, cat2, cat3, cat4):
    cat = {2: cat2, 3: cat3, 4: cat4}[which]
    field = cat.field
    auts = automorphisms(field)
    rng = random.Random(20 + which)
    maps = [_random_positive(cat, rng) for _ in range(100)]
    for make in (random_nonblock_invertible, _random_j_fixing):
        maps += [SemilinearMap(field, 6, make(field, rng), rng.choice(auts)) for _ in range(100)]
    got = [_fixes_j(f.matrix) for f in maps]
    assert got == [f.apply(cat.j_solid) == cat.j_solid for f in maps]
    assert all(got[:100]) and all(got[200:])
    assert not all(got[100:200])


@pytest.mark.parametrize("which", [2, 3, 4])
def test_control_rows_j_read_matches_built_map(which, cat2, cat3, cat4):
    """Condition iv's J test reads a map's rows (`_fixes_j`); over 500
    seeded random matrices the read agrees with the built map's J image,
    and a map whose rows miss J fails first_failed_condition at iv."""
    cat = {2: cat2, 3: cat3, 4: cat4}[which]
    field = cat.field
    auts = automorphisms(field)
    rng = random.Random(100 + which)
    misses = 0
    for _ in range(500):
        rows = random_nonblock_invertible(field, rng)
        f = SemilinearMap(field, 6, rows, rng.choice(auts))
        fixes = _fixes_j(rows)
        assert fixes == (f.apply(cat.j_solid) == cat.j_solid)
        if not fixes:
            misses += 1
            assert first_failed_condition(f, cat) == "iv"
    assert misses > 400


@pytest.mark.parametrize("which", [2, 3, 4])
def test_first_failed_condition_matches_reference(which, cat2, cat3, cat4):
    cat = {2: cat2, 3: cat3, 4: cat4}[which]
    field = cat.field
    auts = automorphisms(field)
    rng = random.Random(which)
    maps = [_random_positive(cat, rng) for _ in range(200)]
    maps += [
        SemilinearMap(field, 6, random_nonblock_invertible(field, rng), rng.choice(auts))
        for _ in range(200)
    ]
    got = [first_failed_condition(f, cat) for f in maps]
    assert got == [oracle.first_failed(f, cat) for f in maps]
    assert got[:200] == [None] * 200


def test_every_automorphism_permutes_the_points_of_h():
    # H = {x2 x6 = x3 x5} in K = {x1 = x4 = 0} is defined over the prime
    # field, so condition iv reads the matrix alone and applies no sigma
    # (`_fixes_j_and_h`): every field of order <= 27, once per modulus, and
    # each of its automorphisms; H is `quadric`'s where it is cheap to build
    pairs = 0
    for field in every_field(27):
        k_points = ((0, a, b, 0, c, d) for a, b, c, d in projective_vectors(field, 4))
        hvecs = {v for v in k_points if quadric_value(field, v) == 0}
        assert len(hvecs) == (field.q + 1) ** 2
        if field.q <= 9:
            assert hvecs == quadric(field).point_vectors
        for sigma in automorphisms(field):
            assert set(sigma.apply(tuple(hvecs))) == hvecs
            pairs += 1
    assert pairs == 79


def _moving_positive(cat, rng, planes):
    """A positive map and the image D != P of the first plane P it moves."""
    while True:
        f = _random_positive(cat, rng)
        img = f.apply(planes[0])
        if img != planes[0]:
            return f, img


@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_doctored_catalogs_reach_iii_and_ii(which, cat2, cat3, cat4, cat5):
    # f sends a kept plane onto the dropped one, so the conditions on the
    # planes fail in the oracle while iv, which reads only J and H,
    # still holds; first_failed_condition reads iv alone and leaves such a
    # catalog to the claims iv rests on, chars:x and chars:y, which fail
    cat = {2: cat2, 3: cat3, 4: cat4, 5: cat5}[which]
    rng = random.Random(10 + which)
    f, img = _moving_positive(cat, rng, cat.g_x)
    no_x = replace_fields(cat, g_x=tuple(m for m in cat.g_x if m != img))
    as_y = replace_fields(no_x, g_y=cat.g_y + (img,))
    for bad in (no_x, as_y):
        assert first_failed_condition(f, bad) is None
        assert oracle.first_failed(f, bad) == "iii"
        assert validate_catalog(bad)["x_is_scan"] is False
    f, img = _moving_positive(cat, rng, cat.g_y)
    no_y = replace_fields(cat, g_y=tuple(m for m in cat.g_y if m != img))
    assert first_failed_condition(f, no_y) is None
    assert oracle.first_failed(f, no_y) == "ii"
    assert validate_catalog(no_y)["y_is_pencil"] is False


@pytest.mark.parametrize("which", [2, 3])
def test_point_planes_index(which, cat2, cat3):
    # the oracle's points and planes themselves, against the library's
    # points and containment
    cat = {2: cat2, 3: cat3}[which]
    q = cat.field.q
    planes = [oracle.flat(m) for m in cat.planes]
    for m, on in zip(cat.planes, planes):
        assert on == {p.basis[0] for p in projective_points(m)}
        assert len(on) == q * q + q + 1
        assert oracle.subspace(cat.field, on) == m
    assert oracle.points(cat.field) == set(projective_vectors(cat.field, 6))
    for v in projective_vectors(cat.field, 6):
        pt = Subspace(cat.field, 6, (v,))
        through = sum(1 for m in cat.planes if contains(m, pt))
        assert sum(v in on for on in planes) == through


def test_first_failed_condition_makes_no_elimination(cat3, monkeypatch):
    # maps that fail iv, most random invertible matrices, are decided from
    # the matrix and the images of the points of H alone
    rng = random.Random(41)
    auts = automorphisms(cat3.field)
    maps = [
        SemilinearMap(cat3.field, 6, random_nonblock_invertible(cat3.field, rng), rng.choice(auts))
        for _ in range(50)
    ]
    calls = []
    for name in ("rref", "rank", "vec_apply"):
        real = getattr(Kernel, name)

        def counted(self, *args, _name=name, _real=real):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(Kernel, name, counted)
    assert [first_failed_condition(f, cat3) for f in maps] == ["iv"] * 50
    assert calls == []


# -- generators of G0 ---------------------------------------------------------------


def _closure(gens, mul, one):
    """Everything generated by gens under mul, by breadth-first search from
    one (a finite monoid generated by invertible elements is a group)."""
    seen = {one}
    frontier = [one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


@pytest.mark.parametrize("q, order", [(2, 576), (3, 186_624)])
def test_g0_generators_generate_gl2(q, order):
    # |GL2(T)| = |GL2(q)|^2 q^4.  A matrix is coded as its two rows, each
    # the code of a pair in T^2 (q^6 of them), and a generator acts on each
    # row by one table lookup, so the closure at q = 3 takes about a second
    field = field_of_order(q)
    gens = g0_generators(field)
    lifts = gens["elementary"] + gens["diagonal"]
    assert len(lifts) == 9 and all(f.sigma.is_identity for f in lifts)
    mats = [matrix2_from_block6(field, f.matrix) for f in lifts]
    pairs = list(enumerate_pairs(field))
    code = {v: i for i, v in enumerate(pairs)}
    n = len(pairs)
    tables = [[code[act_right(v, s)] for v in pairs] for s in mats]
    one, zero = Ternion(field, 1, 0, 1), Ternion(field, 0, 0, 0)
    identity = code[(one, zero)] * n + code[(zero, one)]

    def mul(x, tab):
        return tab[x // n] * n + tab[x % n]

    assert len(_closure(tables, mul, identity)) == order


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_g0_homotheties_generate_all(q):
    field = field_of_order(q)
    gens = g0_generators(field)["homothety"]
    assert len(gens) == 2 and all(f.sigma.is_identity for f in gens)
    got = _closure(
        [f.matrix for f in gens], field.kernel.matmul, full_space(field, 6).basis
    )
    want = {_homothety_rows(a, b) for a in range(q) for b in range(1, q)}
    assert len(want) == q * (q - 1)
    assert got == want


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_g0_frobenius_generates_automorphisms(q):
    field = field_of_order(q)
    gens = g0_generators(field)["frobenius"]
    assert len(gens) == (field.k > 1)
    autos = automorphisms(field)
    for f in gens:
        assert f.matrix == full_space(field, 6).basis
    # Frob^i after Frob^j is Frob^(i+j mod k)
    got = _closure([f.sigma.power for f in gens], lambda i, j: (i + j) % field.k, 0)
    assert {autos[e] for e in got} == set(autos)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_g0_elementary_entries_and_units_generate(q):
    # the two facts the generation argument rests on, at every q: the
    # entries t of the elementary generators span T additively, and the
    # units of the diagonal generators generate the q (q-1)^2 units
    field = field_of_order(q)
    gens = g0_generators(field)
    mats = [matrix2_from_block6(field, f.matrix) for f in gens["elementary"]]
    half = len(mats) // 2
    zero, one = Ternion(field, 0, 0, 0), Ternion(field, 1, 0, 1)
    uppers = [m.b for m in mats[:half]]
    assert [m.c for m in mats[half:]] == uppers
    assert all(m.a == m.d == one for m in mats)
    assert all(m.c == zero for m in mats[:half]) and all(m.b == zero for m in mats[half:])
    assert len(_closure(uppers, lambda a, b: a + b, zero)) == q**3
    units = [matrix2_from_block6(field, f.matrix).a for f in gens["diagonal"]]
    assert len(_closure(units, lambda a, b: a * b, one)) == q * (q - 1) ** 2


@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_g0_generators_satisfy_conditions(which, cat2, cat3, cat4, cat5):
    cat = {2: cat2, 3: cat3, 4: cat4, 5: cat5}[which]
    gens = g0_generators(cat.field)
    k = cat.field.k
    assert {kind: len(maps) for kind, maps in gens.items()} == {
        "elementary": 6 * k,
        "diagonal": 3,
        "frobenius": int(k > 1),
        "homothety": 2,
    }
    for maps in gens.values():
        for f in maps:
            assert first_failed_condition(f, cat) is None
            assert oracle.first_failed(f, cat) is None


@pytest.mark.parametrize("which", [2, 3, 4])
def test_plane_loop_reference_agrees_with_iv(which, cat2, cat3, cat4):
    # the iii/ii conditions that condition iv implies, read on points:
    # every generator of G0 passes them, and the oracle agrees with
    # first_failed_condition on random maps; the swap of J and K fixes the
    # standard triple but fails iv, and fails iii, so the oracle can fail
    cat = {2: cat2, 3: cat3, 4: cat4}[which]
    field = cat.field
    auts = automorphisms(field)
    rng = random.Random(30 + which)
    gens = [f for maps in g0_generators(field).values() for f in maps]
    for f in gens:
        assert oracle.first_failed(f, cat) is None
        assert first_failed_condition(f, cat) is None
    maps = [_random_positive(cat, rng) for _ in range(20)]
    maps += [
        SemilinearMap(field, 6, random_nonblock_invertible(field, rng), rng.choice(auts))
        for _ in range(20)
    ]
    assert [first_failed_condition(f, cat) for f in maps] == [
        oracle.first_failed(f, cat) for f in maps
    ]
    swap = SemilinearMap(field, 6, J_K_SWAP, auts[0])
    assert all(swap.apply(m) == m for m in standard_triple(field))
    assert first_failed_condition(swap, cat) == oracle.first_failed(swap, cat) == "iv"
    assert oracle.plane_failure(swap, cat) == "iii"


@pytest.mark.parametrize("which", [2, 3])
def test_g0_transitive_on_skew_x_triples(which, cat2, cat3):
    # step 1 of the converse in suite_thm1: the ordered triples of pairwise
    # skew X planes form one orbit of G0, found by BFS from the standard
    # triple T(1,0), T(0,1), T(1,1) under the generators' permutations
    cat = {2: cat2, 3: cat3}[which]
    field = cat.field
    xs = cat.g_x
    index = {m: i for i, m in enumerate(xs)}
    perms = [
        [index[f.apply(m)] for m in xs] for maps in g0_generators(field).values() for f in maps
    ]
    skew = [{j for j, n in enumerate(xs) if meet_dim(m, n) == 0} for m in xs]
    triples = {(i, j, k) for i in range(len(xs)) for j in skew[i] for k in skew[i] & skew[j]}
    one, zero = Ternion(field, 1, 0, 1), Ternion(field, 0, 0, 0)
    start = tuple(index[cyclic_span(v)] for v in ((one, zero), (zero, one), (one, one)))
    orbit = _closure(perms, lambda t, p: (p[t[0]], p[t[1]], p[t[2]]), start)
    assert orbit == triples
    # q^3 X planes are skew to a given one, and a third point a v0 + b v1
    # has units a, b up to a unit factor: q (q-1)^2 choices
    q = field.q
    assert len(triples) == len(xs) * q**3 * q * (q - 1) ** 2


def test_random_nonblock_is_invertible_nonpattern(f3):
    rng = random.Random(9)
    for _ in range(20):
        rows = random_nonblock_invertible(f3, rng)
        assert f3.kernel.rank(rows) == 6
        assert not is_block6_patterned(rows)


# -- decomposition --------------------------------------------------------------


def canonical_composite(cat, s, a, b, sigma):
    """sigma entrywise, then the homothety (a, b), then the lift of S."""
    field = cat.field
    matrix = field.kernel.matmul(_homothety_rows(a, b), block6_rows(s))
    return SemilinearMap(field, 6, matrix, sigma)


def test_decompose_identity(cat2):
    field = cat2.field
    ident = SemilinearMap(field, 6, full_space(field, 6).basis, automorphisms(field)[0])
    g = decompose_semilinear(ident, cat2)
    assert g.unit.triple() == (1, 0, 1)
    assert g.sigma.is_identity
    assert g.matrix == matrix_identity(field)
    assert verify_decomposition(ident, g)


def test_decompose_pure_frobenius(cat4):
    field = cat4.field
    frob = automorphisms(field)[1]
    f = SemilinearMap(field, 6, full_space(field, 6).basis, frob)
    g = decompose_semilinear(f, cat4)
    assert g.sigma == frob
    assert g.unit.triple() == (1, 0, 1)
    assert g.matrix == matrix_identity(field)
    assert verify_decomposition(f, g)


def test_decompose_recovers_canonical_params(cat2):
    rng = random.Random(11)
    field = cat2.field
    for _ in range(10):
        s = random_invertible(field, rng)
        a, b = rng.randrange(2), 1
        f = canonical_composite(cat2, s, a, b, automorphisms(field)[0])
        g = decompose_semilinear(f, cat2)
        assert g.unit.triple() == (1, a, b)
        assert g.matrix == s
        assert verify_decomposition(f, g)


def test_decompose_recovers_frobenius_composite(cat4):
    rng = random.Random(13)
    field = cat4.field
    frob = automorphisms(field)[1]
    s = random_invertible(field, rng)
    f = canonical_composite(cat4, s, 2, 3, frob)
    g = decompose_semilinear(f, cat4)
    assert g.unit.triple() == (1, 2, 3)
    assert g.sigma == frob
    assert g.matrix == s
    assert verify_decomposition(f, g)


@pytest.mark.parametrize("which", [2, 3, 4])
def test_decompose_reads_back_every_homothety(which, cat2, cat3, cat4):
    # every (a, b) in F x F*, every sigma, two seeded S each: the read-off
    # returns exactly the (sigma, (1, a, b), S) the map was built from
    cat = {2: cat2, 3: cat3, 4: cat4}[which]
    field = cat.field
    rng = random.Random(29)
    for sigma in automorphisms(field):
        for a, b in product(field.codes(), range(1, field.q)):
            for s in (random_invertible(field, rng), random_invertible(field, rng)):
                g = decompose_semilinear(canonical_composite(cat, s, a, b, sigma), cat)
                assert (g.sigma, g.unit.triple(), g.matrix) == (sigma, (1, a, b), s)


def test_decompose_read_off_raises_value_error(cat2, monkeypatch):
    # past condition iv, a matrix the read-off cannot split raises
    # ValueError, never ZeroDivisionError
    monkeypatch.setattr(geometry, "_fixes_j_and_h", lambda f, cat: True)
    field = cat2.field

    def permuted(order, extra=()):
        rows = [[int(j == i) for j in range(6)] for i in order]
        for i, j in extra:
            rows[i][j] = 1
        return SemilinearMap(field, 6, tuple(map(tuple, rows)), automorphisms(field)[0])

    cases = (
        (permuted([1, 0, 2, 3, 4, 5]), "zero in columns 1 and 4"),
        (permuted([2, 1, 0, 3, 4, 5]), "b = 0"),
        (permuted(range(6), extra=[(0, 5)]), "lift pattern"),
    )
    for f, message in cases:
        with pytest.raises(ValueError, match=message):
            decompose_semilinear(f, cat2)


@pytest.mark.parametrize("which", [2, 4])
def test_basis_round_trip_agrees_with_sampled(which, cat2, cat4):
    cat = {2: cat2, 4: cat4}[which]
    field = cat.field
    auts = automorphisms(field)
    rng = random.Random(17)
    for i in range(12):
        s = random_invertible(field, rng)
        sigma = rng.choice(auts)
        if i % 3:
            a, b = rng.randrange(field.q), rng.randrange(1, field.q)
            f = canonical_composite(cat, s, a, b, sigma)
        else:
            f = induced_collineation(s, sigma)
        g = decompose_semilinear(f, cat)
        assert verify_decomposition(f, g) is True
        assert verify_decomposition_sampled(f, g, rng) is True


@pytest.mark.parametrize("which", [2, 4])
def test_doctored_unit_fails_on_the_basis(which, cat2, cat4):
    cat = {2: cat2, 4: cat4}[which]
    field = cat.field
    rng = random.Random(19)
    f = canonical_composite(cat, random_invertible(field, rng), 1, 1, automorphisms(field)[0])
    g = decompose_semilinear(f, cat)
    unit = g.unit
    for wrong in (Ternion(field, unit.x, field.add(unit.y, 1), unit.z), Ternion(field, 1, 0, 1)):
        bad = replace_fields(g, unit=wrong)
        assert verify_decomposition(f, bad) is False
        assert verify_decomposition_sampled(f, bad, rng) is False


def test_doctored_module_sigma_fails(cat4):
    # g and f must be semilinear over one automorphism for the basis to decide
    field = cat4.field
    ident, frob = automorphisms(field)
    f = canonical_composite(cat4, random_invertible(field, random.Random(23)), 2, 3, frob)
    g = decompose_semilinear(f, cat4)
    bad = replace_fields(g, sigma=ident)
    assert verify_decomposition(f, g) is True
    assert verify_decomposition(f, bad) is False


def test_decompose_rejects_non_admissible(cat2):
    f2 = cat2.field
    perm = [[0] * 6 for _ in range(6)]
    for i, j in enumerate([2, 1, 0, 3, 4, 5]):
        perm[i][j] = 1
    f = SemilinearMap(f2, 6, tuple(tuple(r) for r in perm), automorphisms(f2)[0])
    with pytest.raises(ValueError):
        decompose_semilinear(f, cat2)


def test_decompose_reads_sigma_from_the_map(cat4):
    # f(c e1) = sigma(c) f(e1) for every code c, so f.sigma is the only
    # automorphism f is semilinear over, and the decomposition keeps it
    field = cat4.field
    e1 = (1, 0, 0, 0, 0, 0)
    for sigma in automorphisms(field):
        for f in (
            SemilinearMap(field, 6, full_space(field, 6).basis, sigma),
            induced_collineation(random_invertible(field, random.Random(sigma.power)), sigma),
        ):
            img = f.apply_vector(e1)
            for tau in automorphisms(field):
                semilinear = all(
                    f.apply_vector((c, 0, 0, 0, 0, 0))
                    == tuple(field.mul(tau.table[c], x) for x in img)
                    for c in field.codes()
                )
                assert semilinear is (tau == sigma)
            g = decompose_semilinear(f, cat4)
            assert g.sigma == sigma
            assert verify_decomposition(f, g)


# -- adjacency preservers ---------------------------------------------------------


@pytest.mark.parametrize("which", [2, 3])
def test_cliques_table(which, graph2, graph3):
    # per alpha line P: the planes through P inside P+J, and the plane P+L;
    # built on first use, not by build_graph
    graph = {2: graph2, 3: graph3}[which]
    cat = graph.catalog
    assert "cliques" not in build_graph(cat).__dict__
    members, marked = graph.cliques
    for a, p in enumerate(cat.g_alpha):
        pj = join(p, cat.j_solid)
        want = {i for i, z in enumerate(graph.vertices) if contains(z, p) and contains(pj, z)}
        assert members[a] == want
        assert marked[a] == graph.vindex[join(p, cat.l_line)]


def test_random_recipe_builds_preserver(graph2):
    rng = random.Random(17)
    for _ in range(10):
        perm = random_recipe(graph2, rng)
        assert verify_preserver(perm, graph2)
        assert is_recipe(perm, graph2)


def _subspace_recipe(cat, rng):
    """random_recipe as written on Subspace-keyed dicts: mu maps each alpha
    line to its image, psi[P] maps the planes of [P, P+J]_3."""
    alpha = list(cat.g_alpha)
    shuffled = alpha[:]
    rng.shuffle(shuffled)
    mu = dict(zip(alpha, shuffled))
    interval = dict(zip(alpha, expected_cliques(cat)[1:]))
    psi = {}
    for p in alpha:
        dom = sorted(interval[p], key=Subspace.key)
        cod = sorted(interval[mu[p]], key=Subspace.key)
        marked_src = join(p, cat.l_line)
        marked_dst = join(mu[p], cat.l_line)
        dom.remove(marked_src)
        cod.remove(marked_dst)
        rng.shuffle(cod)
        table = dict(zip(dom, cod))
        table[marked_src] = marked_dst
        psi[p] = table
    return mu, psi


@pytest.mark.parametrize("which", [2, 3, 4])
def test_random_recipe_matches_subspace_recipe(which, graph2, graph3, cat4):
    # the same seed draws the same recipe, and the same number of draws,
    # as the Subspace version mapped through vindex
    graph = {2: graph2, 3: graph3}[which] if which < 4 else build_graph(cat4)
    cat = graph.catalog
    marked = graph.cliques[1]
    position = {p: a for a, p in enumerate(cat.g_alpha)}
    vindex = graph.vindex
    for seed in range(3):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        perm = random_recipe(graph, rng)
        mu, psi = _subspace_recipe(cat, ref_rng)
        assert [perm[y] for y in marked] == [marked[position[mu[p]]] for p in cat.g_alpha]
        assert perm == recipe_permutation(
            graph, [{vindex[z]: vindex[w] for z, w in psi[p].items()} for p in cat.g_alpha]
        )
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_recipe_generators_match_the_recipe_reference(which, cat2, cat3, cat4, cat5):
    # the four generators as recipes (mu, psi): the clique generators send
    # the non-marked members of clique a onto those of clique mu(a) in
    # sorted order and marked to marked; the plane generators move the
    # non-marked members of clique 0 and fix every other plane
    graph = build_graph({2: cat2, 3: cat3, 4: cat4, 5: cat5}[which])
    members, marked = graph.cliques
    n = len(members)
    rest = [sorted(c - {y}) for c, y in zip(members, marked)]

    def blocks(mu):
        return [dict(zip(rest[a] + [marked[a]], rest[b] + [marked[b]])) for a, b in enumerate(mu)]

    def in_clique_0(images):
        psi = [{z: z for z in c} for c in members]
        psi[0].update(zip(rest[0], images))
        return psi

    x = rest[0]
    want = {
        "clique transposition": blocks([1, 0] + list(range(2, n))),
        "clique cycle": blocks(list(range(1, n)) + [0]),
        "plane transposition": in_clique_0([x[1], x[0]] + x[2:]),
        "plane cycle": in_clique_0(x[1:] + x[:1]),
    }
    gens = recipe_generators(graph)
    assert list(gens) == list(want)
    for name, psi in want.items():
        assert gens[name] == recipe_permutation(graph, psi)
        assert is_recipe(gens[name], graph)


def test_is_recipe_rejects_a_diverted_marked_plane(cat2, graph2):
    perm = list(random_recipe(graph2, random.Random(19)))
    members, marked = graph2.cliques
    assert marked[0] == graph2.vindex[join(cat2.g_alpha[0], cat2.l_line)]
    assert is_recipe(perm, graph2)
    # divert the marked Y plane to an X plane of the target clique
    other = min(members[0] - {marked[0]})
    perm[marked[0]], perm[other] = perm[other], perm[marked[0]]
    assert not is_recipe(perm, graph2)


def test_is_recipe_rejects_two_cliques_onto_one(graph2):
    perm = random_recipe(graph2, random.Random(23))
    members, marked = graph2.cliques
    order = [sorted(c - {y}) + [y] for c, y in zip(members, marked)]
    bad = list(perm)
    for z, z0 in zip(order[1], order[0]):
        bad[z] = perm[z0]
    assert not is_recipe(bad, graph2)
    assert not is_recipe(perm[:-1], graph2)


def test_is_recipe_rejects_bad_clique_images(graph2):
    perm = random_recipe(graph2, random.Random(27))
    members, marked = graph2.cliques
    b = marked.index(perm[marked[1]])  # the target of clique 1, not of clique 0
    # an X plane sent outside the target clique, or two onto one
    x = min(members[0] - {marked[0]})
    outside = min(members[b] - {marked[b]})
    twice = next(perm[z] for z in sorted(members[0]) if z not in (x, marked[0]))
    for bad in (outside, twice):
        table = list(perm)
        table[x] = bad
        assert not is_recipe(table, graph2)


def test_is_recipe_needs_cliques_that_cover_the_vertices_once(graph2):
    ident = tuple(range(graph2.n))
    assert is_recipe(ident, graph2)
    members, marked = graph2.cliques
    short = replace_fields(graph2)
    short.cliques = ((members[0] - {min(members[0])},) + members[1:], marked)
    assert not is_recipe(ident, short)
    twice = replace_fields(graph2)
    twice.cliques = ((members[0] | {min(members[1])},) + members[1:], marked)
    assert not is_recipe(ident, twice)


def test_swapping_across_cliques_breaks_preservation(cat2, graph2):
    rng = random.Random(29)
    perm = list(random_recipe(graph2, rng))
    classes = k_trace_classes(cat2)
    i1, i2 = (graph2.vindex[members[0]] for members in list(classes.values())[:2])
    perm[i1], perm[i2] = perm[i2], perm[i1]
    assert not verify_preserver(perm, graph2)


def test_preserver_from_collineation(cat2, graph2):
    rng = random.Random(31)
    s = random_invertible(cat2.field, rng)
    f = induced_collineation(s, automorphisms(cat2.field)[0])
    perm = preserver_from_collineation(f, graph2)
    assert verify_preserver(perm, graph2)
    assert is_recipe(perm, graph2)


@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_preserver_from_collineation_matches_reference(which, cat2, cat3, cat4, cat5):
    cat = {2: cat2, 3: cat3, 4: cat4, 5: cat5}[which]
    graph = build_graph(cat)
    rng = random.Random(37 + which)
    for _ in range(10):
        f = _random_positive(cat, rng)
        assert preserver_from_collineation(f, graph) == oracle.preserver(f, cat)
    f, img = _moving_positive(cat, rng, cat.g_x)
    doctored = replace_fields(cat, g_x=tuple(m for m in cat.g_x if m != img))
    with pytest.raises(ValueError):
        preserver_from_collineation(f, build_graph(doctored))
    assert oracle.preserver(f, doctored) is None


def test_verify_preserver_rejects_non_bijections(graph2):
    perm = random_recipe(graph2, random.Random(43))
    assert verify_preserver(perm, graph2)
    assert not verify_preserver(perm[1:], graph2)  # one vertex unmapped
    assert not verify_preserver(perm[:-1] + (graph2.n,), graph2)  # off the vertices
    repeated = list(perm)
    repeated[0] = repeated[1]
    assert not verify_preserver(repeated, graph2)


def test_verify_preserver_reads_no_neighbour_sets(graph3, monkeypatch):
    # the check maps groups onto groups; the edges are never listed
    fresh = build_graph(graph3.catalog)
    monkeypatch.setattr(
        geometry.AdjacencyGraph, "neighbours", property(lambda g: pytest.fail("read"))
    )
    perm = random_recipe(fresh, random.Random(47))
    assert verify_preserver(perm, fresh)


@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_verify_preserver_matches_neighbour_reference(which, cat2, cat3, cat4, cat5):
    # recipe and collineation preservers pass both checks; swapping two X
    # planes across cliques, or one X plane with a Y plane, fails both; on
    # a graph with one edge cut from a clique the two checks agree
    cat = {2: cat2, 3: cat3, 4: cat4, 5: cat5}[which]
    graph = build_graph(cat)
    nbrs = graph.neighbours
    rng = random.Random(53 + which)
    perms = [random_recipe(graph, rng) for _ in range(5)]
    perms += [preserver_from_collineation(_random_positive(cat, rng), graph) for _ in range(3)]
    members, marked = graph.cliques
    a = min(members[0] - {marked[0]})
    b = min(members[1] - {marked[1]})
    for perm in perms:
        assert verify_preserver(perm, graph) and preserves_by_neighbours(perm, nbrs)
        for i, j in ((a, b), (a, marked[0]), (a, marked[1])):
            bad = list(perm)
            bad[i], bad[j] = bad[j], bad[i]
            assert not verify_preserver(bad, graph)
            assert not preserves_by_neighbours(bad, nbrs)
    cut = regrouped(graph, remove=[(a, min(members[0] - {a, marked[0]}))])
    for perm in perms[:2]:
        assert verify_preserver(perm, cut) is preserves_by_neighbours(perm, cut.neighbours)


@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_geodesics_match_neighbour_bfs(which, cat2, cat3, cat4, cat5):
    # the group BFS gives the distances and path counts of the BFS over the
    # neighbour sets from every start, also with an edge removed and added
    cat = {2: cat2, 3: cat3, 4: cat4, 5: cat5}[which]
    graph = build_graph(cat)
    n_x = len(cat.g_x)
    far = next(j for j in range(1, n_x) if not graph.are_adjacent(0, j))
    mate = next(j for j in range(1, n_x) if graph.are_adjacent(0, j))
    for g in (graph, regrouped(graph, remove=[(0, mate)], add=[(0, far)])):
        nbrs = g.neighbours
        for start in range(g.n):
            assert geodesics_from(g, start) == geodesics_by_neighbours(nbrs, start)


# -- xi ---------------------------------------------------------------------------


def test_xi_rejects_non_x(cat2):
    with pytest.raises(ValueError):
        xi_map(cat2.g_y[0], cat2)


def test_xi_report_q2(graph2):
    cat2 = graph2.catalog
    rep = xi_report(graph2)
    assert rep["is_permutation"] is True
    assert rep["breaks_adjacency"] is True
    assert rep["skew_preserved_both_ways"] is True
    assert rep["pairs_checked"] == 18 * 17 // 2
    w = rep["adjacency_witness"]
    assert w is not None
    assert adjacent(w["m1"], w["m2"])
    img_meet = w["images_meet"]
    assert img_meet.dim == 1
    assert img_meet in set(cat2.g_beta)
    assert meet_dim(xi_map(w["m1"], cat2), xi_map(w["m2"], cat2)) == 1


def test_xi_witness_images_not_adjacent(graph2):
    cat2 = graph2.catalog
    w = xi_report(graph2)["adjacency_witness"]
    assert not adjacent(xi_map(w["m1"], cat2), xi_map(w["m2"], cat2))


@pytest.mark.parametrize("which", [2, 3])
def test_xi_report_matches_pairwise_reference(which, graph2, graph3):
    # xi as the oracle finds it, delta_J(M ^ J) on points, and what it
    # keeps over all pairs of X planes
    graph = {2: graph2, 3: graph3}[which]
    cat = graph.catalog
    images = oracle.xi_images(cat)
    assert [graph.vindex[xi_map(m, cat)] for m in cat.g_x] == images
    rep = xi_report(graph)
    got = rep["is_permutation"], rep["skew_preserved_both_ways"], rep["adjacency_witness"]
    assert got == oracle.xi_facts(cat, images)


def test_xi_swapped_images_break_skewness(graph2, monkeypatch):
    cat = graph2.catalog
    xs, real = cat.g_x, xi_map
    swap = {xs[0]: xs[1], xs[1]: xs[0]}

    def swapped(m, c):
        return real(swap.get(m, m), c)

    images = oracle.xi_images(cat)
    assert oracle.xi_facts(cat, [images[1], images[0], *images[2:]])[1] is False
    monkeypatch.setattr(geometry, "xi_map", swapped)
    rep = xi_report(graph2)
    assert rep["is_permutation"] is True
    assert rep["skew_preserved_both_ways"] is False


@pytest.mark.parametrize("doctored", [False, True, "J-lines on one point off L"])
@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_xi_meeting_sets_match_skew_set_reference(
    which, doctored, cat2, cat3, cat4, cat5, monkeypatch
):
    # the J-line check and the oracle's pairwise check of skewness give one
    # verdict and one witness, for xi and for xi with two images swapped:
    # the first two, or two whose J-lines have the same first reduced row,
    # a point off L, which a polar check reading that row alone would pass
    cat = {2: cat2, 3: cat3, 4: cat4, 5: cat5}[which]
    graph = build_graph(cat)
    xs, real = cat.g_x, xi_map
    pair = xs[:2]
    if doctored == "J-lines on one point off L":
        first = {m: cat.traces[m][0].basis[0] for m in xs}
        same = [(a, b) for a, b in combinations(xs, 2) if first[a] == first[b]]
        pair = next((a, b) for a, b in same if first[a][0] or first[a][3])  # off L
    swap = dict(zip(pair, pair[::-1])) if doctored else {}

    def doctored_xi(m, c):
        return real(swap.get(m, m), c)

    images = [graph.vindex[doctored_xi(m, cat)] for m in xs]
    assert sorted(images) == list(range(len(xs)))
    is_permutation, want, witness = oracle.xi_facts(cat, images)
    assert is_permutation and want is not bool(doctored)
    monkeypatch.setattr(geometry, "xi_map", doctored_xi)
    assert xi_report(graph) == {
        "is_permutation": True,
        "adjacency_witness": witness,
        "breaks_adjacency": witness is not None,
        "skew_preserved_both_ways": want,
        "pairs_checked": len(xs) * (len(xs) - 1) // 2,
    }


def test_xi_map_matches_join_construction(cat2, cat3, cat4, cat5):
    # the J-line lookup gives the plane that delta_J(M ^ J), found point by
    # point under the form, spans with the alpha line through its point on L
    for cat in (cat2, cat3, cat4, cat5):
        field = cat.field
        j, _, l, _ = oracle.flats_jklh(field)
        alpha = [oracle.flat(p) for p in cat.g_alpha]
        for m in cat.g_x:
            line = oracle.delta_j(field, oracle.flat(m) & j)
            assert oracle.flat(delta_j(meet(m, cat.j_solid))) == line
            assert len(line) == field.q + 1
            through = [p for p in alpha if line & l <= p]
            assert len(through) == 1
            assert oracle.flat(xi_map(m, cat)) == oracle.join(field, line, through[0])


def _subspaces_of_j(field):
    """Every subspace of J = {x3 = x6 = 0}, each of PG(3,q) put into J."""
    return [
        Subspace(field, 6, tuple((a, b, 0, c, d, 0) for a, b, c, d in u.basis))
        for k in range(5)
        for u in enumerate_subspaces(field, 4, k)
    ]


def test_delta_j_form(f3):
    # symmetric, zero on x3 and x6, and nondegenerate on J; j_form is
    # u DELTA_J w^T on the basis vectors, so everywhere by bilinearity
    assert DELTA_J == tuple(zip(*DELTA_J))
    assert not any(DELTA_J[i][j] for i in (2, 5) for j in range(6))
    j_rows = distinguished_flats(f3)[0].basis
    assert f3.kernel.rank(f3.kernel.matmul(j_rows, DELTA_J)) == 4
    basis = full_space(f3, 6).basis
    for i, u in enumerate(basis):
        assert [j_form(f3, u, w) for w in basis] == list(DELTA_J[i])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_delta_j_matches_the_matrix_null_space(q):
    # at q <= 3 on every subspace of J, against the oracle's points of J
    # under the form; above, on every line of J, against the null space
    f = field_of_order(q)
    for u in _subspaces_of_j(f):
        if q <= 3:
            assert delta_j(u) == oracle.subspace(f, oracle.delta_j(f, oracle.flat(u)))
        elif u.dim == 2:
            assert delta_j(u) == delta_j_by_matrix(u)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_polar_check_matches_the_matrix_form(q):
    # on every pair of J-lines of the X planes at q <= 3, on each X plane's
    # J-line against every J-line of a seeded sample above
    cat = build_catalog(field_of_order(q))
    lines = [cat.traces[m][0] for m in cat.g_x]
    rng = random.Random(61)
    others = lines if q <= 3 else rng.sample(lines, 20)
    hits = 0
    for line in lines:
        for image in others:
            want = polar_by_matrix(line, image)
            hits += want
            forms = [j_form(cat.field, u, w) for u in line.basis for w in image.basis]
            assert want is not any(forms)
    assert hits


def test_xi_report_makes_no_product(graph3, monkeypatch):
    # delta_J works on J's coordinates, and the polar check reads the form
    # off the trace rows
    xi_report(graph3)  # the traces and the J-line index are built
    calls = []
    real = Kernel.matmul

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(Kernel, "matmul", counted)
    assert xi_report(graph3)["skew_preserved_both_ways"] is True
    assert calls == []


@pytest.mark.parametrize("swap", ["x1 x2", "x4 x5"])
@pytest.mark.parametrize("q", [2, 3])
def test_delta_j_without_one_swap_fails_xi(q, swap, monkeypatch):
    from ternions.suites import VerifyContext, suite_remark

    def dropped(u):
        if swap == "x1 x2":
            rows = tuple((r[0], r[1], r[4], r[3]) for r in u.basis)
        else:
            rows = tuple((r[1], r[0], r[3], r[4]) for r in u.basis)
        return Subspace(u.field, 6, embed_j(u.field.kernel.nullspace(rows, 4)))

    monkeypatch.setattr(geometry, "delta_j", dropped)
    claims = {c["id"]: c["ok"] for c in suite_remark(VerifyContext(field_of_order(q)))}
    assert not (claims["remark:xi-bijection"] and claims["remark:xi-skew-pairs"])


def test_delta_j_reverses_inclusion(f2, f3):
    # on every subspace of J at q = 2 and on every pair of them at q = 3
    # that a seeded draw picks
    rng = random.Random(47)
    for f in (f2, f3):
        subs = _subspaces_of_j(f)
        image = {u: delta_j(u) for u in subs}
        j_solid = distinguished_flats(f)[0]
        for u in subs:
            assert image[u].dim == 4 - u.dim and contains(j_solid, image[u])
        pairs = product(subs, subs) if f.q == 2 else (rng.sample(subs, 2) for _ in range(2000))
        for u, v in pairs:
            if contains(u, v):
                assert contains(image[v], image[u])


def test_delta_j_sends_joins_to_meets(f2, f3):
    rng = random.Random(53)
    for f in (f2, f3):
        subs = _subspaces_of_j(f)
        for _ in range(500):
            u, v = rng.choice(subs), rng.choice(subs)
            assert delta_j(join(u, v)) == meet(delta_j(u), delta_j(v))


def test_delta_j_involution(f2, f3):
    # and it fixes L, so it permutes the lines of J meeting L in a point
    for f in (f2, f3):
        for u in _subspaces_of_j(f):
            assert delta_j(delta_j(u)) == u
        l_line = distinguished_flats(f)[2]
        assert delta_j(l_line) == l_line


@pytest.mark.parametrize("how", ["two planes to one", "onto a Y plane", "off the catalog"])
def test_xi_not_a_permutation_does_not_raise(how, graph2, monkeypatch):
    cat = graph2.catalog
    xs, real = cat.g_x, xi_map
    stray = {
        "two planes to one": real(xs[0], cat),
        "onto a Y plane": cat.g_y[0],
        "off the catalog": join(cat.l_line, cat.g_beta[0]),  # in J, on L
    }[how]
    assert (cat.type_of(stray) is None) == (how == "off the catalog")
    monkeypatch.setattr(geometry, "xi_map", lambda m, c: stray if m == xs[1] else real(m, c))
    rep = xi_report(graph2)
    assert rep["is_permutation"] is False
    assert rep["skew_preserved_both_ways"] is False


# -- export -----------------------------------------------------------------------


def test_graph_to_dot(graph2):
    text = graph_to_dot(graph2)
    lines = text.strip().splitlines()
    assert lines[0] == "graph adjacency {"
    assert lines[-1] == "}"
    vlines = [l for l in lines if "[type=" in l]
    elines = [l for l in lines if " -- " in l]
    assert len(vlines) == 21
    assert len(elines) == 66
    assert vlines[0].startswith("  v0 ")
    assert graph_to_dot(graph2) == text  # deterministic


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_graph_edges_match_neighbours_reference(q, request):
    # the slices of the trace groups, merged, list the edges that the
    # neighbour sets do, in the same order; the budget is checked first
    cat = request.getfixturevalue(f"cat{q}") if q <= 5 else build_catalog(field_of_order(q))
    graph = build_graph(cat)
    edges = graph_edges(graph)
    assert edges == edges_by_neighbours(graph)
    assert len(edges) == expected_edges(q)
    assert [len(gs) == 2 for gs in graph.vertex_groups] == [
        cat.type_of(v) is SubmoduleType.Y for v in graph.vertices
    ]
    small = build_graph(replace_fields(cat, budget=len(edges) - 1))
    with pytest.raises(BudgetError, match=f"enumerating {len(edges)} adjacency edges"):
        graph_edges(small)
    # groups cut into pairs put vertex 0 in many groups whose slices
    # interleave, which only the sort puts in order
    mate = min(graph.neighbours[0])
    far = min(set(range(graph.n)) - graph.neighbours[0] - {0})
    for cut in (regrouped(graph, remove=[(0, mate)]), regrouped(graph, add=[(0, far)])):
        assert graph_edges(cut) == edges_by_neighbours(cut)


def test_graph_to_json(graph3):
    data = graph_to_json(graph3)
    assert data["q"] == 3
    assert len(data["vertices"]) == 52
    assert len(data["edges"]) == 318
    for v in data["vertices"]:
        assert v["type"] in ("X", "Y")
        assert 0 <= v["class"] < 4
        assert len(v["basis"]) == 3
    for i, j in data["edges"]:
        assert graph3.are_adjacent(i, j)
