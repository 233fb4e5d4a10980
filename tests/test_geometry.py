import dataclasses
import random

import pytest
from conftest import incidence_counts

import ternions.geometry as geometry
from ternions.gf import automorphisms
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
    projective_points,
    projective_vectors,
)
from ternions.geometry import (
    adjacent,
    build_graph,
    certificate_from_counts,
    companion_y,
    count_geodesics,
    decompose_semilinear,
    distances_from,
    expected_cliques,
    expected_incidence_row,
    extract_automorphism,
    extract_recipe,
    first_failed_condition,
    graph_to_dot,
    graph_to_json,
    incidence_table,
    induced_collineation,
    k_trace_classes,
    make_recipe,
    maximal_cliques,
    no_duality_certificate,
    preserver_from_collineation,
    random_nonblock_invertible,
    random_recipe,
    scan_lines,
    scan_solids,
    verify_decomposition,
    verify_preserver,
    build_preserver,
    xi_map,
    xi_report,
    _fixes_j,
    _homothety_rows,
)
from ternions.model import TYPE_ORDER, SubmoduleType, block6_lift
from ternions.ternion import matrix_identity, random_invertible


# -- incidence ---------------------------------------------------------------


def test_incidence_rows_match_closed_forms(cat2, cat3):
    for cat in (cat2, cat3):
        q = cat.field.q
        for t in TYPE_ORDER:
            expect = expected_incidence_row(t, q)
            for p0 in cat.members(t):
                assert incidence_counts(p0, cat) == expect


def test_incidence_table_verdict(cat2):
    rep = incidence_table(cat2)
    assert rep["ok"] is True
    assert rep["first_mismatch"] is None
    assert rep["column_order"] == ["X", "Y", "alpha", "beta", "gamma"]
    assert rep["rows"]["X"] == [1, 0, 1, 2, 1]
    assert rep["rows"]["gamma"] == [6, 3, 1, 0, 1]


def _first_mismatch_reference(cat):
    for t in TYPE_ORDER:
        expect = expected_incidence_row(t, cat.field.q)
        for p0 in cat.members(t):
            got = incidence_counts(p0, cat)
            if got != expect:
                return {"type": t.value, "expected": expect, "got": got}
    return None


def _doctored(cat, how):
    if how == "drop a beta point":
        return dataclasses.replace(cat, g_beta=cat.g_beta[1:])
    if how == "move an X plane into g_y":
        return dataclasses.replace(cat, g_x=cat.g_x[1:], g_y=cat.g_y + cat.g_x[:1])
    return dataclasses.replace(cat, g_alpha=cat.g_alpha[1:])  # drop an alpha line


@pytest.mark.parametrize(
    "how", ["drop a beta point", "move an X plane into g_y", "drop an alpha line"]
)
@pytest.mark.parametrize("which", [2, 3])
def test_incidence_table_mismatch_matches_reference(which, how, cat2, cat3):
    # the point-index counts and the containment reference find the same
    # first bad member on catalogs that break the closed forms
    bad = _doctored({2: cat2, 3: cat3}[which], how)
    want = _first_mismatch_reference(bad)
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
    assert (graph2.n, graph2.edge_count()) == (21, 66)
    assert (graph3.n, graph3.edge_count()) == (52, 318)
    assert graph2.edge_count() == expected_edges(2)
    assert graph3.edge_count() == expected_edges(3)


@pytest.mark.parametrize("which", [2, 3, 4])
def test_graph_matches_stack_rank_reference(which, cat2, cat3, cat4):
    # the rank test the point masks replaced: two planes meet in a line
    # exactly when they span a solid
    cat = {2: cat2, 3: cat3, 4: cat4}[which]
    kern = cat.field.kernel
    verts = cat.planes
    nbrs = [set() for _ in verts]
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if kern.stack_rank(verts[i].basis, verts[j].basis) == 4:
                nbrs[i].add(j)
                nbrs[j].add(i)
    graph = build_graph(cat)
    assert graph.neighbours == tuple(frozenset(s) for s in nbrs)
    # and two planes share a point exactly when they span at most a hyperplane
    meets = [
        sum(
            1 << j
            for j, w in enumerate(verts)
            if j != i and kern.stack_rank(v.basis, w.basis) <= 5
        )
        for i, v in enumerate(verts)
    ]
    assert graph.meets == tuple(meets)


def test_vertex_order_and_types(graph2):
    cat = graph2.catalog
    assert graph2.vertices == cat.planes
    nx = len(cat.g_x)
    assert all(t is SubmoduleType.X for t in graph2.types[:nx])
    assert all(t is SubmoduleType.Y for t in graph2.types[nx:])
    for v, i in graph2.vindex.items():
        assert graph2.vertices[i] == v


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
            j for j in graph2.neighbours[i] if graph2.types[j] is SubmoduleType.Y
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


def test_clique_interval_content(cat2):
    for p in cat2.g_alpha:
        members = cat2.clique_intervals[p]
        assert len(members) == 7
        for z in members:
            assert contains(z, p)
            t = cat2.type_of(z)
            assert t in (SubmoduleType.X, SubmoduleType.Y)


# -- distances ---------------------------------------------------------------


def test_distances_q2(graph2):
    cat = graph2.catalog
    nx = len(cat.g_x)
    trace = {m: None for m in cat.g_x}
    for i, m in enumerate(cat.g_x):
        dist = distances_from(graph2, i)
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
        dist = distances_from(graph2, i)
        for j in range(i + 1, nx):
            if dist[j] == 3:
                found += 1
                d, n_paths = count_geodesics(graph2, i, j)
                assert (d, n_paths) == (3, 1)
    assert found > 0


def test_geodesic_is_companion_path(graph2):
    cat = graph2.catalog
    m1 = cat.g_x[0]
    i = graph2.vindex[m1]
    dist = distances_from(graph2, i)
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


def _sweep(cat, k):
    """Reference: every k-subspace of F^6 meeting each X plane in k/2
    dimensions (lines in a point, solids in a line), in key order."""
    return sorted(
        (s for s in enumerate_subspaces(cat.field, 6, k, budget=10**6)
         if all(meet_dim(s, m) == k // 2 for m in cat.g_x)),
        key=lambda s: s.key(),
    )


@pytest.mark.parametrize("which", [2, 3])
def test_anchored_scans_match_full_sweep(which, cat2, cat3):
    cat = {2: cat2, 3: cat3}[which]
    assert scan_lines(cat) == _sweep(cat, 2)
    assert scan_solids(cat) == _sweep(cat, 4)


def test_scan_budget_counts_anchored_candidates(cat2):
    # 7 x 7 = 49 candidate joins at q = 2
    assert len(scan_lines(cat2, budget=49)) == 3
    with pytest.raises(BudgetError, match="49"):
        scan_lines(cat2, budget=48)
    with pytest.raises(BudgetError, match="49"):
        scan_solids(cat2, budget=48)


def test_scan_needs_skew_anchor(cat2):
    lone = dataclasses.replace(cat2, g_x=cat2.g_x[:1])
    with pytest.raises(AssertionError, match="skew"):
        scan_lines(lone)
    with pytest.raises(AssertionError, match="skew"):
        scan_solids(lone)


def test_certificate_needs_unequal_counts():
    # q = 1 would give 2 = 2; the logical step alone cannot conclude
    degenerate = certificate_from_counts(2, 2)
    assert degenerate["duality_excluded"] is False
    assert certificate_from_counts(3, 2)["duality_excluded"] is True


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


def _reference_first_failed(f, cat):
    """Reference: apply f to J, to each quadric point and to each plane,
    row-reduce the image and look it up."""
    if f.apply(cat.j_solid) != cat.j_solid:
        return "iv"
    hpts = set(cat.quadric.points)
    if any(f.apply(p) not in hpts for p in cat.quadric.points):
        return "iv"
    gx = set(cat.g_x)
    if any(f.apply(m) not in gx for m in cat.g_x):
        return "iii"
    gxy = gx | set(cat.g_y)
    if any(f.apply(m) not in gxy for m in cat.g_y):
        return "ii"
    return None


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
    got = [_fixes_j(f) for f in maps]
    assert got == [f.apply(cat.j_solid) == cat.j_solid for f in maps]
    assert all(got[:100]) and all(got[200:])
    assert not all(got[100:200])


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
    assert got == [_reference_first_failed(f, cat) for f in maps]
    assert got[:200] == [None] * 200


def _moving_positive(cat, rng, planes):
    """A positive map and the image D != P of the first plane P it moves."""
    while True:
        f = _random_positive(cat, rng)
        img = f.apply(planes[0])
        if img != planes[0]:
            return f, img


@pytest.mark.parametrize("which", [2, 3, 4])
def test_doctored_catalogs_reach_iii_and_ii(which, cat2, cat3, cat4):
    # f sends a kept plane onto the dropped one, so the conditions on the
    # planes fail while iv, which reads only J and H, still holds
    cat = {2: cat2, 3: cat3, 4: cat4}[which]
    rng = random.Random(10 + which)
    f, img = _moving_positive(cat, rng, cat.g_x)
    no_x = dataclasses.replace(cat, g_x=tuple(m for m in cat.g_x if m != img))
    assert first_failed_condition(f, no_x) == _reference_first_failed(f, no_x) == "iii"
    as_y = dataclasses.replace(no_x, g_y=cat.g_y + (img,))
    assert first_failed_condition(f, as_y) == _reference_first_failed(f, as_y) == "iii"
    f, img = _moving_positive(cat, rng, cat.g_y)
    no_y = dataclasses.replace(cat, g_y=tuple(m for m in cat.g_y if m != img))
    assert first_failed_condition(f, no_y) == _reference_first_failed(f, no_y) == "ii"


@pytest.mark.parametrize("which", [2, 3])
def test_point_planes_index(which, cat2, cat3):
    cat = {2: cat2, 3: cat3}[which]
    q = cat.field.q
    masks = cat.point_planes
    for i, m in enumerate(cat.planes):
        on = {v for v, bits in masks.items() if bits >> i & 1}
        assert on == {p.basis[0] for p in projective_points(m)}
        assert len(on) == q * q + q + 1
    for v in projective_vectors(cat.field, 6):
        pt = Subspace(cat.field, 6, (v,))
        through = sum(1 for m in cat.planes if contains(m, pt))
        assert masks.get(v, 0).bit_count() == through


def test_random_nonblock_is_invertible_nonpattern(f3):
    from ternions.model import is_block6_patterned

    rng = random.Random(9)
    for _ in range(20):
        rows = random_nonblock_invertible(f3, rng)
        assert f3.kernel.rank(rows) == 6
        assert not is_block6_patterned(rows)


# -- decomposition --------------------------------------------------------------


def canonical_composite(cat, s, a, b, sigma):
    field = cat.field
    f1 = SemilinearMap(field, 6, full_space(field, 6).basis, sigma)
    f2 = SemilinearMap(field, 6, _homothety_rows(field, a, b), automorphisms(field)[0])
    f3 = block6_lift(s)
    return f3.compose(f2.compose(f1))


def test_decompose_identity(cat2):
    field = cat2.field
    ident = SemilinearMap(field, 6, full_space(field, 6).basis, automorphisms(field)[0])
    dec = decompose_semilinear(ident, cat2)
    assert dec.homothety_params == (0, 1)
    assert dec.f1.sigma.is_identity
    assert dec.module_map.matrix == matrix_identity(field)
    assert dec.module_map.unit.triple() == (1, 0, 1)
    assert verify_decomposition(ident, dec, random.Random(0))


def test_decompose_pure_frobenius(cat4):
    field = cat4.field
    frob = automorphisms(field)[1]
    f = SemilinearMap(field, 6, full_space(field, 6).basis, frob)
    dec = decompose_semilinear(f, cat4)
    assert dec.f1.sigma == frob
    assert dec.homothety_params == (0, 1)
    assert dec.f3.matrix == full_space(field, 6).basis
    assert verify_decomposition(f, dec, random.Random(1))


def test_decompose_recovers_canonical_params(cat2):
    rng = random.Random(11)
    field = cat2.field
    for _ in range(10):
        s = random_invertible(field, rng)
        a, b = rng.randrange(2), 1
        f = canonical_composite(cat2, s, a, b, automorphisms(field)[0])
        dec = decompose_semilinear(f, cat2)
        assert dec.homothety_params == (a, b)
        assert dec.module_map.matrix == s
        assert verify_decomposition(f, dec, rng)


def test_decompose_recovers_frobenius_composite(cat4):
    rng = random.Random(13)
    field = cat4.field
    frob = automorphisms(field)[1]
    s = random_invertible(field, rng)
    f = canonical_composite(cat4, s, 2, 3, frob)
    dec = decompose_semilinear(f, cat4)
    assert dec.homothety_params == (2, 3)
    assert dec.f1.sigma == frob
    assert dec.module_map.matrix == s
    assert verify_decomposition(f, dec, rng)


def test_decompose_rejects_non_admissible(cat2):
    f2 = cat2.field
    perm = [[0] * 6 for _ in range(6)]
    for i, j in enumerate([2, 1, 0, 3, 4, 5]):
        perm[i][j] = 1
    f = SemilinearMap(f2, 6, tuple(tuple(r) for r in perm), automorphisms(f2)[0])
    with pytest.raises(ValueError):
        decompose_semilinear(f, cat2)


def test_extract_automorphism(cat4):
    field = cat4.field
    for sigma in automorphisms(field):
        f = SemilinearMap(field, 6, full_space(field, 6).basis, sigma)
        assert extract_automorphism(f) == sigma


# -- adjacency preservers ---------------------------------------------------------


def test_random_recipe_builds_preserver(cat2, graph2):
    rng = random.Random(17)
    for _ in range(10):
        recipe = random_recipe(cat2, rng)
        mapping = build_preserver(recipe, cat2)
        assert verify_preserver(mapping, graph2)
        back = extract_recipe(mapping, cat2)
        assert back.mu == recipe.mu
        assert back.psi == recipe.psi


def test_make_recipe_rejects_bad_marked_element(cat2):
    rng = random.Random(19)
    recipe = random_recipe(cat2, rng)
    p0 = cat2.g_alpha[0]
    marked = join(p0, cat2.l_line)
    table = dict(recipe.psi[p0])
    # divert the marked Y plane to an X plane of the target clique
    other = next(z for z in table if z != marked)
    table[marked], table[other] = table[other], table[marked]
    bad_psi = {p: dict(d) for p, d in recipe.psi.items()}
    bad_psi[p0] = table
    with pytest.raises(ValueError):
        make_recipe(cat2, recipe.mu, bad_psi)


def test_make_recipe_rejects_non_permutation(cat2):
    rng = random.Random(23)
    recipe = random_recipe(cat2, rng)
    mu = dict(recipe.mu)
    mu[cat2.g_alpha[0]] = mu[cat2.g_alpha[1]]
    with pytest.raises(ValueError):
        make_recipe(cat2, mu, recipe.psi)


def test_swapping_across_cliques_breaks_preservation(cat2, graph2):
    rng = random.Random(29)
    mapping = build_preserver(random_recipe(cat2, rng), cat2)
    classes = k_trace_classes(cat2)
    ms = [members[0] for members in classes.values()]
    m1, m2 = ms[0], ms[1]
    bad = dict(mapping)
    bad[m1], bad[m2] = bad[m2], bad[m1]
    assert not verify_preserver(bad, graph2)


def test_preserver_from_collineation(cat2, graph2):
    rng = random.Random(31)
    s = random_invertible(cat2.field, rng)
    f = induced_collineation(s, automorphisms(cat2.field)[0])
    mapping = preserver_from_collineation(f, cat2)
    assert verify_preserver(mapping, graph2)
    recipe = extract_recipe(mapping, cat2)
    assert build_preserver(recipe, cat2) == mapping


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


def _xi_pairs_reference(cat, xi):
    """The pairwise loop xi_report replaced: whether skewness is kept both
    ways over all pairs of X planes, and the first adjacent pair whose
    images meet in a beta point."""
    xs = cat.g_x
    images = [xi(m, cat) for m in xs]
    beta = set(cat.g_beta)
    skew_ok = True
    witness = None
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            d = meet_dim(xs[i], xs[j])
            if witness is None and d == 2:
                cut = meet(images[i], images[j])
                if cut.dim == 1 and cut in beta:
                    witness = {"m1": xs[i], "m2": xs[j], "images_meet": cut}
            if (d == 0) != (meet_dim(images[i], images[j]) == 0):
                skew_ok = False
    return skew_ok, witness


@pytest.mark.parametrize("which", [2, 3])
def test_xi_report_matches_pairwise_reference(which, graph2, graph3):
    graph = {2: graph2, 3: graph3}[which]
    rep = xi_report(graph)
    want = _xi_pairs_reference(graph.catalog, xi_map)
    assert (rep["skew_preserved_both_ways"], rep["adjacency_witness"]) == want


def test_xi_swapped_images_break_skewness(graph2, monkeypatch):
    cat = graph2.catalog
    xs, real = cat.g_x, xi_map
    swap = {xs[0]: xs[1], xs[1]: xs[0]}

    def swapped(m, c):
        return real(swap.get(m, m), c)

    assert _xi_pairs_reference(cat, swapped)[0] is False
    monkeypatch.setattr(geometry, "xi_map", swapped)
    rep = xi_report(graph2)
    assert rep["is_permutation"] is True
    assert rep["skew_preserved_both_ways"] is False


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
