import json
import math
import random
from itertools import combinations

import pytest
from conftest import (
    FIELD_ORDERS,
    J_K_SWAP,
    clique_flags_by_neighbours,
    every_field,
    geodesics_by_neighbours,
    line_model_walk,
    random_nonblock_invertible,
    regrouped,
    replace_fields,
    run_suites,
    unit_orbit_normal_forms,
    with_orbit_lists,
)
from oracle import companion_y, expected_cliques

import ternions.geometry as geo
from ternions.cli import main
from ternions.gf import DEFAULT_MODULI, automorphisms, make_field, primitive_element
from ternions.linalg import BudgetError, SemilinearMap, Subspace
from ternions.model import standard_triple
from ternions.suites import (
    SUITE_NAMES,
    SUITES,
    VerifyContext,
    _clique_flags,
    _distance_detail,
    _generator_detail,
    _line_model_check,
    is_linear_involutive_antiautomorphism,
    summarize,
)
from ternions.ternion import (
    Ternion,
    TernionMatrix,
    enumerate_pairs,
    enumerate_ternions,
    iota,
    random_invertible,
    scale_left,
)


@pytest.fixture(scope="module")
def claims_q2(f2):
    ctx = VerifyContext(field=f2, seed=0)
    return run_suites(ctx, SUITE_NAMES)


def test_all_suites_pass_q2(claims_q2):
    bad = [c for c in claims_q2 if not c["ok"]]
    assert bad == []
    assert summarize(claims_q2)["ok"] is True


def test_claims_are_json_safe_and_ordered(claims_q2):
    # serializable, and suite blocks arrive in alphabetical order
    text = json.dumps(claims_q2, sort_keys=True)
    assert text
    suites_seen = [c["suite"] for c in claims_q2]
    boundaries = [s for i, s in enumerate(suites_seen) if i == 0 or suites_seen[i - 1] != s]
    assert boundaries == sorted(boundaries)
    assert set(suites_seen) == set(SUITE_NAMES)
    for c in claims_q2:
        assert set(c) == {"suite", "id", "ok", "detail"}


def test_determinism_same_seed(f3):
    a = run_suites(VerifyContext(field=f3, seed=7), ["thm1", "adjacency"])
    b = run_suites(VerifyContext(field=f3, seed=7), ["adjacency", "thm1"])
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_different_seed_changes_witness_payloads(f2):
    a = run_suites(VerifyContext(field=f2, seed=1), ["thm1"])
    b = run_suites(VerifyContext(field=f2, seed=2), ["thm1"])
    assert all(c["ok"] for c in a + b)
    # same claim ids either way
    assert [c["id"] for c in a] == [c["id"] for c in b]


def test_thm1_q5_default_params(cat5):
    ctx = VerifyContext(field=cat5.field, seed=0)
    ctx.catalog = cat5  # reuse the session catalog
    claims = run_suites(ctx, ["thm1"])
    assert [c["id"] for c in claims] == ["thm1:positive", "thm1:decompose", "thm1:negative"]
    assert all(c["ok"] for c in claims)
    assert claims[0]["detail"] == {
        "generators": {"elementary": 6, "diagonal": 3, "frobenius": 0, "homothety": 2},
        "exhaustive": True,
        "rests_on": ["chars:x", "chars:y"],
        "failures": 0,
        "first_failure": None,
    }
    assert claims[1]["detail"]["exhaustive"] is False
    assert claims[2]["detail"] == {
        "method": "stabilizer of the standard skew triple",
        "exhaustive": True,
        "rests_on": ["adj:cliques", "chars:x", "lem:transversal-solids", "thm1:positive"],
        "standard_triple_skew_x": True,
        "x_planes": 180,
        "j_lines": 180,
        "k_lines": 6,
        "factorisation_products": 36,
        "first_failure": None,
    }


def test_thm1_checks_conditions_on_the_generators_only(cat2, monkeypatch):
    """first_failed_condition runs once per generator of G0 (11 at q = 2):
    thm1:negative images no plane under any map."""
    real = geo.first_failed_condition
    calls = []

    def spy(f, cat):
        calls.append(f)
        return real(f, cat)

    monkeypatch.setattr(geo, "first_failed_condition", spy)
    ctx = VerifyContext(field=cat2.field, seed=0)
    ctx.catalog = cat2  # reuse the session catalog
    claims = run_suites(ctx, ["thm1"])
    assert all(c["ok"] for c in claims)
    assert len(calls) == 11


def test_thm1_runs_no_scan_and_builds_no_graph(cat3, monkeypatch):
    def refuse(*args):
        raise AssertionError("thm1 must not need this")

    for name in ("_anchored_scan", "build_graph"):
        monkeypatch.setattr(geo, name, refuse)
    ctx = VerifyContext(field=cat3.field, seed=0)
    ctx.catalog = cat3  # reuse the session catalog
    assert all(c["ok"] for c in run_suites(ctx, ["thm1"]))


def test_decompose_checks_the_parameters_of_the_identity(cat3, monkeypatch):
    # a read-off that returns the identity as the scalar unit 2 and the
    # matrix 2^-1: the same module map, so its round trip holds, but not
    # the parameters (1, 0, 1) the identity was built from
    field = cat3.field
    identity = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    real = geo.decompose_semilinear

    def misread(f, cat):
        if f.matrix != identity:
            return real(f, cat)
        half, zero = Ternion(field, 2, 0, 2), Ternion(field, 0, 0, 0)  # 2 * 2 = 1 at q = 3
        return geo.ModuleMap(f.sigma, half, TernionMatrix(half, zero, zero, half))

    monkeypatch.setattr(geo, "decompose_semilinear", misread)
    ctx = VerifyContext(field=field, seed=0)
    ctx.catalog = cat3  # reuse the session catalog
    decompose = run_suites(ctx, ["thm1"])[1]
    assert decompose["id"] == "thm1:decompose" and decompose["ok"] is False
    assert decompose["detail"] == {
        "maps_decomposed": 12,
        "exhaustive": False,
        "round_trip_failures": 0,
        "parameter_mismatches": 1,
    }


@pytest.mark.parametrize(
    "name, points, h",
    [
        ("adjacency", False, False),
        ("counts", True, True),
        ("incidence", True, False),
        ("lemmas", False, True),
        ("remark", True, False),
        ("thm1", False, True),
        ("thm2", False, True),
    ],
)
def test_each_suite_builds_the_points_and_h_only_if_it_reads_them(name, points, h, f3):
    # the beta and gamma points, and the quadric H, are built on first read
    ctx = VerifyContext(field=f3, seed=0)
    SUITES[name](ctx)
    built = ctx.catalog.__dict__
    assert ("_points" in built, "quadric" in built) == (points, h)


@pytest.mark.parametrize("which", [2, 3])
def test_one_verify_tests_the_standard_triple_once(which, f2, f3, monkeypatch):
    # the scans, the scans' guard and thm1:negative read one verdict; each
    # test of the triple builds it once
    import ternions.model as model

    field = {2: f2, 3: f3}[which]
    real = model.standard_triple
    calls = []

    def spy(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(model, "standard_triple", spy)
    claims = run_suites(VerifyContext(field=field, seed=0), SUITE_NAMES)
    assert all(c["ok"] for c in claims) and len(claims) == 26
    assert calls == [field]


def _negative(cat):
    ctx = VerifyContext(field=cat.field, seed=0)
    ctx.catalog = cat
    negative = run_suites(ctx, ["thm1"])[2]
    assert negative["id"] == "thm1:negative"
    return negative


@pytest.mark.parametrize("which", [2, 3])
def test_negative_names_a_factor_that_swaps_j_and_k(which, cat2, cat3, monkeypatch):
    cat = {2: cat2, 3: cat3}[which]
    field = cat.field
    swap = SemilinearMap(field, 6, J_K_SWAP, automorphisms(field)[0])
    assert swap.apply(cat.j_solid) == cat.k_solid and swap.apply(cat.k_solid) == cat.j_solid
    real = geo._homothety_rows

    def doctored(a, b):
        return field.kernel.matmul(real(a, b), J_K_SWAP)

    monkeypatch.setattr(geo, "_homothety_rows", doctored)
    negative = _negative(cat)
    assert negative["ok"] is False
    assert negative["detail"]["first_failure"] == "factorisation"


@pytest.mark.parametrize("which", [2, 3])
def test_negative_names_a_standard_plane_outside_x(which, cat2, cat3):
    cat = {2: cat2, 3: cat3}[which]
    field = cat.field
    m2 = Subspace(field, 6, ((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)))
    assert m2 in cat.g_x
    doctored = replace_fields(cat, g_x=tuple(m for m in cat.g_x if m != m2))
    negative = _negative(doctored)
    assert negative["ok"] is False
    detail = negative["detail"]
    assert detail["first_failure"] == "standard_triple"
    assert detail["standard_triple_skew_x"] is False


@pytest.mark.parametrize("which", [2, 3])
@pytest.mark.parametrize("premise", ["j_lines", "k_lines"])
def test_negative_names_a_doctored_line_count(premise, which, cat2, cat3):
    # every plane gets one of its two lines as both traces: its K-line
    # leaves q+1 J-lines, its J-line makes n_x K-lines, and with as many
    # K-lines as J-lines a swap of J and K is no longer excluded
    cat = {2: cat2, 3: cat3}[which]
    keep = int(premise == "j_lines")
    doctored = replace_fields(cat)
    doctored.traces = {m: (t[keep], t[keep]) for m, t in cat.traces.items()}
    negative = _negative(doctored)
    assert negative["ok"] is False
    detail = negative["detail"]
    assert detail["first_failure"] == premise
    assert detail["j_lines"] == detail["k_lines"] == (cat.field.q + 1 if keep else len(cat.g_x))


def _random_positive_failures(cat, rng, n):
    """The sampled check `thm1:positive` made before it went by generators:
    n random maps induced by GL2(T) x Aut(F), counting those that fail."""
    autos = automorphisms(cat.field)
    failures = 0
    for _ in range(n):
        f = geo.induced_collineation(random_invertible(cat.field, rng), rng.choice(autos))
        if geo.first_failed_condition(f, cat) is not None:
            failures += 1
    return failures


@pytest.mark.parametrize("which", [2, 3, 4])
def test_random_positives_pass(which, cat2, cat3, cat4):
    cat = {2: cat2, 3: cat3, 4: cat4}[which]
    assert _random_positive_failures(cat, random.Random(which), 50) == 0


@pytest.mark.parametrize("which", [2, 4])
def test_planted_failing_generator_is_named(which, cat2, cat4, monkeypatch):
    cat = {2: cat2, 4: cat4}[which]
    field = cat.field
    rng = random.Random(3)
    sigma = automorphisms(field)[-1]
    while True:
        bad = SemilinearMap(field, 6, random_nonblock_invertible(field, rng), sigma)
        if geo.first_failed_condition(bad, cat) == "iv":
            break
    real = geo.g0_generators

    def planted(f):
        gens = real(f)
        gens["diagonal"].insert(1, bad)
        return gens

    monkeypatch.setattr(geo, "g0_generators", planted)
    ctx = VerifyContext(field=field, seed=0)
    ctx.catalog = cat  # reuse the session catalog
    positive = run_suites(ctx, ["thm1"])[0]
    assert positive["id"] == "thm1:positive" and positive["ok"] is False
    detail = positive["detail"]
    assert detail["first_failure"] == {"kind": "diagonal", "index": 1}
    assert detail["failures"] == 1
    assert detail["generators"]["diagonal"] == 4
    assert detail["exhaustive"] is True


def test_incidence_and_remark_exhaustive_q5(cat5):
    ctx = VerifyContext(field=cat5.field, seed=0)
    ctx.catalog = cat5  # reuse the session catalog
    claims = {c["id"]: c for c in run_suites(ctx, ["incidence", "remark"])}
    assert all(c["ok"] for c in claims.values())
    assert claims["incidence:table"]["detail"]["sample_per_type"] is None
    skew = claims["remark:xi-skew-pairs"]["detail"]
    assert skew == {  # 180 X planes
        "pairs_checked": 16110,
        "exhaustive": True,
        "method": "J-lines under the correlation of J",
    }


def _distance_detail_by_bfs(graph, comp):
    """Reference for the `adj:distance` flags: one BFS over the neighbour
    sets per X plane, and the geodesic count of each distance-3 pair at
    q = 2."""
    n_x = len(comp)
    nbrs = graph.neighbours

    def adj(i, j):
        return j in nbrs[i]

    connected = dist_ok = via_ok = unique_ok = y_dist_ok = True
    check_unique = graph.catalog.field.q == 2
    for i in range(n_x):
        dist, paths = geodesics_by_neighbours(nbrs, i)
        if any(d < 0 for d in dist):
            connected = False
        ci = comp[i]
        for j in range(i + 1, n_x):
            d = dist[j]
            if d not in (1, 3):
                dist_ok = False
            if d == 3:
                cj = comp[j]
                if not (adj(i, ci) and adj(ci, cj) and adj(cj, j)):
                    via_ok = False
                if check_unique and paths[j] != 1:
                    unique_ok = False
        for j in range(n_x, graph.n):
            if j != ci and dist[j] != 2:
                y_dist_ok = False
    return {
        "connected": connected,
        "xx_distances_in_1_3": dist_ok,
        "companion_path_geodesic": via_ok,
        "unique_geodesic_checked": check_unique,
        "unique_geodesic": unique_ok,
        "noncompanion_y_at_2": y_dist_ok,
    }


@pytest.mark.parametrize("which", [2, 3])
def test_distance_detail_matches_bfs(which, graph2, graph3):
    # where the generators are verified preservers transitive on the X
    # planes, the one-BFS flags equal the one-BFS-per-X-plane reference;
    # elsewhere the claim fails
    graph = {2: graph2, 3: graph3}[which]
    cat = graph.catalog
    n_x = len(cat.g_x)
    comp = [graph.vindex[companion_y(m, cat)] for m in cat.g_x]
    nbrs = graph.neighbours
    mate = min(j for j in nbrs[0] if j < n_x)
    far = min(j for j in range(1, n_x) if j not in nbrs[0])
    cases = {
        "as built": graph,
        "X-X edge removed": regrouped(graph, remove=[(0, mate)]),
        "companion edge removed": regrouped(graph, remove=[(0, comp[0])]),
        "every companion edge removed": regrouped(graph, remove=list(enumerate(comp))),
        "edge across cliques": regrouped(graph, add=[(0, far)]),
        "companion edge moved across cliques": regrouped(
            graph, remove=[(comp[0], comp[far])], add=[(0, far)]
        ),
        "second Y neighbour": regrouped(graph, add=[(0, comp[far])]),
        "Y plane cut off": regrouped(graph, remove=[(graph.n - 1, j) for j in nbrs[-1]]),
    }
    conditions = {
        "connected",
        "xx_distances_in_1_3",
        "companion_path_geodesic",
        "unique_geodesic",
        "noncompanion_y_at_2",
    }
    failing = set()
    for name, g in cases.items():
        transitive = _generator_detail(g)[1]
        got = _distance_detail(g, comp, transitive)
        want = _distance_detail_by_bfs(g, comp)
        assert got["unique_geodesic_checked"] is (which == 2)
        assert got["transitive_on_x"] is transitive
        # the doctoring of every companion edge commutes with the recipes
        assert transitive is (name in ("as built", "every companion edge removed")), name
        if transitive:
            assert {k: v for k, v in got.items() if k != "transitive_on_x"} == want, name
        claim_ok = all(v for k, v in got.items() if k != "unique_geodesic_checked")
        assert claim_ok is (name == "as built"), name
        failing |= {key for key in conditions if not want[key]}
        if name == "as built":
            assert not failing
    # every condition that is checked is broken by some case
    assert failing == (conditions if which == 2 else conditions - {"unique_geodesic"})


def _clique_flags_by_edges(nbrs, cliques):
    """Reference for `_clique_flags`: the per-edge loop, with each edge
    assigned to the last expected clique that contains it."""
    all_cliques = all(j in nbrs[i] for c in cliques for i, j in combinations(sorted(c), 2))
    edge_clique = {}
    for ci, c in enumerate(cliques):
        for i, j in combinations(sorted(c), 2):
            edge_clique[(i, j)] = ci
    coverage = all((i, j) in edge_clique for i in range(len(nbrs)) for j in nbrs[i] if i < j)
    closure = all(
        nbrs[i] & nbrs[j] == cliques[ci] - {i, j} for (i, j), ci in edge_clique.items()
    )
    return all_cliques, coverage, closure


@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_clique_flags_match_edge_reference(which, cat2, cat3, cat4, cat5):
    cat = {2: cat2, 3: cat3, 4: cat4, 5: cat5}[which]
    graph = geo.build_graph(cat)
    n_x = len(cat.g_x)
    cliques = [frozenset(graph.vindex[s] for s in c) for c in expected_cliques(cat)]
    comp = [graph.vindex[companion_y(m, cat)] for m in cat.g_x]
    nbrs = graph.neighbours
    mate = min(j for j in nbrs[0] if j < n_x)
    far = min(j for j in range(1, n_x) if j not in nbrs[0])
    big = max(cliques, key=len)
    a, b = sorted(big)[:2]
    split = [c for c in cliques if c != big] + [big - {a}, big - {b}]
    cases = {
        "as built": (graph, cliques),
        "X-X edge removed": (regrouped(graph, remove=[(0, mate)]), cliques),
        "edge across cliques": (regrouped(graph, add=[(0, far)]), cliques),
        "second Y neighbour": (regrouped(graph, add=[(0, comp[far])]), cliques),
        "vertex joined to two clique members": (
            regrouped(graph, add=[(far, 0), (far, mate)]),
            cliques,
        ),
        "clique split in two": (graph, split),
        "clique dropped": (graph, cliques[1:]),
    }
    broken = set()
    for name, (g, cs) in cases.items():
        got = _clique_flags(g, cs)
        want = clique_flags_by_neighbours(g.neighbours, cs)
        edges = _clique_flags_by_edges(g.neighbours, cs)
        # all_cliques and closure are exact; coverage ("every group lies in
        # an expected clique") is "every edge does" where closure holds
        assert (got[0], got[2]) == (want[0], want[2]), name
        assert got[1] == want[1] or not want[2], name
        assert all(got) == all(want) == all(edges), name
        if got[0]:
            assert want[2] == edges[2], name
        assert want[1] == edges[1], name
        broken |= {flag for flag, ok in zip(("cliques", "coverage", "closure"), got) if not ok}
        assert all(got) is (name == "as built"), name
    assert broken == {"cliques", "coverage", "closure"}


def test_adjacency_reads_the_stored_alpha_lines(cat3):
    # one X plane's stored alpha line replaced by another regulus line: the
    # classes are read off the stored lines, so adj:k-trace and adj:classes
    # see it, and the suite still runs to the end
    m = cat3.g_x[0]
    j_line, alpha_line = cat3.traces[m]
    other = next(p for p in cat3.g_alpha if p != alpha_line)
    doctored = replace_fields(cat3)
    doctored.traces = {**cat3.traces, m: (j_line, other)}
    ctx = VerifyContext(field=cat3.field, seed=0)
    ctx.catalog = doctored
    claims = {c["id"]: c for c in run_suites(ctx, ["adjacency"])}
    assert claims["adj:classes"]["ok"] is False
    assert claims["adj:k-trace"]["ok"] is False
    assert claims["adj:k-trace"]["detail"]["class_sizes"] == [11, 12, 12, 13]


def test_adjacency_runs_one_bfs_and_no_plane_compares(cat3, graph3, monkeypatch):
    starts = []
    bfs = geo.geodesics_from
    monkeypatch.setattr(geo, "geodesics_from", lambda g, s: starts.append(s) or bfs(g, s))
    ctx = VerifyContext(field=cat3.field, seed=0)
    ctx.catalog, ctx.graph = cat3, graph3  # reuse the session catalog and graph
    claims = run_suites(ctx, ["adjacency"])
    assert all(c["ok"] for c in claims)
    assert starts == [0]
    # the generator path works on vertex indices: no plane is compared
    graph3.cliques  # the one place planes are looked up
    compares = []
    eq = Subspace.__eq__
    monkeypatch.setattr(Subspace, "__eq__", lambda a, b: compares.append(1) or eq(a, b))
    detail, transitive = _generator_detail(graph3)
    assert transitive and detail["first_failure"] is None
    assert compares == []


def _closure(gens):
    """The permutation group generated by the tuples gens."""
    ident = tuple(range(len(gens[0])))
    seen, todo = {ident}, [ident]
    while todo:
        p = todo.pop()
        for g in gens:
            r = tuple(g[i] for i in p)
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return seen


@pytest.mark.parametrize("which", [2, 3])
def test_recipe_generators_generate_the_recipe_group(which, graph2, graph3):
    # the wreath-product argument in pieces: the clique generators act on
    # the cliques as Sym(q+1), the plane generators on the non-marked
    # members of clique 0 as Sym(q^2+q) (closed at q = 2 only: 6! = 720),
    # and the group reaches every X plane from X plane 0
    graph = {2: graph2, 3: graph3}[which]
    q = graph.catalog.field.q
    members, marked = graph.cliques
    gens = geo.recipe_generators(graph)
    assert list(gens) == [
        "clique transposition",
        "clique cycle",
        "plane transposition",
        "plane cycle",
    ]
    assert all(geo.is_recipe(perm, graph) for perm in gens.values())
    on_cliques = [
        tuple(marked.index(gens[k][y]) for y in marked)
        for k in ("clique transposition", "clique cycle")
    ]
    assert len(_closure(on_cliques)) == math.factorial(q + 1)
    x = sorted(members[0] - {marked[0]})
    assert len(x) == q * q + q
    on_x = []
    for k in ("plane transposition", "plane cycle"):
        perm = gens[k]
        assert all(perm[z] == z for c in members[1:] for z in c)
        assert perm[marked[0]] == marked[0]
        on_x.append(tuple(x.index(perm[z]) for z in x))
    if q == 2:
        assert len(_closure(on_x)) == 720
    orbit, todo = {0}, [0]
    while todo:
        v = todo.pop()
        new = {perm[v] for perm in gens.values()} - orbit
        orbit |= new
        todo.extend(new)
    assert orbit == set(range(len(graph.catalog.g_x)))
    assert _generator_detail(graph)[1] is True


@pytest.mark.parametrize("which", [2, 3])
def test_planted_failing_recipe_generator_is_named(which, graph2, graph3):
    graph = {2: graph2, 3: graph3}[which]
    members, marked = graph.cliques
    rest = [sorted(c - {y}) for c, y in zip(members, marked)]
    cases = {
        # one edge gone from clique 0: moving clique 0 onto clique 1 fails
        "clique transposition": [(rest[0][0], rest[0][1])],
        # the same edge gone from every clique: only the plane cycle,
        # which moves it inside clique 0, fails
        "plane cycle": [(r[0], r[1]) for r in rest],
    }
    for name, remove in cases.items():
        ctx = VerifyContext(field=graph.catalog.field, seed=0)
        ctx.catalog, ctx.graph = graph.catalog, regrouped(graph, remove=remove)
        claims = {c["id"]: c for c in run_suites(ctx, ["adjacency"])}
        detail = claims["adj:preservers"]["detail"]
        assert claims["adj:preservers"]["ok"] is False
        assert detail["first_failure"] == name
        assert detail["two_way_preservation"] is False
        assert detail["exhaustive"] is True
        assert claims["adj:distance"]["ok"] is False
        assert claims["adj:distance"]["detail"]["transitive_on_x"] is False


def test_distance_fails_without_transitive_generators(cat3, graph3, monkeypatch):
    # with only the plane generators, which fix every clique but clique 0,
    # the preservers still pass but the distances are no longer proved
    real = geo.recipe_generators
    monkeypatch.setattr(
        geo, "recipe_generators", lambda g: {k: v for k, v in real(g).items() if "plane" in k}
    )
    ctx = VerifyContext(field=cat3.field, seed=0)
    ctx.catalog, ctx.graph = cat3, graph3  # reuse the session catalog and graph
    claims = {c["id"]: c for c in run_suites(ctx, ["adjacency"])}
    assert claims["adj:preservers"]["ok"] is True
    assert claims["adj:preservers"]["detail"]["generators"] == ["plane transposition", "plane cycle"]
    assert claims["adj:distance"]["ok"] is False
    detail = claims["adj:distance"]["detail"]
    assert detail["transitive_on_x"] is False
    others = ("connected", "xx_distances_in_1_3", "companion_path_geodesic", "noncompanion_y_at_2")
    assert all(detail[k] for k in others)


def test_collineation_preserver_off_recipe_form_fails_without_raising(graph2, monkeypatch, capsys):
    # a collineation preserver with an X plane of clique 0 swapped with one
    # of clique 1 is no recipe permutation: `adj:preservers` fails and
    # verify exits 1, not 2 as on a usage error
    members, marked = graph2.cliques
    a, b = min(members[0] - {marked[0]}), min(members[1] - {marked[1]})
    real = geo.preserver_from_collineation

    def swapped(f, graph):
        perm = list(real(f, graph))
        perm[a], perm[b] = perm[b], perm[a]
        return tuple(perm)

    monkeypatch.setattr(geo, "preserver_from_collineation", swapped)
    ctx = VerifyContext(field=graph2.catalog.field, seed=0)
    ctx.catalog, ctx.graph = graph2.catalog, graph2  # reuse the session catalog and graph
    claims = {c["id"]: c for c in run_suites(ctx, ["adjacency"])}
    detail = claims["adj:preservers"]["detail"]
    assert claims["adj:preservers"]["ok"] is False
    assert detail["collineation_round_trip"] is False
    assert detail["first_failure"] is None and detail["extraction_round_trip"] is True
    assert main(["verify", "--q", "2", "--seed", "0", "--suite", "adjacency"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("which", [2, 3])
def test_xi_fails_without_raising_when_an_x_plane_is_missing(which, cat2, cat3):
    # with the last X plane dropped from the catalog, some X plane has no
    # image under xi: xi is no permutation and the skew check fails, while
    # the other two remark claims still pass
    cat = {2: cat2, 3: cat3}[which]
    ctx = VerifyContext(field=cat.field, seed=0)
    ctx.catalog = replace_fields(cat, g_x=cat.g_x[:-1])
    claims = {c["id"]: c["ok"] for c in run_suites(ctx, ["remark"])}
    assert claims == {
        "remark:antiauto": True,
        "remark:xi-bijection": False,
        "remark:xi-breaks-adjacency": True,
        "remark:xi-skew-pairs": False,
    }


# Per case, the orbit list short of one member, the member dropped and the
# adjacency claims that fail without it.  The last X plane leaves its
# clique [P, P+J]_3 short; the first Y plane is the marked plane of a
# clique, a companion and a member of [L, K]_3.  m0, m1 and m2 are the X
# planes of the standard triple that anchors the scans: without one of
# them the scan claims and thm1:negative, which rests on the triple, fail
# as well.
SHORT_CLIQUE = {"k-trace", "classes", "cliques", "distance", "preservers"}
DROPPED = {
    "g_x": ("g_x", lambda cat: cat.g_x[-1], SHORT_CLIQUE),
    "g_y": ("g_y", lambda cat: cat.g_y[0], {"companion", "cliques", "distance", "preservers"}),
    "g_alpha": ("g_alpha", lambda cat: cat.g_alpha[0], SHORT_CLIQUE),
    "g_beta": ("g_beta", lambda cat: cat.g_beta[0], set()),
    "g_gamma": ("g_gamma", lambda cat: cat.g_gamma[0], set()),
    **{
        f"m{i}": ("g_x", lambda cat, i=i: standard_triple(cat.field)[i], SHORT_CLIQUE)
        for i in range(3)
    },
}
TRIPLE_CLAIMS = {"lem:transversal-lines", "lem:transversal-solids", "thm1:negative", "thm2:no-duality"}


@pytest.mark.parametrize("dropped", list(DROPPED))
@pytest.mark.parametrize("which", [2, 3])
def test_every_suite_fails_without_raising_on_a_catalog_short_of_a_member(
    which, dropped, cat2, cat3
):
    cat = {2: cat2, 3: cat3}[which]
    orbit, member, adjacency_failures = DROPPED[dropped]
    m = member(cat)
    ctx = VerifyContext(field=cat.field, seed=0)
    ctx.catalog = with_orbit_lists(cat, **{orbit: tuple(p for p in getattr(cat, orbit) if p != m)})
    claims = {c["id"]: c for c in run_suites(ctx, SUITE_NAMES)}
    assert claims["counts:orbit-sizes"]["ok"] is False
    failed = {cid[4:] for cid, c in claims.items() if cid.startswith("adj:") and not c["ok"]}
    assert failed == adjacency_failures
    triple_short = dropped.startswith("m")
    for cid in TRIPLE_CLAIMS:
        assert claims[cid]["ok"] is not triple_short
        assert claims[cid]["detail"].get("standard_triple_skew_x", True) is not triple_short
    assert len(claims) == 26


@pytest.mark.parametrize("which", [2, 3])
def test_classes_fail_when_a_clique_lacks_its_marked_plane_and_an_x_plane(which, cat2, cat3):
    # both missing planes are None in the clique's vertex set, so without
    # its size the clique minus its marked plane would match the short class
    cat = {2: cat2, 3: cat3}[which]
    y = cat.g_y[0]
    x = next(m for m in reversed(cat.g_x) if cat.traces[m][1] == cat.traces[y][1])
    ctx = VerifyContext(field=cat.field, seed=0)
    ctx.catalog = replace_fields(cat, g_x=tuple(m for m in cat.g_x if m != x), g_y=cat.g_y[1:])
    claims = {c["id"]: c["ok"] for c in run_suites(ctx, ["adjacency"])}
    assert claims == {
        "adj:k-trace": False,
        "adj:classes": False,
        "adj:companion": False,
        "adj:cliques": False,
        "adj:distance": False,
        "adj:preservers": False,
    }


# Each stage guard at q = 2, just below and at its count: 15 + 3 x 8 = 39
# normal forms for the catalog, 3 x C(7, 2) + C(3, 2) = 66 adjacency edges
# where the graph's neighbour sets are built, and 2 x 21 plane traces, the
# largest count the incidence table needs now that it lists no J-line
# points.
@pytest.mark.parametrize(
    "stage,count",
    [
        ("catalog", 39),
        ("graph", 66),
        ("incidence", 42),
    ],
)
def test_stage_guard_at_its_count(stage, count, f2):
    def run(budget):
        ctx = VerifyContext(field=f2, budget=budget)
        if stage == "incidence":
            return run_suites(ctx, ["incidence"])
        if stage == "graph":
            return ctx.graph.neighbours
        return ctx.catalog

    with pytest.raises(BudgetError, match=f"enumerating {count} "):
        run(count - 1)
    run(count)


@pytest.mark.parametrize("q", [2, 4])
def test_verify_reads_neighbour_sets_only_for_bron_kerbosch(q, monkeypatch, capsys):
    # every suite reads the trace groups; only the Bron-Kerbosch cross-check
    # of `adj:cliques`, run at q <= 3, lists the edges
    reads = []
    real = geo.AdjacencyGraph.neighbours.func
    monkeypatch.setattr(
        geo.AdjacencyGraph, "neighbours", property(lambda g: reads.append(1) or real(g))
    )
    bk = geo.maximal_cliques
    monkeypatch.setattr(geo, "maximal_cliques", lambda g: reads.append("bk") or bk(g))
    assert main(["verify", "--q", str(q), "--seed", "0"]) == 0
    capsys.readouterr()
    if q == 2:
        assert reads[0] == "bk" and set(reads[1:]) == {1}
    else:
        assert reads == []


def test_unknown_suite_raises(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--suite", "nonsense"])
    assert exc.value.code == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


def test_single_suite_q3(f3):
    ctx = VerifyContext(field=f3, seed=0)
    claims = run_suites(ctx, ["counts"])
    assert all(c["ok"] for c in claims)
    ids = [c["id"] for c in claims]
    assert "counts:orbit-sizes" in ids
    assert any(i.startswith("chars:") for i in ids)


def test_summarize_counts():
    claims = [
        {"suite": "s", "id": "a", "ok": True, "detail": {}},
        {"suite": "s", "id": "b", "ok": False, "detail": {}},
    ]
    s = summarize(claims)
    assert s == {"claims": 2, "passed": 1, "failed": 1, "ok": False}


def _antiauto_all_pairs(field, anti):
    """Reference: additivity and reversal on all q^6 pairs, involutivity on
    all q^3 elements.  Over a prime field additivity is linearity."""
    elements = list(enumerate_ternions(field))
    for s in elements:
        if anti(anti(s)) != s:
            return False
        for t in elements:
            if anti(s * t) != anti(t) * anti(s) or anti(s + t) != anti(s) + anti(t):
                return False
    return True


@pytest.mark.parametrize("q", [2, 3, 5])
def test_antiauto_by_bilinearity_matches_all_pairs(q):
    f = make_field(q, 1)
    maps = {
        "iota": iota,
        "identity": lambda t: t,
        "iota, y scaled by -1": lambda t: Ternion(f, t.z, f.neg(t.y), t.x),
        "iota, y scaled by 2": lambda t: Ternion(f, t.z, f.mul(2 % q, t.y), t.x),
        "iota, y -> y + x": lambda t: Ternion(f, t.z, f.add(t.y, t.x), t.x),
        "iota, y squared": lambda t: Ternion(f, t.z, f.mul(t.y, t.y), t.x),
        "x <-> y": lambda t: Ternion(f, t.y, t.x, t.z),
    }
    got = {name: is_linear_involutive_antiautomorphism(f, m) for name, m in maps.items()}
    assert got == {name: _antiauto_all_pairs(f, m) for name, m in maps.items()}
    assert got["iota"] and not got["identity"] and not got["iota, y -> y + x"]
    # reverses products but is not involutive where 2^2 != 1
    assert got["iota, y scaled by 2"] is (q == 3)


# mutations of the code `model.unit_invariance` reads, each a linear (the
# determinants: quadratic) stand-in for a function of `ternions.model`


def _det_without_b22_a12(v):
    a, b = v
    return a.field.mul(a.z, b.y)


def _det_plus_a22_a12(v):
    a, b = v
    f = a.field
    return f.add(f.sub(f.mul(a.z, b.y), f.mul(b.z, a.y)), f.mul(a.z, a.y))


def _unimodular_rows_with_a22_in_a_e12(v):
    a, b = v
    return ((a.x, 0, 0), (0, a.x, a.z), (0, a.y, a.z), (b.x, 0, 0), (0, b.x, 0), (0, b.y, b.z))


def _span_rows_with_b12_in_e12_w(v):
    a, b = v
    return ((a.x, a.y, 0, b.x, b.y, 0), (0, a.z, 0, 0, b.y, 0), (0, 0, a.z, 0, 0, b.z))


def _scale_left_without_y(t, v):
    return scale_left(Ternion(t.field, t.x, 0, t.z), v)


def test_classifier_walk_catches_orbit_dependence(cat2, monkeypatch):
    # a classify and an is_unimodular that are right on every normal form,
    # so on every witness, but not constant on unit orbits: the determinant
    # plus a22 a12 (zero on every normal form), and unimodular rows with
    # a22 in the last slot of a e12.  Only the identities of
    # `unit_invariance` see them
    import ternions.model as model
    from ternions.suites import _classifier_walk

    f = cat2.field
    normal_forms = list(unit_orbit_normal_forms(f))
    pairs = list(enumerate_pairs(f))
    assert _classifier_walk(cat2)[:2] == (0, 0)
    for name, wrong, reader, counter in (
        ("_det", _det_plus_a22_a12, model.classify, 0),
        ("_unimodular_rows", _unimodular_rows_with_a22_in_a_e12, model.is_unimodular, 1),
    ):
        right = {v: reader(v) for v in pairs}
        with monkeypatch.context() as m:
            m.setattr(model, name, wrong)
            assert all(reader(v) == right[v] for v in normal_forms)
            assert any(reader(v) != right[v] for v in pairs)
            counts = _classifier_walk(cat2)[:2]
        assert counts[counter] > 0 and counts[1 - counter] == 0, name


def test_classifier_walk_catches_a_span_wrong_off_normal_forms(cat2, monkeypatch):
    # the walk reads the catalog's spans and builds no span of its own: a
    # span builder that reads b12 where e12 w has b22 reaches the walk only
    # through the identity _span_rows(u v) = R(u) _span_rows(v), and fails
    # it.  No edit of one or two entries of the rows keeps every normal
    # form's span and changes another's, so the stand-in is wrong on normal
    # forms too, but the walk never builds their spans
    import ternions.model as model
    from ternions.suites import _classifier_walk

    f = cat2.field
    assert any(
        f.kernel.rref(_span_rows_with_b12_in_e12_w(v)) != model.cyclic_span(v).basis
        for v in enumerate_pairs(f)
    )
    monkeypatch.setattr(model, "_span_rows", _span_rows_with_b12_in_e12_w)
    mismatches, unimod_bad, _ = _classifier_walk(cat2)
    assert mismatches > 0 and unimod_bad == 0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "name, wrong, classifier_fails, unimodular_fails",
    [
        ("scale_left", _scale_left_without_y, True, True),
        ("_det", _det_without_b22_a12, True, False),
        ("_unimodular_rows", _unimodular_rows_with_a22_in_a_e12, False, True),
    ],
    ids=["scale_left drops y", "det drops b22 a12", "unimodular rows read a22"],
)
def test_unit_invariance_catches_a_mutation(
    q, name, wrong, classifier_fails, unimodular_fails, monkeypatch
):
    # each mutation fails an identity on its own, and so the claims.  The
    # determinant without b22 a12 is also wrong on the normal form
    # (0, 1, 0, 0, 0, 1), a Y pair it calls alpha, so the per-witness check
    # sees it too
    import ternions.model as model
    from ternions.suites import _classifier_walk

    f = make_field(q, 1)
    cat = model.build_catalog(f)
    assert model.unit_invariance(f) == (0, 0)
    monkeypatch.setattr(model, name, wrong)
    expected = (classifier_fails, unimodular_fails)
    assert tuple(bad > 0 for bad in model.unit_invariance(f)) == expected
    assert tuple(bad > 0 for bad in _classifier_walk(cat)[:2]) == expected


@pytest.mark.parametrize("q", [2, 3])
def test_unit_invariance_fails_without_a_generating_set(q, monkeypatch):
    # without (1, 1, 1) every identity holds, but the closure is the
    # (q-1)^2 diagonal units only, so both claims lose their proof
    import ternions.model as model

    right = model.unit_generators
    monkeypatch.setattr(model, "unit_generators", lambda field: right(field)[:2])
    assert model.unit_invariance(make_field(q, 1)) == (1, 1)


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_unit_invariance_holds_on_every_field(q):
    from ternions.gf import field_of_order
    from ternions.model import unit_invariance

    assert unit_invariance(field_of_order(q)) == (0, 0)


def _non_default_moduli(top):
    """(q, modulus) for each monic irreducible modulus of a field of order
    p^k <= top, k > 1, other than the built-in one."""
    for f in every_field(top):
        if f.k > 1 and f.modulus != DEFAULT_MODULI[f.q]:
            yield f.q, f.modulus


NON_DEFAULT_MODULI = list(_non_default_moduli(9))


def test_non_default_moduli_up_to_9():
    assert NON_DEFAULT_MODULI == [(8, (1, 0, 1, 1)), (9, (1, 0, 1)), (9, (2, 1, 1))]


@pytest.mark.parametrize("q, modulus", NON_DEFAULT_MODULI)
def test_every_suite_passes_on_every_encoding(q, modulus, tmp_path):
    # all 26 claims in one run, as `verify` makes it by default: the
    # identities of the unit invariance read the primitive element, so they
    # depend on the field's encoding, and so do the normal forms; xi's form,
    # the batched lifts of the pencils and the point lists run on the
    # field's tables, so they depend on it too
    out = tmp_path / "report.json"
    args = ["verify", "--q", str(q), "--seed", "0", "--out", str(out), "--modulus"]
    assert main([*args, *map(str, modulus)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["modulus"] == list(modulus)
    assert report["config"]["suites"] == list(SUITE_NAMES)
    assert report["summary"] == {"claims": 26, "passed": 26, "failed": 0, "ok": True}


@pytest.mark.parametrize("q", [2, 3])
def test_classify_by_rank_reading_x2_for_x1_fails_agreement(q, monkeypatch):
    import ternions.suites as suites

    real = suites.classify_by_rank

    def misread(span):
        rows = tuple((r[1], r[0], *r[2:]) for r in span.basis)
        return real(Subspace(span.field, 6, rows))

    monkeypatch.setattr(suites, "classify_by_rank", misread)
    claims = {c["id"]: c for c in suites.suite_counts(VerifyContext(make_field(q, 1)))}
    assert claims["model:classifier-agreement"]["ok"] is False
    assert claims["model:classifier-agreement"]["detail"]["mismatches"] > 0
    assert claims["model:unimodular"]["ok"] is True


def test_classifier_walk_reads_one_witness_per_normal_form(cat2):
    from ternions.suites import _classifier_walk

    walked = _classifier_walk(cat2)[2]
    assert walked == {"method": "unit-orbit normal forms", "normal_forms": 15 + 3 * 8}
    short = replace_fields(cat2, witness=dict(list(cat2.witness.items())[1:]))
    with pytest.raises(AssertionError, match="one witness per normal form"):
        _classifier_walk(short)


@pytest.mark.parametrize("q", [2, 3])
def test_classifier_walk_covers_whole_orbits(q):
    # the invariance the walk rests on, orbit by orbit: closing each normal
    # form under the three generating units partitions the q^6 - 1 nonzero
    # pairs, and the three functions agree with the normal form's type on
    # every pair of its orbit
    from ternions.model import (
        SubmoduleType,
        build_catalog,
        classify,
        classify_by_rank,
        cyclic_span,
        is_unimodular,
    )
    from ternions.suites import _classifier_walk
    from ternions.ternion import enumerate_pairs, scale_left, unit_generators

    f = make_field(q, 1)
    g = primitive_element(f)
    units = unit_generators(f)
    assert units == (Ternion(f, g, 0, 1), Ternion(f, 1, 0, g), Ternion(f, 1, 1, 1))
    seen = set()
    for nf in unit_orbit_normal_forms(f):
        t = classify(nf)
        orbit, todo = {nf}, [nf]
        while todo:
            v = todo.pop()
            for u in units:
                w = scale_left(u, v)
                if w not in orbit:
                    orbit.add(w)
                    todo.append(w)
        assert seen.isdisjoint(orbit)
        seen |= orbit
        for v in orbit:
            assert classify(v) is t and classify_by_rank(cyclic_span(v)) is t
            assert is_unimodular(v) is (t is SubmoduleType.X)
    zero = Ternion(f, 0, 0, 0)
    assert seen == set(enumerate_pairs(f)) - {(zero, zero)}
    assert _classifier_walk(build_catalog(f))[:2] == (0, 0)



@pytest.mark.parametrize("which", [2, 3])
def test_line_model_claim_matches_pair_walk(which, cat2, cat3):
    # per X plane on its witness against the q^6 walk grouped by span, and
    # the pencils of the axis points against G(4,2)
    cat = {2: cat2, 3: cat3}[which]
    ok, detail = _line_model_check(cat)
    assert (ok, detail) == line_model_walk(cat.field)
    assert ok is True


def test_line_model_claim_fails_on_a_doctored_plane(cat3, monkeypatch):
    # two planes' lines swapped: the image and injectivity are unchanged,
    # so only the per-plane comparison with M ^ J can see it
    import ternions.suites as suites

    right = suites.line_model
    w5, w6 = (cat3.witness[m] for m in cat3.g_x[5:7])
    swap = {w5: right(w6), w6: right(w5)}
    monkeypatch.setattr(suites, "line_model", lambda v: swap[v] if v in swap else right(v))
    ok, detail = _line_model_check(cat3)
    assert ok is False
    assert detail["injective"] is True
    assert detail["image_size"] == detail["complex_minus_axis"] == 48
