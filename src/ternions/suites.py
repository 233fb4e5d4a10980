"""Named verification suites over the plane model.

Each suite is a function VerifyContext -> list of claim dicts
{"suite", "id", "ok", "detail"} with JSON-safe, deterministic detail
payloads (fixed seed in, identical bytes out).  The registry order is
alphabetical by suite name, which is also the report assembly order.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property
from math import comb
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import geometry as geo
from .gf import Field, automorphisms
from .linalg import (
    SemilinearMap,
    Subspace,
    coordinate_subspace,
    full_space,
    identity_map,
    join,
    pencil,
    projective_points,
)
from .model import (
    Catalog,
    SubmoduleType,
    block6_rows,
    build_catalog,
    classify,
    classify_by_rank,
    expected_counts,
    is_unimodular,
    line_model,
    LINE_MODEL_AXIS_COORDS,
    meet_j,
    normal_form_count,
    unit_invariance,
    validate_catalog,
)
from .ternion import (
    Ternion,
    _ternion,
    e11,
    e12,
    e22,
    enumerate_ternions,
    iota,
    random_invertible,
)


# how many seeded maps `thm1:decompose` draws
THM1_DECOMPOSITIONS = 10


class VerifyContext:
    """Lazy shared state for a verification run at one field."""

    def __init__(self, field: Field, seed: int = 0, budget: Optional[int] = None):
        self.field = field
        self.seed = seed
        self.budget = budget

    def rng(self, suite: str) -> random.Random:
        return random.Random(f"{self.seed}:{suite}")

    @cached_property
    def catalog(self) -> Catalog:
        return build_catalog(self.field, budget=self.budget)

    @cached_property
    def graph(self) -> geo.AdjacencyGraph:
        return geo.build_graph(self.catalog)

    @cached_property
    def scans(self) -> Optional[Tuple[List[Subspace], List[Subspace]]]:
        """The transversal lines and solids, or None when the standard
        triple they anchor on is not three pairwise skew X planes of the
        catalog, as when the catalog lacks one of them."""
        cat = self.catalog
        if not geo.is_skew_x_triple(cat, geo.standard_triple(self.field)):
            return None
        return geo.scan_lines(cat), geo.scan_solids(cat)


def _claim(suite: str, cid: str, ok: bool, detail: Dict[str, object]) -> Dict[str, object]:
    return {"suite": suite, "id": cid, "ok": bool(ok), "detail": detail}


def _basis_list(s: Subspace) -> list:
    return [list(r) for r in s.basis]


# -- counts ------------------------------------------------------------------------


def suite_counts(ctx: VerifyContext) -> List[Dict[str, object]]:
    cat = ctx.catalog
    q = ctx.field.q
    claims = []
    report = validate_catalog(cat)

    claims.append(
        _claim(
            "counts",
            "counts:orbit-sizes",
            report["counts"],
            {"got": cat.counts(), "expected": expected_counts(q)},
        )
    )
    for cid, key in (
        ("chars:gamma", "gamma_is_l"),
        ("chars:beta", "beta_is_j_minus_l"),
        ("chars:alpha", "alpha_is_regulus"),
        ("chars:y", "y_is_pencil"),
        ("chars:x", "x_is_scan"),
    ):
        claims.append(_claim("counts", cid, report[key], {}))

    mismatches, unimod_bad, walked = _classifier_walk(cat)
    for cid, bad in (
        ("model:classifier-agreement", mismatches),
        ("model:unimodular", unimod_bad),
    ):
        claims.append(_claim("counts", cid, bad == 0, dict(walked, mismatches=bad)))

    claims.append(_claim("counts", "model:line", *_line_model_check(cat)))
    return claims


def _line_model_check(cat: Catalog) -> Tuple[bool, Dict[str, object]]:
    """The `model:line` verdict and detail: line_model is well defined on
    the X planes, injective, and onto the lines of PG(3,q) meeting the axis
    in one point.  Well defined, exactly: for a generator w of an X plane M,
    e11 w and e12 w are independent vectors of J (x3 = x6 = 0), so they span
    M ^ J, and line_model(w) is their projection onto (x1, x2, x4, x5),
    which is injective on J; so line_model(w) is the projection of M ^ J,
    checked per X plane on its witness, with M ^ J taken from one reduction
    of M's rows (`model.meet_j`).  A line other than the axis meets it in
    at most one point, so the complex lines are the q^2+q other lines
    through each of its q+1 points, each found once."""
    field = cat.field
    axis = coordinate_subspace(field, 4, LINE_MODEL_AXIS_COORDS)
    space = full_space(field, 4)
    complex_lines = {
        ln for a in projective_points(axis) for ln in pencil(a, space, 2) if ln != axis
    }
    well_defined = True
    image = set()
    for m in cat.g_x:
        ln = line_model(cat.witness[m])
        well_defined = well_defined and ln.basis == meet_j(m)
        image.add(ln)
    injective = len(image) == len(cat.g_x)
    detail = {
        "well_defined_checked": True,
        "injective": injective,
        "image_size": len(image),
        "complex_minus_axis": len(complex_lines),
    }
    return well_defined and injective and image == complex_lines, detail


def _classifier_walk(cat: Catalog) -> Tuple[int, int, Dict[str, object]]:
    """Count the pairs where classify and classify_by_rank disagree, and
    those where is_unimodular disagrees with the X type; return both counts
    and what was walked.

    The walk covers one pair per left-unit orbit: the catalog's witnesses,
    one normal form per span.  That covers every pair because the three
    functions are constant on these orbits, which `model.unit_invariance`
    proves once per field: it checks, on a basis of F^6, the identities
    that carry the readings of classify, the rows of cyclic_span and the
    rows of is_unimodular through the three `unit_generators`, and that
    these generate the unit group.  classify_by_rank reads only the span.
    A failed identity counts as one mismatch of the claim it proves."""
    field = cat.field
    if len(cat.witness) != normal_form_count(field.q):
        raise AssertionError("the catalog does not hold one witness per normal form")
    mismatches, unimod_bad = unit_invariance(field)
    for span, v in cat.witness.items():
        t = classify(v)
        if t is not classify_by_rank(span):
            mismatches += 1
        if is_unimodular(v) != (t is SubmoduleType.X):
            unimod_bad += 1
    walked = {"method": "unit-orbit normal forms", "normal_forms": normal_form_count(field.q)}
    return mismatches, unimod_bad, walked


# -- incidence ---------------------------------------------------------------------


def suite_incidence(ctx: VerifyContext) -> List[Dict[str, object]]:
    table = geo.incidence_table(ctx.catalog)
    detail = {
        "rows": table["rows"],
        "column_order": table["column_order"],
        "sample_per_type": None,  # every member is checked
    }
    if table["first_mismatch"] is not None:
        fm = table["first_mismatch"]
        detail["first_mismatch"] = {
            "type": fm["type"],
            "expected": list(fm["expected"]),
            "got": list(fm["got"]),
        }
    return [_claim("incidence", "incidence:table", table["ok"], detail)]


# -- adjacency ---------------------------------------------------------------------


def suite_adjacency(ctx: VerifyContext) -> List[Dict[str, object]]:
    """The adjacency claims.

    A recipe permutation permutes the q+1 alpha cliques [P, P+J]_3 and maps
    each clique onto its image, marked plane P+L to marked plane
    (`geometry.is_recipe`).  The recipe permutations form the wreath
    product R = Sym(q^2+q) wr Sym(q+1), which the four permutations of
    `geometry.recipe_generators` generate.  A full cycle and a transposition
    of two elements adjacent on it generate a symmetric group.  So the two
    clique generators give a copy of Sym(q+1) (sorted-order bijections
    compose to sorted-order bijections), the two plane generators give the
    symmetric group of clique 0, and conjugating by the copy of Sym(q+1)
    carries it to every clique.  The graph automorphisms that fix the X and
    Y planes setwise form a group, so it contains R once it contains the
    four generators.  Hence `two_way_preservation` and
    `orbits_fixed_setwise` of `adj:preservers` are exact.
    `extraction_round_trip` checks `is_recipe` on each generator, and
    `collineation_round_trip` checks `verify_preserver` and `is_recipe` on
    one seeded collineation, a spot check.

    R is transitive on the X planes, fixes the Y planes setwise and commutes
    with the companion map, which sends an X plane to the marked plane of
    its clique.  So `adj:distance` reads every fact about a pair of X
    planes off the pairs (0, j), from one BFS from X plane 0."""
    cat = ctx.catalog
    graph = ctx.graph
    q = ctx.field.q
    rng = ctx.rng("adjacency")
    claims = []

    # K-traces land on the regulus and partition the X planes evenly.  The
    # K-trace M ^ K of an X plane M = T w is its stored alpha line: the line
    # span(e12 w, e22 w) lies in M and in K = {x1 = x4 = 0}, and an X plane
    # is not in K, so M ^ K is a line, and the two are equal.
    groups: Dict[Subspace, List[Subspace]] = {}
    for m in cat.g_x:
        groups.setdefault(cat.traces[m][1], []).append(m)
    trace_ok = set(groups.keys()) == set(cat.g_alpha)
    sizes = sorted(len(v) for v in groups.values())
    size_ok = sizes == [q * q + q] * (q + 1)
    claims.append(
        _claim(
            "adjacency",
            "adj:k-trace",
            trace_ok and size_ok,
            {"class_count": len(groups), "class_sizes": sizes},
        )
    )

    # each class is the clique [P, P+J]_3 of its regulus line minus P+L, on
    # vertex indices.  A plane the catalog lacks is None in its clique, and
    # the clique's size, q^2+q+1, keeps two such planes from passing as one.
    cliques, marked = graph.cliques
    alpha = {p: a for a, p in enumerate(cat.g_alpha)}
    classes_ok = all(
        p in alpha
        and len(cliques[alpha[p]]) == q * q + q + 1
        and {graph.vindex[m] for m in members} == cliques[alpha[p]] - {marked[alpha[p]]}
        for p, members in groups.items()
    )
    claims.append(_claim("adjacency", "adj:classes", classes_ok, {}))

    # companion: the unique Y neighbour (Y member of a group) of an X plane
    # M is (M ^ K) + L, constant on classes; one join per class
    n_x = len(cat.g_x)
    companion = {p: graph.vindex.get(join(p, cat.l_line)) for p in groups}
    comp = [companion[cat.traces[m][1]] for m in cat.g_x]
    ys = [[j for j in g if j >= n_x] for g in graph.groups]
    y_nbrs = [tuple(j for g in graph.vertex_groups[i] for j in ys[g]) for i in range(n_x)]
    comp_ok = all(y_nbrs[i] == (comp[i],) for i in range(n_x))
    const_ok = all(
        len({y_nbrs[graph.vindex[m]] for m in members}) == 1 for members in groups.values()
    )
    claims.append(
        _claim("adjacency", "adj:companion", comp_ok and const_ok, {"constant_on_classes": const_ok})
    )

    # cliques: expected ones are present, and via common-neighbour closure
    # they are the only maximal ones; Bron-Kerbosch cross-check at q <= 3.
    # A clique plane the catalog lacks fails the claims that read cliques.
    y_clique = frozenset(map(graph.vindex.get, pencil(cat.l_line, cat.k_solid, 3)))
    exp_idx = [y_clique, *cliques]
    if None in set(marked).union(*exp_idx):
        return claims + [
            _claim("adjacency", cid, False, {"missing_plane": True})
            for cid in ("adj:cliques", "adj:distance", "adj:preservers")
        ]
    all_cliques, coverage, closure = _clique_flags(graph, exp_idx)
    detail = {
        "clique_sizes": sorted(len(c) for c in exp_idx),
        "edge_coverage": coverage,
        "common_neighbour_closure": closure,
    }
    cliques_ok = all_cliques and coverage and closure
    if q <= 3:
        bk = {frozenset(c) for c in geo.maximal_cliques(graph)}
        bk_ok = bk == set(exp_idx)
        detail["bron_kerbosch_match"] = bk_ok
        cliques_ok = cliques_ok and bk_ok
    claims.append(_claim("adjacency", "adj:cliques", cliques_ok, detail))

    preservers, transitive = _generator_detail(graph)
    detail = _distance_detail(graph, comp, transitive)
    ok = all(v for key, v in detail.items() if key != "unique_geodesic_checked")
    claims.append(_claim("adjacency", "adj:distance", ok, detail))

    # one collineation-induced preserver is a recipe permutation
    s = random_invertible(ctx.field, rng)
    sigma = rng.choice(automorphisms(ctx.field))
    fperm = geo.preserver_from_collineation(geo.induced_collineation(s, sigma), graph)
    coll_ok = geo.verify_preserver(fperm, graph) and geo.is_recipe(fperm, graph)
    preservers["collineation_round_trip"] = coll_ok
    ok = preservers["first_failure"] is None and coll_ok
    claims.append(_claim("adjacency", "adj:preservers", ok, preservers))
    return claims


def _generator_detail(graph: geo.AdjacencyGraph) -> Tuple[Dict[str, object], bool]:
    """The `adj:preservers` detail for the recipe generators, without the
    collineation round trip, and whether the generators are verified
    preservers whose group carries X plane 0 to every X plane.  Each
    generator goes through `verify_preserver`, the check that it fixes the
    X and the Y planes setwise, and `is_recipe`; `first_failure` names the
    first that fails one."""
    n_x = len(graph.catalog.g_x)
    xs, ys = set(range(n_x)), set(range(n_x, graph.n))
    gens = geo.recipe_generators(graph)
    checks = {}
    for name, perm in gens.items():
        checks[name] = (
            geo.verify_preserver(perm, graph),
            set(perm[:n_x]) == xs and set(perm[n_x:]) == ys,
            geo.is_recipe(perm, graph),
        )
    two_way, fixes, recipes = (all(flags) for flags in zip(*checks.values()))
    failed = [name for name, flags in checks.items() if not all(flags)]
    orbit, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for perm in gens.values():
            if perm[v] not in orbit:
                orbit.add(perm[v])
                todo.append(perm[v])
    detail = {
        "generators": list(gens),
        "exhaustive": True,
        "first_failure": failed[0] if failed else None,
        "two_way_preservation": two_way,
        "orbits_fixed_setwise": fixes,
        "extraction_round_trip": recipes,
    }
    return detail, two_way and fixes and orbit == xs


def _clique_flags(
    graph: geo.AdjacencyGraph, cliques: List[FrozenSet[int]]
) -> Tuple[bool, bool, bool]:
    """(all_cliques, coverage, closure) for the expected cliques, from the
    sizes of their (q+2)^2 intersections with the groups.  Each edge lies
    in one group, and two vertices share at most one, so C is a clique when
    its pairs within groups number C(|C|, 2); every group lies in some C
    (which, with closure, is every edge lying in one); and no vertex
    outside C sees two members of C, which it sees through its groups.
    The common neighbours of an edge of C are then C minus the edge."""
    groups, vertex_groups = graph.groups, graph.vertex_groups
    sizes = [Counter(g for v in c for g in vertex_groups[v]) for c in cliques]  # |C ^ g|
    all_cliques = all(
        sum(comb(m, 2) for m in k.values()) == comb(len(c), 2) for c, k in zip(cliques, sizes)
    )
    coverage = all(any(k[g] == len(grp) for k in sizes) for g, grp in enumerate(groups))
    multi = [v for v, gs in enumerate(vertex_groups) if len(gs) > 1]
    closure = all(
        all(m < 2 or m == len(groups[g]) for g, m in k.items())
        and all(sum(k[g] for g in vertex_groups[v]) < 2 for v in multi if v not in c)
        for c, k in zip(cliques, sizes)
    )
    return all_cliques, coverage, closure


def _distance_detail(
    graph: geo.AdjacencyGraph, comp: List[int], transitive: bool
) -> Dict[str, bool]:
    """The `adj:distance` flags from one BFS from X plane 0 that counts
    geodesics.  `transitive` says that verified preservers, which fix the
    Y planes setwise and commute with the companion map, carry X plane 0
    to every X plane, so each flag about the pairs (0, j) holds for every
    pair of X planes.  The geodesic counts are checked for uniqueness at
    q = 2 only."""
    dist, paths = geo.geodesics_from(graph, 0)
    n_x = len(comp)
    adj = graph.are_adjacent
    c0 = comp[0]
    far = [j for j in range(1, n_x) if dist[j] == 3]
    check_unique = graph.catalog.field.q == 2
    return {
        "connected": min(dist) >= 0,
        "transitive_on_x": transitive,
        "xx_distances_in_1_3": all(dist[j] in (1, 3) for j in range(1, n_x)),
        "companion_path_geodesic": all(
            adj(0, c0) and adj(c0, comp[j]) and adj(comp[j], j) for j in far
        ),
        "unique_geodesic_checked": check_unique,
        "unique_geodesic": not check_unique or all(paths[j] == 1 for j in far),
        "noncompanion_y_at_2": all(dist[j] == 2 for j in range(n_x, graph.n) if j != c0),
    }


# -- lemma scans --------------------------------------------------------------------


def suite_lemmas(ctx: VerifyContext) -> List[Dict[str, object]]:
    cat = ctx.catalog
    q = ctx.field.q
    if ctx.scans is None:
        return [
            _claim("lemmas", cid, False, {"standard_triple_skew_x": False})
            for cid in ("lem:transversal-lines", "lem:transversal-solids")
        ]
    lines, solids = ctx.scans
    lines_ok = set(lines) == set(cat.quadric.regulus_opposite) and len(lines) == q + 1
    solids_ok = set(solids) == {cat.j_solid, cat.k_solid} and len(solids) == 2
    return [
        _claim(
            "lemmas",
            "lem:transversal-lines",
            lines_ok,
            {"found": len(lines), "expected": q + 1, "equals_opposite_regulus": lines_ok},
        ),
        _claim(
            "lemmas",
            "lem:transversal-solids",
            solids_ok,
            {"found": len(solids), "expected": 2, "equals_j_and_k": solids_ok},
        ),
    ]


# -- the characterization of admissible collineations --------------------------------


def suite_thm1(ctx: VerifyContext) -> List[Dict[str, object]]:
    """Theorem 1's collineation claims.

    `thm1:positive` is exact: it checks condition iv on each generator of
    G0 from `geometry.g0_generators`.  The maps fixing J and H setwise
    form a group, an intersection of setwise stabilisers, which contains
    G0 once it contains a generating set.  The generators reach all of
    GL2(T) because T is finite, hence of stable rank 1, so
    GL2(T) = E2(T) diag(T*, 1) (Bass).  iv implies iii and ii: a map
    fixing J and H fixes K (H spans K) and L = J ^ K, hence the regulus of
    H through L and so the alpha regulus, which with J and L picks out the
    X planes (`chars:x`); and it permutes the planes of K through L, the Y
    planes (`chars:y`).  The claim names these two in `rests_on`.

    `thm1:negative`, the converse, is exact.  Each condition implies iii:
    iv by the step above, and a map satisfying ii preserves adjacency, so
    degrees, and an X plane has degree q^2+q, a Y plane q^2+2q
    (`adj:cliques`).  Now let f satisfy iii.
      1. G0 is transitive on ordered triples of pairwise skew X planes.
         Planes T v, T w are skew exactly when the matrix S with rows v, w
         is invertible (either says (s, t) -> s v + t w is onto).  S sends
         T(1, 0), T(0, 1) to T v0, T v1; v2 S^-1 = (a, b) has units a, b
         (v2 is distant from v0 and v1), and diag(a, b) S also sends (1, 1)
         to v2 (Blunck-Herzer).  So some g in G0 maps M0 = T(1, 0),
         M1 = T(0, 1), M2 = T(1, 1) onto their images under f, and g^-1 f
         satisfies iii (`thm1:positive`).
      2. A map satisfying iii fixes J and K: they are the only transversal
         solids (`lem:transversal-solids`), and a swap would biject the
         n_x distinct J-lines of the X planes onto their q+1 K-lines.
      3. A map fixing M0, M1 and M2 (sigma fixes them) is sigma diag(A, A);
         fixing J = {x3 = x6 = 0} and K = {x1 = x4 = 0} makes
         A = [[a, b, 0], [0, c, 0], [0, d, e]].
      4. That A is the lift of diag(u, u), u = (a, b, c), times the
         homothety (d/c, e/c), so g^-1 f and f lie in G0.
    The claim checks in O(n_x) that M0, M1, M2 are pairwise skew X planes,
    the J-line and K-line counts, and the factorisation
    (`geometry.stabilizer_factorisation`); it names the claims it rests on,
    so `thm1` alone runs no scan.  `thm1:decompose` decomposes seeded
    random maps, checks that the read-off returns the (sigma, unit, S)
    each was built from and each round trip exactly, on a basis
    (`geometry.verify_decomposition`)."""
    cat = ctx.catalog
    field = ctx.field
    rng = ctx.rng("thm1")
    autos = automorphisms(field)
    claims = []

    gens = geo.g0_generators(field)
    failed = [
        {"kind": kind, "index": i}
        for kind, maps in gens.items()
        for i, f in enumerate(maps)
        if geo.first_failed_condition(f, cat) is not None
    ]
    claims.append(
        _claim(
            "thm1",
            "thm1:positive",
            not failed,
            {
                "generators": {kind: len(maps) for kind, maps in gens.items()},
                "exhaustive": True,
                "rests_on": ["chars:x", "chars:y"],
                "failures": len(failed),
                "first_failure": failed[0] if failed else None,
            },
        )
    )

    n_dec = THM1_DECOMPOSITIONS
    dec_fail = 0
    exact_fail = 0
    for _ in range(n_dec):
        s = random_invertible(field, rng)
        sigma = rng.choice(autos)
        a = rng.randrange(field.q)
        b = rng.randrange(1, field.q)
        # sigma, then the homothety (a, b), then the lift of S
        matrix = field.kernel.matmul(geo._homothety_rows(a, b), block6_rows(s))
        f = SemilinearMap(field, 6, matrix, sigma)
        try:
            g = geo.decompose_semilinear(f, cat)
        except ValueError:
            dec_fail += 1
            continue
        if not geo.verify_decomposition(f, g):
            dec_fail += 1
        if g.unit.triple() != (1, a, b) or g.sigma != sigma or g.matrix != s:
            exact_fail += 1
    # the degenerate corners: identity and a bare lift
    for f in (
        identity_map(field, 6),
        geo.induced_collineation(random_invertible(field, rng), autos[0]),
    ):
        try:
            if not geo.verify_decomposition(f, geo.decompose_semilinear(f, cat)):
                dec_fail += 1
        except ValueError:
            dec_fail += 1
    claims.append(
        _claim(
            "thm1",
            "thm1:decompose",
            dec_fail == 0 and exact_fail == 0,
            {
                "maps_decomposed": n_dec + 2,
                "exhaustive": False,
                "round_trip_failures": dec_fail,
                "parameter_mismatches": exact_fail,
            },
        )
    )

    detail = _converse_detail(cat)
    claims.append(_claim("thm1", "thm1:negative", detail["first_failure"] is None, detail))
    return claims


def _converse_detail(cat: Catalog) -> Dict[str, object]:
    """The `thm1:negative` detail: the premises of the converse not taken
    from other claims (see suite_thm1); `first_failure` names the first."""
    q = cat.field.q
    traces = cat.traces
    n_x = len(cat.g_x)
    triple_ok = geo.is_skew_x_triple(cat, geo.standard_triple(cat.field))
    j_lines = len({traces[m][0] for m in cat.g_x})
    k_lines = len({traces[m][1] for m in cat.g_x})
    products, factor_ok = geo.stabilizer_factorisation(cat.field)
    premises = {
        "standard_triple": triple_ok,
        "j_lines": j_lines == n_x,
        "k_lines": k_lines == q + 1,
        "factorisation": factor_ok,
    }
    failed = [name for name, ok in premises.items() if not ok]
    return {
        "method": "stabilizer of the standard skew triple",
        "exhaustive": True,
        "rests_on": ["adj:cliques", "chars:x", "lem:transversal-solids", "thm1:positive"],
        "standard_triple_skew_x": triple_ok,
        "x_planes": n_x,
        "j_lines": j_lines,
        "k_lines": k_lines,
        "factorisation_products": products,
        "first_failure": failed[0] if failed else None,
    }


# -- duality exclusion ----------------------------------------------------------------


def suite_thm2(ctx: VerifyContext) -> List[Dict[str, object]]:
    cat = ctx.catalog
    if ctx.scans is None:
        return [_claim("thm2", "thm2:no-duality", False, {"standard_triple_skew_x": False})]
    lines, solids = ctx.scans
    cert = geo.no_duality_certificate(cat, lines, solids)
    detail = dict(cert)
    detail["union_case"] = (
        "a duality fixing the X and Y planes together preserves adjacency, "
        "hence fixes the X planes setwise, and is excluded by the same counts"
    )
    ok = (
        cert["duality_excluded"]
        and cert["counts_match"]
        and cert["lines_are_opposite_regulus"]
        and cert["solids_are_j_and_k"]
    )
    return [_claim("thm2", "thm2:no-duality", ok, detail)]


# -- the closing remark ----------------------------------------------------------------


XI_METHOD = "J-lines under the correlation of J"  # see geometry.xi_report


def suite_remark(ctx: VerifyContext) -> List[Dict[str, object]]:
    cat = ctx.catalog
    field = ctx.field
    q = field.q
    claims = []

    # the reversing ring involution, exact for all q^6 pairs by bilinearity
    anti_ok = is_linear_involutive_antiautomorphism(field, iota)
    center = [Ternion(field, c, 0, c) for c in field.codes()]  # the q elements (x, 0, x)
    center_ok = all(iota(t) == t for t in center)
    claims.append(
        _claim(
            "remark",
            "remark:antiauto",
            anti_ok and center_ok,
            {
                "method": "bilinearity",
                "elements": q**3,
                "basis_products": 9,
                "fixes_center": center_ok,
            },
        )
    )

    report = geo.xi_report(ctx.graph)
    claims.append(
        _claim(
            "remark",
            "remark:xi-bijection",
            report["is_permutation"],
            {"planes": len(cat.g_x)},
        )
    )
    wit = report["adjacency_witness"]
    detail = {"witness_found": wit is not None}
    if wit is not None:
        detail["m1"] = _basis_list(wit["m1"])
        detail["m2"] = _basis_list(wit["m2"])
        detail["images_meet"] = _basis_list(wit["images_meet"])
    claims.append(
        _claim("remark", "remark:xi-breaks-adjacency", report["breaks_adjacency"], detail)
    )
    claims.append(
        _claim(
            "remark",
            "remark:xi-skew-pairs",
            report["skew_preserved_both_ways"],
            {"pairs_checked": report["pairs_checked"], "exhaustive": True, "method": XI_METHOD},
        )
    )
    return claims


def is_linear_involutive_antiautomorphism(field: Field, anti) -> bool:
    """Whether the map `anti` on ternions is F-linear, involutive and
    reverses products, decided without walking the q^6 pairs.

    anti is checked on all q^3 elements to equal the linear extension of its
    images of e11, e12 and e22, which gives additivity and homogeneity.
    Then anti(anti(t)) and anti(st) - anti(t) anti(s) are linear in t and
    bilinear in (s, t), so they vanish everywhere once they vanish on the
    basis and on the 9 basis products."""
    basis = (e11(field), e12(field), e22(field))
    images = [anti(e) for e in basis]
    mul, add = field.mul, field.add
    for t in enumerate_ternions(field):
        x = y = z = 0
        for c, img in zip(t.triple(), images):
            x, y, z = add(x, mul(c, img.x)), add(y, mul(c, img.y)), add(z, mul(c, img.z))
        if anti(t) != _ternion(field, x, y, z):
            return False
    return all(anti(anti(e)) == e for e in basis) and all(
        anti(s * t) == anti(t) * anti(s) for s in basis for t in basis
    )


SUITES = {
    "adjacency": suite_adjacency,
    "counts": suite_counts,
    "incidence": suite_incidence,
    "lemmas": suite_lemmas,
    "remark": suite_remark,
    "thm1": suite_thm1,
    "thm2": suite_thm2,
}

SUITE_NAMES = tuple(sorted(SUITES))


def summarize(claims: List[Dict[str, object]]) -> Dict[str, object]:
    passed = sum(1 for c in claims if c["ok"])
    return {
        "claims": len(claims),
        "passed": passed,
        "failed": len(claims) - passed,
        "ok": passed == len(claims),
    }
