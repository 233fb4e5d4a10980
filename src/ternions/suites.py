"""Named verification suites over the plane model.

Each suite is a function VerifyContext -> list of claim dicts
{"suite", "id", "ok", "detail"} with JSON-safe, deterministic detail
payloads (fixed seed in, identical bytes out).  The registry order is
alphabetical by suite name, which is also the report assembly order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from . import geometry as geo
from .gf import Field, automorphisms
from .linalg import (
    SemilinearMap,
    Subspace,
    coordinate_subspace,
    enumerate_subspaces,
    identity_map,
    meet_dim,
)
from .model import (
    Catalog,
    SubmoduleType,
    build_catalog,
    classify,
    classify_by_rank,
    cyclic_span,
    expected_counts,
    is_unimodular,
    line_model,
    LINE_MODEL_AXIS_COORDS,
    normal_form_count,
    validate_catalog,
    _unit_orbit_normal_forms,
)
from .ternion import (
    Ternion,
    e11,
    e12,
    e22,
    enumerate_pairs,
    enumerate_ternions,
    iota,
    random_invertible,
    scale_left,
)


@dataclass
class SuiteParams:
    """Work sizes for the randomized checks of `thm1` and `adj:preservers`.
    Every other claim is exhaustive.  The defaults are what the command
    line runs; the tests call the library with smaller numbers."""

    thm1_positives: int = 1000
    thm1_controls: int = 2000
    thm1_decompositions: int = 10
    recipes: int = 100


@dataclass
class VerifyContext:
    """Lazy shared state for a verification run at one field."""

    field: Field
    seed: int = 0
    budget: Optional[int] = None
    params: SuiteParams = dc_field(default_factory=SuiteParams)

    def rng(self, suite: str) -> random.Random:
        return random.Random(f"{self.seed}:{suite}")

    @cached_property
    def catalog(self) -> Catalog:
        return build_catalog(self.field, validate=False, budget=self.budget)

    @cached_property
    def graph(self) -> geo.AdjacencyGraph:
        return geo.build_graph(self.catalog)

    @cached_property
    def scans(self) -> Tuple[List[Subspace], List[Subspace]]:
        lines = geo.scan_lines(self.catalog, self.budget)
        solids = geo.scan_solids(self.catalog, self.budget)
        return lines, solids


def _claim(suite: str, cid: str, ok: bool, detail: Dict[str, object]) -> Dict[str, object]:
    return {"suite": suite, "id": cid, "ok": bool(ok), "detail": detail}


def _basis_list(s: Subspace) -> list:
    return [list(r) for r in s.basis]


# -- counts ------------------------------------------------------------------------


def suite_counts(ctx: VerifyContext) -> List[Dict[str, object]]:
    cat = ctx.catalog
    field = ctx.field
    q = field.q
    claims = []
    report = validate_catalog(cat, budget=ctx.budget)

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

    mismatches, unimod_bad, walked = _classifier_walk(field)
    for cid, bad in (
        ("model:classifier-agreement", mismatches),
        ("model:unimodular", unimod_bad),
    ):
        claims.append(_claim("counts", cid, bad == 0, dict(walked, mismatches=bad)))

    # the PG(3,q) line model: image of the X orbit = lines meeting the axis
    # in one point; at q <= 3 also confirm the line depends only on the span
    axis = coordinate_subspace(field, 4, LINE_MODEL_AXIS_COORDS)
    exhaustive = q <= 3
    well_defined = True
    image = set()
    if exhaustive:
        by_span: Dict[Subspace, Subspace] = {}
        for v in enumerate_pairs(field):
            if not is_unimodular(v):
                continue
            ln = line_model(v)
            sp = cyclic_span(v)
            prev = by_span.setdefault(sp, ln)
            if prev != ln:
                well_defined = False
        image = set(by_span.values())
        injective = len(image) == len(by_span)
    else:
        per_plane = [line_model(cat.witness[m]) for m in cat.g_x]
        image = set(per_plane)
        injective = len(image) == len(per_plane)
    complex_lines = {
        ln
        for ln in enumerate_subspaces(field, 4, 2, ctx.budget)
        if ln != axis and meet_dim(ln, axis) == 1
    }
    claims.append(
        _claim(
            "counts",
            "model:line",
            well_defined and injective and image == complex_lines,
            {
                "well_defined_checked": exhaustive,
                "injective": injective,
                "image_size": len(image),
                "complex_minus_axis": len(complex_lines),
            },
        )
    )
    return claims


def _classifier_walk(field: Field) -> Tuple[int, int, Dict[str, object]]:
    """Count the pairs where classify and classify_by_rank disagree, and
    those where is_unimodular disagrees with the X type; return both counts
    and what was walked.

    The walk covers one pair per left-unit orbit.  That covers every pair
    because the three functions are constant on these orbits, which the
    following argument proves.  A unit u = (x, y, z) sends (a11, a12, a22)
    to (x a11, x a12 + y a22, z a22) in both halves.  classify reads whether
    (a11, b11), (a22, b22) and, when (a22, b22) = 0, (a12, b12) vanish, and
    whether a22 b12 - b22 a12 vanishes, which u multiplies by x z != 0.
    classify_by_rank reads only the span, and T u v = T v.  And u v is
    unimodular exactly when v is: u (a s + b t) = 1 gives
    a (s u) + b (t u) = 1.  Each normal form is also checked against its
    images under (g, 0, 1), (1, 0, g) and (1, 1, 1), g a primitive element,
    which generate the unit group; one step per generator is a spot check
    of the invariance, not a proof of it."""
    g = _primitive_element(field)
    units = (Ternion(field, g, 0, 1), Ternion(field, 1, 0, g), Ternion(field, 1, 1, 1))
    mismatches = 0
    unimod_bad = 0
    for v in _unit_orbit_normal_forms(field):
        t = classify(v)
        u_ok = is_unimodular(v)
        if t is not classify_by_rank(v):
            mismatches += 1
        if u_ok != (t is SubmoduleType.X):
            unimod_bad += 1
        for u in units:
            w = scale_left(u, v)
            if classify(w) is not t or classify_by_rank(w) is not t:
                mismatches += 1
            if is_unimodular(w) != u_ok:
                unimod_bad += 1
    walked = {"method": "unit-orbit normal forms", "normal_forms": normal_form_count(field.q)}
    return mismatches, unimod_bad, walked


def _primitive_element(field: Field) -> int:
    """The least code generating the multiplicative group."""
    q = field.q
    for g in range(1, q):
        x, order = g, 1
        while x != 1:
            x, order = field.mul(x, g), order + 1
        if order == q - 1:
            return g
    raise AssertionError("no primitive element")


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
    cat = ctx.catalog
    graph = ctx.graph
    q = ctx.field.q
    rng = ctx.rng("adjacency")
    claims = []

    # K-traces land on the regulus and partition the X planes evenly
    groups = geo.k_trace_classes(cat)
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

    # each class is the clique interval of its regulus line minus P+L
    classes_ok = True
    for p, members in groups.items():
        interval = set(cat.clique_intervals.get(p, ()))
        marked = geo.join(p, cat.l_line)
        if set(members) != interval - {marked}:
            classes_ok = False
    claims.append(_claim("adjacency", "adj:classes", classes_ok, {}))

    # companion: the unique Y neighbour, constant on classes
    companion = {m: geo.companion_y(m, cat) for m in cat.g_x}
    comp_ok = True
    for m in cat.g_x:
        i = graph.vindex[m]
        y_nbrs = [
            graph.vertices[j]
            for j in graph.neighbours[i]
            if graph.types[j] is SubmoduleType.Y
        ]
        if len(y_nbrs) != 1 or y_nbrs[0] != companion[m]:
            comp_ok = False
    const_ok = all(len({companion[m] for m in members}) == 1 for members in groups.values())
    claims.append(
        _claim("adjacency", "adj:companion", comp_ok and const_ok, {"constant_on_classes": const_ok})
    )

    # cliques: expected ones are present, and via common-neighbour closure
    # they are the only maximal ones; Bron-Kerbosch cross-check at q <= 3
    expected = geo.expected_cliques(cat)
    exp_idx = [frozenset(graph.vindex[s] for s in c) for c in expected]
    all_cliques = all(
        graph.are_adjacent(i, j) for c in exp_idx for i, j in combinations(sorted(c), 2)
    )
    edge_clique = {}
    for ci, c in enumerate(exp_idx):
        for i, j in combinations(sorted(c), 2):
            edge_clique[(i, j)] = ci
    coverage = all(
        (i, j) in edge_clique
        for i in range(graph.n)
        for j in graph.neighbours[i]
        if i < j
    )
    closure = True
    for (i, j), ci in edge_clique.items():
        common = graph.neighbours[i] & graph.neighbours[j]
        if common != exp_idx[ci] - {i, j}:
            closure = False
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

    # distances: connected, X-X in {1,3}, companion path geodesic and unique
    # at q = 2, X to non-companion Y at distance 2
    xs = [graph.vindex[m] for m in cat.g_x]
    comp_index = {graph.vindex[m]: graph.vindex[y] for m, y in companion.items()}
    adj = graph.are_adjacent
    connected = True
    dist_ok = True
    via_ok = True
    unique_ok = True
    y_dist_ok = True
    check_unique = q == 2
    for i in xs:
        dist = geo.distances_from(graph, i)
        if any(d < 0 for d in dist):
            connected = False
        ci = comp_index[i]
        for j in xs:
            if j <= i:
                continue
            d = dist[j]
            if d not in (1, 3):
                dist_ok = False
            if d == 3:
                cj = comp_index[j]
                if not (adj(i, ci) and adj(ci, cj) and adj(cj, j)):
                    via_ok = False
                if check_unique and geo.count_geodesics(graph, i, j)[1] != 1:
                    unique_ok = False
        for j in range(graph.n):
            if graph.types[j] is SubmoduleType.Y and j != ci:
                if dist[j] != 2:
                    y_dist_ok = False
    claims.append(
        _claim(
            "adjacency",
            "adj:distance",
            connected and dist_ok and via_ok and unique_ok and y_dist_ok,
            {
                "connected": connected,
                "xx_distances_in_1_3": dist_ok,
                "companion_path_geodesic": via_ok,
                "unique_geodesic_checked": check_unique,
                "unique_geodesic": unique_ok,
                "noncompanion_y_at_2": y_dist_ok,
            },
        )
    )

    # random recipes give two-way preservers fixing both orbits setwise,
    # and extraction rebuilds the recipe; one collineation-induced preserver
    # round-trips through a recipe as well
    n = ctx.params.recipes
    rec_ok = True
    fixes_ok = True
    extract_ok = True
    gx, gy = set(cat.g_x), set(cat.g_y)
    for _ in range(n):
        rec = geo.random_recipe(cat, rng)
        mapping = geo.build_preserver(rec, cat)
        if not geo.verify_preserver(mapping, graph):
            rec_ok = False
        if {mapping[m] for m in gx} != gx or {mapping[m] for m in gy} != gy:
            fixes_ok = False
        rec2 = geo.extract_recipe(mapping, cat)
        if rec2.mu != rec.mu or rec2.psi != rec.psi:
            extract_ok = False
    s = random_invertible(ctx.field, rng)
    sigma = rng.choice(automorphisms(ctx.field))
    f = geo.induced_collineation(s, sigma)
    fmapping = geo.preserver_from_collineation(f, cat)
    coll_ok = geo.verify_preserver(fmapping, graph)
    rec3 = geo.extract_recipe(fmapping, cat)
    coll_ok = coll_ok and geo.build_preserver(rec3, cat) == fmapping
    claims.append(
        _claim(
            "adjacency",
            "adj:preservers",
            rec_ok and fixes_ok and extract_ok and coll_ok,
            {
                "random_recipes": n,
                "two_way_preservation": rec_ok,
                "orbits_fixed_setwise": fixes_ok,
                "extraction_round_trip": extract_ok,
                "collineation_round_trip": coll_ok,
            },
        )
    )
    return claims


# -- lemma scans --------------------------------------------------------------------


def suite_lemmas(ctx: VerifyContext) -> List[Dict[str, object]]:
    cat = ctx.catalog
    q = ctx.field.q
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
    cat = ctx.catalog
    field = ctx.field
    rng = ctx.rng("thm1")
    autos = automorphisms(field)
    claims = []

    n_pos = ctx.params.thm1_positives
    pos_fail = 0
    for _ in range(n_pos):
        s = random_invertible(field, rng)
        sigma = rng.choice(autos)
        f = geo.induced_collineation(s, sigma)
        if geo.first_failed_condition(f, cat) is not None:
            pos_fail += 1
    claims.append(
        _claim(
            "thm1",
            "thm1:positive",
            pos_fail == 0,
            {"maps_checked": n_pos, "failures": pos_fail},
        )
    )

    n_dec = ctx.params.thm1_decompositions
    dec_fail = 0
    exact_fail = 0
    ident = autos[0]
    for _ in range(n_dec):
        s = random_invertible(field, rng)
        sigma = rng.choice(autos)
        a = rng.randrange(field.q)
        b = rng.randrange(1, field.q)
        f1 = SemilinearMap(field, 6, identity_map(field, 6).matrix, sigma)
        f2 = SemilinearMap(field, 6, geo._homothety_rows(field, a, b), ident)
        f = geo.induced_collineation(s, ident).compose(f2.compose(f1))
        try:
            dec = geo.decompose_semilinear(f, cat)
        except ValueError:
            dec_fail += 1
            continue
        if not geo.verify_decomposition(f, dec, rng):
            dec_fail += 1
        if dec.homothety_params != (a, b) or dec.module_map.sigma != sigma:
            exact_fail += 1
    # the degenerate corners: identity and a bare lift
    for f in (
        identity_map(field, 6),
        geo.induced_collineation(random_invertible(field, rng), ident),
    ):
        try:
            dec = geo.decompose_semilinear(f, cat)
            if not geo.verify_decomposition(f, dec, rng):
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
                "round_trip_failures": dec_fail,
                "parameter_mismatches": exact_fail,
            },
        )
    )

    n_ctl = ctx.params.thm1_controls
    admissible = 0
    admissible_consistent = True
    fail_by = {"ii": 0, "iii": 0, "iv": 0}
    for _ in range(n_ctl):
        rows = geo.random_nonblock_invertible(field, rng)
        sigma = rng.choice(autos)
        g = SemilinearMap(field, 6, rows, sigma)
        failed = geo.first_failed_condition(g, cat)
        if failed is None:
            admissible += 1
            # a genuinely admissible control must still decompose cleanly
            try:
                dec = geo.decompose_semilinear(g, cat)
                if not geo.verify_decomposition(g, dec, rng):
                    admissible_consistent = False
            except ValueError:
                admissible_consistent = False
        else:
            fail_by[failed] += 1
    claims.append(
        _claim(
            "thm1",
            "thm1:negative",
            admissible_consistent,
            {
                "controls": n_ctl,
                "failed_by_condition": fail_by,
                "accidentally_admissible": admissible,
            },
        )
    )
    return claims


# -- duality exclusion ----------------------------------------------------------------


def suite_thm2(ctx: VerifyContext) -> List[Dict[str, object]]:
    cat = ctx.catalog
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


def suite_remark(ctx: VerifyContext) -> List[Dict[str, object]]:
    cat = ctx.catalog
    field = ctx.field
    q = field.q
    claims = []

    # the reversing ring involution, exact for all q^6 pairs by bilinearity
    anti_ok = is_linear_involutive_antiautomorphism(field, iota)
    center_ok = all(iota(t) == t for t in enumerate_ternions(field) if t.x == t.z and t.y == 0)
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
            {"pairs_checked": report["pairs_checked"], "exhaustive": True},
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
        if anti(t) != Ternion(field, x, y, z):
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


def run_suites(ctx: VerifyContext, names) -> List[Dict[str, object]]:
    """Run the named suites in alphabetical order and concatenate claims."""
    out = []
    for name in sorted(names):
        if name not in SUITES:
            raise ValueError(f"unknown suite: {name}")
        out.extend(SUITES[name](ctx))
    return out


def summarize(claims: List[Dict[str, object]]) -> Dict[str, object]:
    passed = sum(1 for c in claims if c["ok"])
    return {
        "claims": len(claims),
        "passed": passed,
        "failed": len(claims) - passed,
        "ok": passed == len(claims),
    }
