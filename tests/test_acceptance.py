"""The eleven acceptance criteria, one test each, logged to the terminal
summary.  These restate checks from the unit files at full scale and with
time bounds; keep them independent of each other where possible."""

import json
import random
import subprocess
import sys
import time
from itertools import product

from conftest import (
    ACCEPTANCE_LOG,
    adjacent,
    cli_env,
    companion_y,
    expected_cliques,
    incidence_counts,
    k_trace_classes,
    random_recipe,
    x_plane_sweep,
)

from ternions.gf import automorphisms, make_field
from ternions.linalg import SemilinearMap, join, meet, meet_dim
from ternions.model import (
    SubmoduleType,
    block6_rows,
    build_catalog,
    classify,
    classify_by_rank,
    cyclic_span,
    expected_counts,
    is_unimodular,
    scan_planes_for_x,
    validate_catalog,
)
from ternions.ternion import enumerate_pairs, random_invertible
from ternions.geometry import (
    _homothety_rows,
    build_graph,
    decompose_semilinear,
    expected_incidence_row,
    first_failed_condition,
    geodesics_from,
    incidence_table,
    induced_collineation,
    is_recipe,
    maximal_cliques,
    no_duality_certificate,
    preserver_from_collineation,
    scan_lines,
    scan_solids,
    verify_decomposition,
    verify_preserver,
    xi_report,
)


def _record(crit, ok, note):
    ACCEPTANCE_LOG.append((crit, bool(ok), note))
    assert ok, f"criterion {crit} failed: {note}"


_cat5_cache = {}


def test_criterion_01_orbit_structure():
    want_parts = {2: (18, 3, 3, 12, 3), 3: (48, 4, 4, 36, 4)}
    ok = True
    notes = []
    for q in (2, 3):
        f = make_field(q, 1)
        t0 = time.perf_counter()
        cat = build_catalog(f)
        dt = time.perf_counter() - t0
        spans = set()
        n_pairs = 0
        for v in enumerate_pairs(f):
            n_pairs += 1
            if classify(v) is not SubmoduleType.ZERO:
                spans.add(cyclic_span(v))
        parts = tuple(len(cat.members(t)) for t in (
            SubmoduleType.X, SubmoduleType.Y, SubmoduleType.ALPHA,
            SubmoduleType.BETA, SubmoduleType.GAMMA,
        ))
        ok = ok and n_pairs == q**6
        ok = ok and len(spans) == sum(parts)
        ok = ok and parts == want_parts[q]
        ok = ok and dt < 5.0
        notes.append(f"q={q} {len(spans)} submodules {parts} in {dt:.2f}s")
    f4 = make_field(2, 2)
    cat4 = build_catalog(f4)
    ok = ok and cat4.counts() == expected_counts(4)
    t0 = time.perf_counter()
    f5 = make_field(5, 1)
    cat5 = build_catalog(f5)
    dt5 = time.perf_counter() - t0
    _cat5_cache["cat"] = cat5
    ok = ok and cat5.counts() == expected_counts(5)
    ok = ok and dt5 < 120.0
    notes.append(f"q=4 ok, q=5 ok in {dt5:.2f}s")
    _record(1, ok, "; ".join(notes))


def test_criterion_02_classifier_equivalence():
    mismatches = 0
    total = 0
    for q in (2, 3):
        f = make_field(q, 1)
        for v in enumerate_pairs(f):
            total += 1
            t = classify(v)
            if classify_by_rank(cyclic_span(v)) is not t:
                mismatches += 1
            if is_unimodular(v) != (t is SubmoduleType.X):
                mismatches += 1
    _record(2, mismatches == 0, f"{total} generators exhaustive, {mismatches} mismatches")


def test_criterion_03_characterizations(cat2, cat3):
    ok = True
    notes = []
    for cat in (cat2, cat3):
        report = validate_catalog(cat)
        ok = ok and all(report.values())
        sweep = x_plane_sweep(cat) == scan_planes_for_x(cat)
        ok = ok and sweep
        notes.append(
            f"q={cat.field.q} {sum(report.values())}/{len(report)}, "
            f"X scan equals the G(6,3) sweep: {sweep}"
        )
    _record(3, ok, "; ".join(notes))


def test_criterion_04_incidence_table(cat2, cat3, cat4):
    ok = True
    notes = []
    for cat in (cat2, cat3, cat4):
        q = cat.field.q
        t0 = time.perf_counter()
        bad = 0
        for t in (
            SubmoduleType.X, SubmoduleType.Y, SubmoduleType.ALPHA,
            SubmoduleType.BETA, SubmoduleType.GAMMA,
        ):
            expect = expected_incidence_row(t, q)
            for p0 in cat.members(t):
                if incidence_counts(p0, cat) != expect:
                    bad += 1
        dt = time.perf_counter() - t0
        ok = ok and bad == 0 and incidence_table(cat)["ok"]
        if q == 4:
            ok = ok and dt < 300.0
        notes.append(f"q={q} exhaustive ({dt:.1f}s)")
    _record(4, ok, "; ".join(notes) + ", all rows match")


def test_criterion_05_adjacency_and_cliques(cat2, cat3, graph2, graph3):
    ok = True
    for cat, graph in ((cat2, graph2), (cat3, graph3)):
        classes = k_trace_classes(cat)
        want_classes = {
            c - {join(p, cat.l_line)} for p, c in zip(cat.g_alpha, expected_cliques(cat)[1:])
        }
        ok = ok and {frozenset(ms) for ms in classes.values()} == want_classes
        # X-X adjacency holds exactly within a class
        by_plane = {}
        for p, ms in classes.items():
            for m in ms:
                by_plane[m] = p
        for m1 in cat.g_x:
            for m2 in cat.g_x:
                want = m1 != m2 and by_plane[m1] == by_plane[m2]
                ok = ok and adjacent(m1, m2) == want
        got_cliques = {
            frozenset(graph.vertices[i] for i in c) for c in maximal_cliques(graph)
        }
        ok = ok and got_cliques == set(expected_cliques(cat))
        for m in cat.g_x:
            i = graph.vindex[m]
            y_nbrs = [
                graph.vertices[j]
                for j in graph.neighbours[i]
                if cat.type_of(graph.vertices[j]) is SubmoduleType.Y
            ]
            ok = ok and y_nbrs == [companion_y(m, cat)]
            ok = ok and y_nbrs == [join(meet(m, cat.k_solid), cat.l_line)]
    _record(5, ok, "classes, cliques, companions exhaustive at q=2,3")


def test_criterion_06_distances(graph2):
    cat = graph2.catalog
    nx = len(cat.g_x)
    ok = True
    n_far = 0
    for i in range(graph2.n):
        dist, paths = geodesics_from(graph2, i)
        ok = ok and all(d >= 0 for d in dist)
        if i < nx:
            for j in range(nx):
                if j != i:
                    ok = ok and dist[j] in (1, 3)
                    if j > i and dist[j] == 3:
                        n_far += 1
                        ok = ok and paths[j] == 1
    _record(6, ok, f"connected, X-X in {{1,3}}, {n_far} distance-3 pairs all unique geodesic")


def test_criterion_07_lemma_scans(cat2, cat3, cat4):
    ok = True
    notes = []
    for cat in (cat2, cat3):
        q = cat.field.q
        lines = scan_lines(cat)
        solids = scan_solids(cat)
        cert = no_duality_certificate(cat, lines=lines, solids=solids)
        ok = ok and set(lines) == set(cat.quadric.regulus_opposite)
        ok = ok and set(solids) == {cat.j_solid, cat.k_solid}
        ok = ok and len(lines) == q + 1 > 2 == len(solids)
        ok = ok and cert["duality_excluded"] is True
        notes.append(f"q={q} {len(lines)} lines/{len(solids)} solids")
    lines4 = scan_lines(cat4)
    ok = ok and set(lines4) == set(cat4.quadric.regulus_opposite)
    notes.append(f"q=4 {len(lines4)} lines")
    _record(7, ok, "; ".join(notes) + ", certificates emit q+1 > 2")


def _canonical_composite(cat, s, a, b, sigma):
    """sigma entrywise, then the homothety (a, b), then the lift of S."""
    field = cat.field
    matrix = field.kernel.matmul(_homothety_rows(a, b), block6_rows(s))
    return SemilinearMap(field, 6, matrix, sigma)


def test_criterion_08_theorem1(cat2, cat3, cat4):
    rng = random.Random(8)
    ok = True
    notes = []
    for cat in (cat2, cat3, cat4):
        field = cat.field
        auts = automorphisms(field)
        bad = 0
        for _ in range(1000):
            s = random_invertible(field, rng)
            sigma = auts[rng.randrange(len(auts))]
            f = induced_collineation(s, sigma)
            if first_failed_condition(f, cat) is not None:
                bad += 1
        ok = ok and bad == 0
        # exact decomposition round trips, bare lifts and full composites
        for i in range(20):
            s = random_invertible(field, rng)
            sigma = auts[rng.randrange(len(auts))]
            if i % 2:
                f = induced_collineation(s, sigma)
            else:
                a = rng.randrange(field.q)
                b = rng.randrange(1, field.q)
                f = _canonical_composite(cat, s, a, b, sigma)
            g = decompose_semilinear(f, cat)
            ok = ok and verify_decomposition(f, g)
        notes.append(f"q={field.q} 1000 positives")
    # the converse on the stabilizer of the standard triple T(1,0), T(0,1),
    # T(1,1), by brute force: the collineations fixing it are the
    # sigma diag(A, A), A in GL(3, q), and exactly those with
    # A = [[a, b, 0], [0, c, 0], [0, d, e]] satisfy iv, iii and ii and
    # decompose into G0
    for cat in (cat2, cat3):
        field = cat.field
        t0 = time.perf_counter()
        matrices = admissible = 0
        for entries in product(field.codes(), repeat=9):
            a = (entries[0:3], entries[3:6], entries[6:9])
            if field.kernel.rank(a) < 3:
                continue
            matrices += 1
            shaped = not (a[0][2] or a[1][2] or a[1][0] or a[2][0])
            rows = tuple(r + (0, 0, 0) for r in a) + tuple((0, 0, 0) + r for r in a)
            for sigma in automorphisms(field):
                f = SemilinearMap(field, 6, rows, sigma)
                passes = first_failed_condition(f, cat) is None
                ok = ok and passes == shaped
                if passes:
                    admissible += 1
                    ok = ok and verify_decomposition(f, decompose_semilinear(f, cat))
        q = field.q
        ok = ok and (matrices, admissible) == ({2: 168, 3: 11232}[q], q * q * (q - 1) ** 3)
        dt = time.perf_counter() - t0
        notes.append(f"q={q} {matrices} stabilizer maps, {admissible} admissible ({dt:.1f}s)")
    _record(8, ok, "; ".join(notes))


def test_criterion_09_preservers(cat2, cat3, cat4, graph2, graph3):
    # the sampled check `adj:preservers` made before it went by generators
    rng = random.Random(9)
    ok = True
    for cat, graph in ((cat2, graph2), (cat3, graph3), (cat4, build_graph(cat4))):
        nx = len(cat.g_x)
        for _ in range(100):
            perm = random_recipe(graph, rng)
            ok = ok and verify_preserver(perm, graph)
            ok = ok and is_recipe(perm, graph)
            # the orbit sets must be fixed setwise, not merely permuted together
            xs = {graph.vertices[perm[i]] for i in range(nx)}
            ys = {graph.vertices[perm[i]] for i in range(nx, graph.n)}
            ok = ok and xs == set(cat.g_x) and ys == set(cat.g_y)
        for _ in range(10):
            s = random_invertible(cat.field, rng)
            f = induced_collineation(s, automorphisms(cat.field)[0])
            perm = preserver_from_collineation(f, graph)
            ok = ok and is_recipe(perm, graph)
    _record(9, ok, "100 recipes per q=2,3,4 pass both ways; recipes and lifts are recipe permutations")


def test_criterion_10_xi(graph2, graph3):
    ok = True
    notes = []
    for graph in (graph2, graph3):
        cat = graph.catalog
        rep = xi_report(graph)
        ok = ok and rep["is_permutation"]
        ok = ok and rep["breaks_adjacency"]
        w = rep["adjacency_witness"]
        ok = ok and w is not None and w["images_meet"] in set(cat.g_beta)
        ok = ok and adjacent(w["m1"], w["m2"])
        ok = ok and rep["skew_preserved_both_ways"]
        notes.append(f"q={cat.field.q} witness found, {rep['pairs_checked']} pairs")
    _record(10, ok, "; ".join(notes) + "; skew pairs exhaustive")


def test_criterion_11_byte_identical_reports(tmp_path):
    env = cli_env()
    argv = [sys.executable, "-m", "ternions.cli", "verify", "--q", "2", "--seed", "0"]
    a = subprocess.run(argv, capture_output=True, env=env, timeout=300)
    b = subprocess.run(argv, capture_output=True, env=env, timeout=300)
    ok = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout
    report = json.loads(a.stdout)
    ok = ok and report["summary"]["ok"] is True
    _record(11, ok, f"two runs, {len(a.stdout)} bytes each, identical")
