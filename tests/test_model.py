import random
import re
from itertools import product

import pytest

from conftest import (
    FIELD_ORDERS,
    block6_pattern_by_table,
    classify_by_containment,
    eager_catalog,
    every_field,
    is_unimodular_by_products,
    matrix_product,
    meet_j_by_kernel,
    meet_j_by_meet,
    random_ternion,
    replace_fields,
    subspaces_within,
    unit_orbit_normal_forms,
    with_orbit_lists,
    x_plane_sweep,
    x_scan_by_quotient,
)
from ternions import model
from ternions._pycore import Kernel
from ternions.cli import main
from ternions.geometry import induced_collineation
from ternions.gf import automorphisms, field_of_order, make_field
from ternions.linalg import (
    BudgetError,
    Subspace,
    canonicalize,
    contains,
    coordinate_subspace,
    enumerate_subspaces,
    gaussian_binomial,
    join,
    meet,
    meet_dim,
    projective_points,
)
from ternions.model import (
    LINE_MODEL_AXIS_COORDS,
    TYPE_ORDER,
    SubmoduleType,
    block6_rows,
    build_catalog,
    classify,
    classify_by_rank,
    cyclic_span,
    distinguished_flats,
    expected_counts,
    is_block6_patterned,
    is_unimodular,
    line_model,
    matrix2_from_block6,
    meet_j,
    normal_form_count,
    phi,
    phi_inverse,
    quadric,
    quadric_value,
    scan_planes_for_x,
    validate_catalog,
)
from ternions.ternion import (
    Ternion,
    TernionMatrix,
    act_right,
    e11,
    e12,
    e22,
    enumerate_pairs,
    enumerate_ternions,
    random_invertible,
    scale_left,
    unit_generators,
)


def _lift(s):
    """The collineation induced by right multiplication by s, no Frobenius."""
    return induced_collineation(s, automorphisms(s.field)[0])


def tpair(f, a, b):
    return (Ternion(f, *a), Ternion(f, *b))


REPRESENTATIVES = [
    ((1, 0, 1), (0, 0, 0), SubmoduleType.X, 3),
    ((0, 0, 1), (0, 1, 0), SubmoduleType.Y, 3),
    ((0, 0, 1), (0, 0, 0), SubmoduleType.ALPHA, 2),
    ((1, 0, 0), (0, 0, 0), SubmoduleType.BETA, 1),
    ((0, 1, 0), (0, 0, 0), SubmoduleType.GAMMA, 1),
]


def test_phi_round_trip(f3):
    rng = random.Random(3)
    for _ in range(50):
        v = (random_ternion(f3, rng), random_ternion(f3, rng))
        assert phi_inverse(f3, phi(v)) == v
    with pytest.raises(ValueError):
        phi_inverse(f3, (1, 2, 3))


@pytest.mark.parametrize("bad", [5, 3, -1, 1.0])
def test_phi_inverse_rejects_outside_codes(f3, bad):
    # unchecked, code 5 (or -1) reached the pair and then the basis of its
    # cyclic_span
    msg = f"coordinate {bad!r} is not among the element codes 0..2 of GF(3)"
    with pytest.raises(ValueError, match=re.escape(msg)):
        phi_inverse(f3, (1, 0, 1, 0, bad, 1))


@pytest.mark.parametrize("q", [2, 3])
def test_table_codes_build_what_the_checked_constructors_build(q):
    # sums, products and normal forms skip check_codes; every one of them
    # passes it
    f = field_of_order(q)
    ts = list(enumerate_ternions(f))
    for a, b in product(ts, repeat=2):
        for t in (a + b, a * b):
            assert t == Ternion(f, *t.triple())
    forms = list(unit_orbit_normal_forms(f))
    assert len(forms) == normal_form_count(q)
    for v in forms:
        assert v == phi_inverse(f, phi(v))
    with pytest.raises(ValueError, match=f"ternion entry {q} is not among"):
        Ternion(f, q, 0, 0)
    with pytest.raises(ValueError, match=f"coordinate {q} is not among"):
        phi_inverse(f, (q, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("a,b,want,dim", REPRESENTATIVES)
def test_representatives(f3, a, b, want, dim):
    v = tpair(f3, a, b)
    assert classify(v) is want
    assert classify_by_rank(cyclic_span(v)) is want
    assert cyclic_span(v).dim == dim
    assert is_unimodular(v) == (want is SubmoduleType.X)


def test_zero_pair(f2):
    v = tpair(f2, (0, 0, 0), (0, 0, 0))
    assert classify(v) is SubmoduleType.ZERO
    assert classify_by_rank(cyclic_span(v)) is SubmoduleType.ZERO
    assert cyclic_span(v).dim == 0


def test_classify_by_rank_matches_containment_on_points_and_planes(f2):
    # every 1- and 3-subspace of F^6 at q = 2, cyclic span or not
    for k in (1, 3):
        for s in enumerate_subspaces(f2, 6, k):
            assert classify_by_rank(s) is classify_by_containment(s)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_classify_by_rank_matches_containment_on_the_catalog(q):
    cat = build_catalog(field_of_order(q))
    for s in cat.witness:
        assert classify_by_rank(s) is classify_by_containment(s) is cat.type_of(s)


def test_classify_by_rank_makes_no_kernel_call(cat3, monkeypatch):
    calls = []
    for name in ("rref", "rank", "stack_rank", "meet", "matmul", "nullspace", "vec_apply"):
        real = getattr(Kernel, name)

        def counted(self, *args, _name=name, _real=real):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(Kernel, name, counted)
    assert [classify_by_rank(s) for s in cat3.witness] == [cat3.type_of(s) for s in cat3.witness]
    assert calls == []


def test_meet_j_matches_the_meet_on_every_plane_at_q2(f2):
    # every 3-subspace of F^6: M ^ J may be a point, a line or a plane
    dims = set()
    for m in enumerate_subspaces(f2, 6, 3):
        got = meet_j(m)
        assert got == meet_j_by_meet(m)
        dims.add(len(got))
    assert dims == {1, 2, 3}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_meet_j_matches_the_meet_on_every_x_plane(q):
    cat = build_catalog(field_of_order(q))
    for m in cat.g_x:
        got = meet_j(m)
        assert got == meet_j_by_meet(m) == meet_j_by_kernel(m)
        assert got == line_model(cat.witness[m]).basis


@pytest.mark.parametrize("q", [2, 3])
def test_classifiers_agree_exhaustive(q):
    f = make_field(q, 1)
    for v in enumerate_pairs(f):
        t = classify(v)
        assert classify_by_rank(cyclic_span(v)) is t
        assert is_unimodular(v) == (t is SubmoduleType.X)


def test_unimodular_matches_products_exhaustive_q2(f2):
    assert all(is_unimodular(v) == is_unimodular_by_products(v) for v in enumerate_pairs(f2))


@pytest.mark.parametrize("q", [4, 5])
def test_unimodular_matches_products_on_normal_forms(q):
    # the normal forms, on which the walk of `model:unimodular` ranks the
    # rows, and their images under the unit generators, on which
    # `unit_invariance` proves the rank constant
    f = field_of_order(q)
    units = unit_generators(f)
    for v in unit_orbit_normal_forms(f):
        for w in [v] + [scale_left(u, v) for u in units]:
            assert is_unimodular(w) == is_unimodular_by_products(w)


def _matrix_unit_span(v):
    """The span of e11 v, e12 v and e22 v, multiplied out with scale_left."""
    f = v[0].field
    return canonicalize(f, 6, [phi(scale_left(e(f), v)) for e in (e11, e12, e22)])


@pytest.mark.parametrize("q", [2, 3])
def test_cyclic_span_rows_are_matrix_unit_products(q):
    f = make_field(q, 1)
    for v in enumerate_pairs(f):
        assert cyclic_span(v) == _matrix_unit_span(v)


def test_span_is_left_module(f2):
    # the span really is closed under left scaling
    from ternions.ternion import enumerate_ternions, scale_left

    for v in enumerate_pairs(f2):
        span = cyclic_span(v)
        for t in enumerate_ternions(f2):
            w = phi(scale_left(t, v))
            assert contains(span, canonicalize(f2, 6, (w,)))


def test_distinguished_flats(f3):
    j, k, l = distinguished_flats(f3)
    assert j == coordinate_subspace(f3, 6, (0, 1, 3, 4))
    assert k == coordinate_subspace(f3, 6, (1, 2, 4, 5))
    assert l == meet(j, k)
    assert l.dim == 2


def test_quadric_structure(f3):
    q = 3
    geo = quadric(f3)
    j, k, l = distinguished_flats(f3)
    assert len(geo.point_vectors) == (q + 1) ** 2
    assert len(geo.regulus_alpha) == q + 1
    assert len(geo.regulus_opposite) == q + 1
    assert l in geo.regulus_opposite
    assert l not in geo.regulus_alpha
    for m in geo.regulus_alpha + geo.regulus_opposite:
        assert contains(k, m)
        for p in projective_points(m):
            assert quadric_value(f3, p.basis[0]) == 0
    # lines of one regulus are pairwise skew, lines of different reguli meet
    for a in geo.regulus_alpha:
        for b in geo.regulus_alpha:
            if a != b:
                assert meet_dim(a, b) == 0
        for o in geo.regulus_opposite:
            assert meet_dim(a, o) == 1
    # every quadric point lies on exactly one line of each family
    for p in (Subspace(f3, 6, (v,)) for v in geo.point_vectors):
        assert sum(1 for m in geo.regulus_alpha if contains(m, p)) == 1
        assert sum(1 for m in geo.regulus_opposite if contains(m, p)) == 1


def test_block6_homomorphism(f2):
    rng = random.Random(7)
    k = f2.kernel
    for _ in range(40):
        s = random_invertible(f2, rng)
        t = random_invertible(f2, rng)
        assert block6_rows(matrix_product(s, t)) == k.matmul(block6_rows(s), block6_rows(t))


def test_block6_equivariance(f3):
    # Phi intertwines the right action with the lift
    rng = random.Random(11)
    for _ in range(60):
        v = (random_ternion(f3, rng), random_ternion(f3, rng))
        s = random_invertible(f3, rng)
        lift = _lift(s)
        assert phi(act_right(v, s)) == lift.apply_vector(phi(v))


def test_block6_preserves_flats(f3):
    rng = random.Random(13)
    j, k, l = distinguished_flats(f3)
    for _ in range(30):
        lift = _lift(random_invertible(f3, rng))
        assert lift.apply(j) == j
        assert lift.apply(k) == k
        assert lift.apply(l) == l


def test_block6_fixes_opposite_permutes_alpha(f2):
    rng = random.Random(17)
    geo = quadric(f2)
    for _ in range(20):
        lift = _lift(random_invertible(f2, rng))
        for m in geo.regulus_opposite:
            assert lift.apply(m) == m
        assert {lift.apply(m) for m in geo.regulus_alpha} == set(geo.regulus_alpha)


def test_block6_pattern_round_trip(f3):
    rng = random.Random(19)
    for _ in range(40):
        s = random_invertible(f3, rng)
        rows = block6_rows(s)
        assert is_block6_patterned(rows)
        assert matrix2_from_block6(f3, rows) == s
    not_lift = tuple(tuple(1 if i == j else 0 for j in range(6)) for i in range(6))
    broken = (not_lift[0][:2] + (1,) + not_lift[0][3:],) + not_lift[1:]
    assert not is_block6_patterned(broken)
    with pytest.raises(ValueError):
        matrix2_from_block6(f3, broken)


def _one_entry_changed(rows, q):
    """Every matrix that differs from rows in exactly one entry."""
    for i, row in enumerate(rows):
        for j in range(6):
            for c in range(q):
                if c != row[j]:
                    yield rows[:i] + (row[:j] + (c,) + row[j + 1:],) + rows[i + 1:]


def test_lift_rule_matches_pattern_table():
    # the lift rebuilt from the 12 carried entries against the zero/tie
    # table: every lift over GF(2), and a seeded sample of lifts over GF(3)
    # (all 3^12 of them would be 38.8 million matrices with their changes),
    # each with every single entry changed
    rng = random.Random(29)
    f2, f3 = make_field(2), make_field(3)
    samples = [(f2, codes) for codes in product(range(2), repeat=12)]
    samples += [(f3, [rng.randrange(3) for _ in range(12)]) for _ in range(150)]
    for field, codes in samples:
        s = TernionMatrix(*(Ternion(field, *codes[i:i + 3]) for i in range(0, 12, 3)))
        lift = block6_rows(s)
        assert is_block6_patterned(lift) and block6_pattern_by_table(lift)
        assert matrix2_from_block6(field, lift) == s
        for rows in _one_entry_changed(lift, field.q):
            assert is_block6_patterned(rows) == block6_pattern_by_table(rows)
    # matrix2_from_block6 refuses the changes of the last GF(3) lift that
    # are not lifts
    for rows in _one_entry_changed(lift, 3):
        if not is_block6_patterned(rows):
            with pytest.raises(ValueError, match="lift pattern"):
                matrix2_from_block6(f3, rows)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_lift_rule_on_random_matrices(q):
    rng = random.Random(31 + q)
    for _ in range(2000):
        rows = tuple(tuple(rng.randrange(q) for _ in range(6)) for _ in range(6))
        assert is_block6_patterned(rows) == block6_pattern_by_table(rows)


def test_block6_lift_requires_invertible(f2):
    z = Ternion(f2, 0, 0, 0)
    from ternions.ternion import TernionMatrix

    with pytest.raises(ValueError):
        _lift(TernionMatrix(z, z, z, z))


def test_line_model_well_defined_q2(f2):
    # generators with the same span give the same line; image is the
    # special linear complex minus the axis
    span_to_line = {}
    for v in enumerate_pairs(f2):
        if classify(v) is not SubmoduleType.X:
            continue
        line = line_model(v)
        span = cyclic_span(v)
        assert span_to_line.setdefault(span, line) == line
    axis = coordinate_subspace(f2, 4, LINE_MODEL_AXIS_COORDS)
    image = set(span_to_line.values())
    complex_lines = {
        m
        for m in enumerate_subspaces(f2, 4, 2)
        if m != axis and meet_dim(m, axis) == 1
    }
    assert image == complex_lines
    assert len(image) == expected_counts(2)["X"]


def test_line_model_rejects_non_unimodular(f2):
    with pytest.raises(ValueError):
        line_model(tpair(f2, (0, 0, 1), (0, 1, 0)))


@pytest.mark.parametrize("q", [2, 3])
def test_catalog_counts(q, cat2, cat3):
    cat = {2: cat2, 3: cat3}[q]
    assert cat.counts() == expected_counts(q)
    assert len(cat.planes) == len(cat.g_x) + len(cat.g_y)


def test_catalog_index_and_witness(cat2):
    for t in SubmoduleType:
        if t is SubmoduleType.ZERO:
            continue
        for s in cat2.members(t):
            assert cat2.type_of(s) is t
            v = cat2.witness[s]
            assert cyclic_span(v) == s
    assert cat2.type_of(coordinate_subspace(cat2.field, 6, (0,))) in (
        SubmoduleType.BETA,
        None,
    )


@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_traces(which, cat2, cat3, cat4, cat5):
    # (M ^ J, M ^ K) on every X plane, (L, P) on every Y plane P + L
    cat = {2: cat2, 3: cat3, 4: cat4, 5: cat5}[which]
    assert list(cat.traces) == list(cat.planes)
    for m in cat.g_x:
        assert cat.traces[m] == (meet(m, cat.j_solid), meet(m, cat.k_solid))
    for p in cat.g_alpha:
        assert cat.traces[join(p, cat.l_line)] == (cat.l_line, p)
    assert {join(p, cat.l_line) for p in cat.g_alpha} == set(cat.g_y)


def test_traces_budget_counts_row_reductions(cat2):
    # two row reductions per plane
    assert len(replace_fields(cat2, budget=42).traces) == 21
    with pytest.raises(BudgetError, match="enumerating 42 plane traces"):
        replace_fields(cat2, budget=41).traces


def test_doctored_catalog_gets_fresh_traces(cat2):
    traces = dict(cat2.traces)
    fewer = replace_fields(cat2, g_x=cat2.g_x[1:])
    assert list(fewer.traces) == list(fewer.planes)
    assert all(fewer.traces[m] == traces[m] for m in fewer.planes)
    assert cat2.traces == traces


@pytest.mark.parametrize("which", [2, 3])
def test_marked_planes(which, cat2, cat3):
    # the marked planes P + L, one per alpha regulus line, are the Y planes
    cat = {2: cat2, 3: cat3}[which]
    marked = [join(p, cat.l_line) for p in cat.g_alpha]
    assert sorted(marked, key=Subspace.key) == list(cat.g_y)


def test_validate_catalog_report(cat3):
    report = validate_catalog(cat3)
    for key, val in report.items():
        assert val is True, key


@pytest.mark.parametrize("q", [2, 3])
def test_x_scan_matches_grassmannian_sweep(q, cat2, cat3):
    cat = {2: cat2, 3: cat3}[q]
    assert scan_planes_for_x(cat) == x_plane_sweep(cat) == frozenset(cat.g_x)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_x_scan_matches_catalog(q):
    cat = build_catalog(field_of_order(q))
    assert scan_planes_for_x(cat) == frozenset(cat.g_x) == x_scan_by_quotient(cat)


def test_x_scan_budget_counts_candidates(cat2):
    # 3 alpha lines x the 7 points of a complement of its L-point in J, one
    # of which gives P + L; 18 planes are found
    assert len(scan_planes_for_x(replace_fields(cat2, budget=21))) == 18
    with pytest.raises(BudgetError, match="21 X-scan candidates"):
        scan_planes_for_x(replace_fields(cat2, budget=20))


def _pair_walk_catalog(field):
    """The catalog by the q^6 walk: per span, the first generator pair in
    enumerate_pairs order, bucketed by type."""
    buckets = {t: {} for t in SubmoduleType if t is not SubmoduleType.ZERO}
    for v in enumerate_pairs(field):
        t = classify(v)
        if t is not SubmoduleType.ZERO:
            buckets[t].setdefault(_matrix_unit_span(v), v)
    return buckets


@pytest.mark.parametrize("which", [2, 3, 4, 5])
def test_catalog_matches_pair_walk(which, cat2, cat3, cat4, cat5):
    cat = {2: cat2, 3: cat3, 4: cat4, 5: cat5}[which]
    walk = _pair_walk_catalog(cat.field)
    for t, spans in walk.items():
        assert cat.members(t) == tuple(sorted(spans, key=Subspace.key)), t.value
    assert cat.witness == {s: v for spans in walk.values() for s, v in spans.items()}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_normal_form_count(q):
    forms = list(unit_orbit_normal_forms(field_of_order(q)))
    assert len(forms) == (q**3 + q**2 + q + 1) + (q + 1) * (q**2 + q + 2)
    assert len(forms) == sum(expected_counts(q).values())
    assert len(set(map(phi, forms))) == len(forms)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_normal_forms_are_orbit_minima(q):
    # enumerate_pairs order is the lexicographic order of phi
    f = field_of_order(q)
    units = [Ternion(f, x, y, z) for x, y, z in product(f.codes(), repeat=3) if x and z]
    for v in unit_orbit_normal_forms(f):
        assert min(phi(scale_left(u, v)) for u in units) == phi(v)


def test_build_catalog_budget(f4):
    # 85 + 5 * 22 = 195 normal forms at q = 4
    assert normal_form_count(4) == 195
    assert build_catalog(f4, budget=195).counts() == expected_counts(4)
    with pytest.raises(BudgetError, match="195"):
        build_catalog(f4, budget=194)


def test_orbits_are_transitive_q2(cat2):
    # the lifted group permutes each orbit list transitively
    f = cat2.field
    base = {
        SubmoduleType.X: cat2.g_x[0],
        SubmoduleType.Y: cat2.g_y[0],
        SubmoduleType.ALPHA: cat2.g_alpha[0],
        SubmoduleType.BETA: cat2.g_beta[0],
        SubmoduleType.GAMMA: cat2.g_gamma[0],
    }
    reach = {t: set() for t in base}
    for codes in product(f.codes(), repeat=12):
        s = TernionMatrix(*(Ternion(f, *codes[i:i + 3]) for i in range(0, 12, 3)))
        if not s.is_invertible:
            continue
        lift = _lift(s)
        for t, rep in base.items():
            reach[t].add(lift.apply(rep))
    for t, got in reach.items():
        assert got == set(cat2.members(t)), t.value


@pytest.mark.parametrize("q", [2, 3, 4])
def test_quadric_lines_match_k_line_sweep(q):
    # reference: every line of K whose points all lie on H
    f = field_of_order(q)
    j, k, l = distinguished_flats(f)
    geo = quadric(f)
    vecs = geo.point_vectors
    lines = {
        m for m in subspaces_within(k, 2)
        if all(p.basis[0] in vecs for p in projective_points(m))
    }
    opposite = {m for m in lines if m == l or meet_dim(m, l) == 0}
    assert geo.regulus_opposite == tuple(sorted(opposite, key=Subspace.key))
    assert geo.regulus_alpha == tuple(sorted(lines - opposite, key=Subspace.key))


def test_quadric_alpha_matches_catalog(cat2, cat3):
    for cat in (cat2, cat3):
        assert set(cat.g_alpha) == set(cat.quadric.regulus_alpha)


def test_quadric_is_built_only_where_it_is_read(f3):
    # graph and enumerate read no claim on the reguli or condition iv
    model.quadric.cache_clear()
    assert main(["graph", "--q", "3", "--format", "json"]) == 0
    assert main(["enumerate", "--q", "3"]) == 0
    assert model.quadric.cache_info().currsize == 0
    assert "quadric" not in build_catalog(f3).__dict__
    assert main(["verify", "--q", "3", "--suite", "counts"]) == 0
    assert model.quadric.cache_info().misses == 1


def test_points_are_built_only_where_they_are_read(f3, monkeypatch):
    # the export of the graph and the listing of a set of planes read no
    # beta or gamma point: no normal form with a zero tail is spanned
    dims = []
    real = model.cyclic_span
    monkeypatch.setattr(model, "cyclic_span", lambda v: dims.append(real(v).dim) or real(v))
    assert main(["graph", "--q", "7", "--format", "json"]) == 0
    assert main(["enumerate", "--q", "7", "--set", "gx"]) == 0
    assert dims and 1 not in dims
    assert not {"_points", "g_beta", "g_gamma", "witness"} & build_catalog(f3).__dict__.keys()
    assert main(["enumerate", "--q", "2", "--set", "gbeta"]) == 0
    assert dims.count(1) == 12 + 3  # the beta points and, built with them, the gamma points


@pytest.mark.parametrize("f", every_field(9), ids=lambda f: f"q{f.q}-{f.modulus}")
def test_points_built_on_first_read_match_the_eager_catalog(f):
    lists, witness = eager_catalog(f)
    cat = build_catalog(f)
    assert [cat.members(t) for t in TYPE_ORDER] == [lists[t] for t in TYPE_ORDER]
    assert list(cat.witness.items()) == list(witness.items())
    assert all(cat.witness_of(s) == v for s, v in witness.items())


def test_assigned_point_lists_stand_in_for_the_built_ones(cat2):
    short = with_orbit_lists(cat2, g_beta=cat2.g_beta[1:])
    assert short.members(SubmoduleType.BETA) == cat2.g_beta[1:]
    assert short.g_gamma == cat2.g_gamma
    assert short.counts() == dict(expected_counts(2), beta=11)
    assert cat2.g_beta[0] not in short.index
    assert validate_catalog(short)["beta_is_j_minus_l"] is False


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_alpha_trace_rows_are_reduced(q):
    # e12 w and e22 w, read by `Catalog.traces` as the reduced basis of the
    # alpha line, for every normal form with a nonzero tail, so for every
    # plane witness
    f = field_of_order(q)
    for v in model._nonzero_tail_normal_forms(f):
        rows = model._span_rows(v)[1:]
        assert rows == f.kernel.rref(rows)


def test_expected_counts_closed_form():
    assert expected_counts(2) == {"X": 18, "Y": 3, "alpha": 3, "beta": 12, "gamma": 3}
    assert expected_counts(3) == {"X": 48, "Y": 4, "alpha": 4, "beta": 36, "gamma": 4}
    assert expected_counts(5) == {"X": 180, "Y": 6, "alpha": 6, "beta": 150, "gamma": 6}
