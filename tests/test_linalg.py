import pickle
import random
from itertools import product

import pytest
from conftest import (
    incident,
    pencil_per_member,
    point_vectors_per_point,
    replace_fields,
    run_suites,
    subspaces_within,
)

import ternions.geometry as geometry
import ternions.linalg as linalg
import ternions.model as model
import ternions.suites as suites
from ternions._pycore import Kernel
from ternions.gf import automorphisms, field_of_order, make_field
from ternions.linalg import (
    BudgetError,
    SemilinearMap,
    Subspace,
    canonicalize,
    complement_in,
    contains,
    coordinate_subspace,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    identity_map,
    join,
    meet,
    meet_dim,
    pencil,
    point_vectors,
    projective_points,
    projective_vectors,
    zero_subspace,
)
from ternions.model import (
    SubmoduleType,
    classify,
    cyclic_span,
    distinguished_flats,
    phi_inverse,
)
from ternions.ternion import Ternion


def rand_subspace(field, n, k, rng):
    kern = field.kernel
    while True:
        rows = tuple(
            tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(k)
        )
        r = kern.rref(rows)
        if len(r) == k:
            return Subspace(field, n, r)


def test_canonicalize_validates(f2):
    with pytest.raises(ValueError):
        canonicalize(f2, 3, [(1, 0)])
    with pytest.raises(ValueError):
        canonicalize(f2, 2, [(1, 7)])
    s = canonicalize(f2, 3, [(1, 1, 0), (1, 1, 0), (0, 0, 0)])
    assert s.dim == 1


@pytest.mark.parametrize("bad", [0.5, 1.0])
def test_boundaries_reject_non_integer_codes(f2, f3, bad):
    # 1.0 compares equal to the code 1, so a range check alone lets it in;
    # unchecked, it ends up in a basis or in a TypeError from the kernel
    with pytest.raises(ValueError, match="element code"):
        canonicalize(f3, 2, [(bad, 2)])
    with pytest.raises(ValueError, match="element code"):
        canonicalize(f3, 2, [(1, 2), (0, bad)])
    ident = automorphisms(f2)[0]
    for m in (((bad, 0), (0, 1)), ((1, 0), (0, bad))):
        with pytest.raises(ValueError, match="element codes"):
            SemilinearMap(f2, 2, m, ident)


@pytest.mark.parametrize("bad", [True, False])
def test_boundaries_reject_bool_codes(f2, f3, bad):
    # a bool is an int, so an isinstance check let it in: it stayed in a
    # basis row or a pair, and the JSON writer spelled it true or false
    cases = (
        lambda: canonicalize(f3, 3, [(bad, 0, 2)]),
        lambda: Ternion(f3, 1, bad, 1),
        lambda: phi_inverse(f3, (bad, 0, 0, 0, 0, 0)),
        lambda: SemilinearMap(f2, 2, ((1, 0), (0, bad)), automorphisms(f2)[0]),
        lambda: make_field(2, 2, (1, bad, 1)),
    )
    for build in cases:
        with pytest.raises(ValueError, match=f"{bad!r} is not among the element codes"):
            build()


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 1, 3) == 40
    assert gaussian_binomial(6, 1, 2) == 63
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(3, 0, 5) == 1
    assert gaussian_binomial(3, 4, 5) == 0
    # symmetry
    for n in range(6):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 3) == gaussian_binomial(n, n - k, 3)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 3, 1), (2, 5, 3), (4, 3, 2)])
def test_enumerate_subspaces_complete(q, n, k):
    p = 2 if q in (2, 4) else q
    kdeg = 2 if q == 4 else 1
    f = make_field(p, kdeg)
    seen = set(s.basis for s in enumerate_subspaces(f, n, k))
    assert len(seen) == gaussian_binomial(n, k, f.q)
    for b in seen:
        assert len(b) == k
        assert f.kernel.rref(b) == b


def test_projective_points(f3):
    u = full_space(f3, 3)
    pts = projective_points(u)
    assert len(pts) == gaussian_binomial(3, 1, 3)
    assert len(set(p.basis for p in pts)) == len(pts)
    line = canonicalize(f3, 3, [(1, 0, 2), (0, 1, 1)])
    assert len(projective_points(line)) == 4
    for p in projective_points(line):
        assert contains(line, p)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_projective_points_match_one_row_rref(p, k):
    f = make_field(p, k)
    q = f.q
    kern = f.kernel
    j, k_solid, _ = distinguished_flats(f)
    v = (Ternion(f, q - 1, 1, 2 % q), Ternion(f, 1, q - 1, 1))
    assert classify(v) is SubmoduleType.X
    for u in (j, k_solid, cyclic_span(v)):
        old = [
            Subspace(f, 6, kern.rref((kern.vec_apply(c, u.basis),)))
            for c in projective_vectors(f, u.dim)
        ]
        assert projective_points(u) == old


def test_meet_join_dims(f2):
    rng = random.Random(31)
    for _ in range(200):
        u = rand_subspace(f2, 5, rng.randrange(1, 4), rng)
        v = rand_subspace(f2, 5, rng.randrange(1, 4), rng)
        m = meet(u, v)
        j = join(u, v)
        assert m.dim + j.dim == u.dim + v.dim
        assert meet_dim(u, v) == m.dim
        assert contains(u, m) and contains(v, m)
        assert contains(j, u) and contains(j, v)


def test_incident(f2):
    a = coordinate_subspace(f2, 4, [0])
    b = coordinate_subspace(f2, 4, [0, 1])
    c = coordinate_subspace(f2, 4, [2])
    assert incident(a, b) and incident(b, a)
    assert not incident(c, b)
    assert incident(a, a)


def test_complement_in(f2, f3):
    rng = random.Random(37)
    for _ in range(100):
        w = rand_subspace(f3, 4, 3, rng)
        u = canonicalize(f3, 4, w.basis[:1])
        ext = complement_in(u, w)
        assert len(ext) == w.dim - u.dim
        assert join(u, canonicalize(f3, 4, ext)) == w
    with pytest.raises(ValueError):
        complement_in(coordinate_subspace(f3, 4, [0]), coordinate_subspace(f2, 4, [0, 1]))


def test_subspaces_within(f2):
    u = canonicalize(f2, 6, [(1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1), (0, 0, 1, 1, 0, 0)])
    planes = subspaces_within(u, 2)
    assert len(planes) == gaussian_binomial(3, 2, 2)
    for s in planes:
        assert s.dim == 2 and contains(u, s)


def test_pencil(f3):
    v = coordinate_subspace(f3, 4, [0])
    w = full_space(f3, 4)
    mids = pencil(v, w, 2)
    # interval [point, space]_2: count is lines through a point of PG(3,3)
    assert len(mids) == gaussian_binomial(3, 1, 3)
    for s in mids:
        assert contains(s, v) and contains(w, s)
    # proper pencil has q+1 members
    line = coordinate_subspace(f3, 4, [0, 1, 2])
    assert len(pencil(v, line, 2)) == 4
    assert pencil(v, line, 3) == [line]
    assert pencil(v, line, 4) == []
    with pytest.raises(ValueError):
        pencil(coordinate_subspace(f3, 4, [3]), line, 2)


def _subspaces(field, n):
    return [u for k in range(n + 1) for u in enumerate_subspaces(field, n, k)]


@pytest.mark.parametrize("q", [2, 3])
def test_point_vectors_match_one_product_per_point(q):
    for u in _subspaces(field_of_order(q), 4):
        assert point_vectors(u) == point_vectors_per_point(u)


@pytest.mark.parametrize("q", [2, 3])
def test_pencil_matches_one_product_per_member(q):
    # every interval [v, w]_k of subspaces v <= w of F^4, k from dim v - 1
    # to dim w + 1
    subs = _subspaces(field_of_order(q), 4)
    pairs = 0
    for w in subs:
        for v in subs:
            if v.dim <= w.dim and contains(w, v):
                pairs += 1
                for k in range(v.dim - 1, w.dim + 2):
                    assert pencil(v, w, k) == pencil_per_member(v, w, k)
    # the d-subspaces w of F^4, times the subspaces of each
    gb = gaussian_binomial
    assert pairs == sum(gb(4, d, q) * sum(gb(d, k, q) for k in range(d + 1)) for d in range(5))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_pencils_and_points_of_a_verify_run_match_the_per_call_paths(q, monkeypatch):
    # every pencil and point list `verify` builds, H's included
    calls = []

    def recorded(real, reference):
        def call(*args):
            out = real(*args)
            calls.append(real.__name__)
            assert out == reference(*args)
            return out

        return call

    references = {"pencil": pencil_per_member, "point_vectors": point_vectors_per_point}
    for name, reference in references.items():
        real = getattr(linalg, name)
        for mod in (linalg, model, geometry, suites):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, recorded(real, reference))
    model.quadric.cache_clear()
    claims = run_suites(suites.VerifyContext(field_of_order(q)), suites.SUITE_NAMES)
    model.quadric.cache_clear()
    assert all(c["ok"] for c in claims)
    assert {"pencil", "point_vectors"} <= set(calls)


def test_point_vectors_and_pencil_make_one_product(f3, monkeypatch):
    calls = []
    real = Kernel.matmul

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(Kernel, "matmul", counted)
    space = full_space(f3, 4)
    assert len(point_vectors(space)) == 40 and len(calls) == 1
    point = coordinate_subspace(f3, 4, [0])
    assert point_vectors(point) == [(1, 0, 0, 0)] and len(calls) == 1  # a point makes none
    assert len(pencil(point, space, 2)) == 13 and len(calls) == 2
    assert len(pencil(zero_subspace(f3, 4), space, 3)) == 40 and len(calls) == 3


def test_budget(f2):
    with pytest.raises(BudgetError):
        list(enumerate_subspaces(f2, 16, 8, budget=1000))
    # explicit budget overrides the default
    assert sum(1 for _ in enumerate_subspaces(f2, 4, 2, budget=100)) == 35


def test_semilinear_apply_and_compose(f4):
    rng = random.Random(41)
    auts = automorphisms(f4)
    kern = f4.kernel

    def rand_map():
        while True:
            m = tuple(tuple(rng.randrange(4) for _ in range(4)) for _ in range(4))
            if kern.rank(m) == 4:
                return SemilinearMap(f4, 4, m, auts[rng.randrange(len(auts))])

    for _ in range(40):
        g = rand_map()
        h = rand_map()
        u = rand_subspace(f4, 4, 2, rng)
        # the image of a subspace is spanned by the images of its basis rows
        images = [g.apply_vector(h.apply_vector(r)) for r in u.basis]
        assert g.apply(h.apply(u)) == canonicalize(f4, 4, images)
        # sigma entrywise, then the row times the matrix, by field operations
        vec = tuple(rng.randrange(4) for _ in range(4))
        want = [0] * 4
        for c, row in zip(vec, g.matrix):
            want = [f4.add(w, f4.mul(g.sigma.table[c], x)) for w, x in zip(want, row)]
        assert g.apply_vector(vec) == tuple(want)


def test_semilinear_preserves_lattice(f3):
    rng = random.Random(43)
    kern = f3.kernel
    while True:
        m = tuple(tuple(rng.randrange(3) for _ in range(5)) for _ in range(5))
        if kern.rank(m) == 5:
            break
    g = SemilinearMap(f3, 5, m, automorphisms(f3)[0])
    for _ in range(50):
        u = rand_subspace(f3, 5, 2, rng)
        v = rand_subspace(f3, 5, 3, rng)
        assert g.apply(meet(u, v)) == meet(g.apply(u), g.apply(v))
        assert g.apply(join(u, v)) == join(g.apply(u), g.apply(v))
        assert g.apply(u).dim == u.dim


def test_semilinear_rejects_singular(f2):
    with pytest.raises(ValueError):
        SemilinearMap(f2, 2, ((1, 1), (1, 1)), automorphisms(f2)[0])


@pytest.mark.parametrize("bad", [2, 3, 5, -1])
def test_semilinear_rejects_codes_out_of_range(f2, bad):
    # the kernel does not check codes: unchecked, a code >= q ends in an
    # IndexError from its tables and -1 is read as the last code
    ident = automorphisms(f2)[0]
    for i, j in ((0, 0), (1, 0), (1, 1)):
        m = [[1, 0], [0, 1]]
        m[i][j] = bad
        with pytest.raises(ValueError, match="element codes"):
            SemilinearMap(f2, 2, tuple(map(tuple, m)), ident)


def test_identity_map(f5):
    ident = identity_map(f5, 4)
    assert ident.sigma.is_identity
    u = canonicalize(f5, 4, [(1, 2, 3, 4)])
    assert ident.apply(u) == u


def test_subspace_json_and_key(f2):
    u = coordinate_subspace(f2, 4, [1, 3])
    assert u.basis == ((0, 1, 0, 0), (0, 0, 0, 1))
    assert zero_subspace(f2, 4).key() < u.key()


def test_subspace_hash_is_cached(f3):
    s = canonicalize(f3, 6, [[1, 2, 0, 0, 1, 0], [0, 0, 1, 1, 0, 2]])
    want = hash((s.n, s.basis))
    assert hash(s) == want
    assert {s: 1}[s] == 1
    assert hash(s) == want
    # built separately, equal and equally hashed
    t = canonicalize(f3, 6, [[1, 2, 1, 1, 1, 2], [0, 0, 2, 2, 0, 1]])
    assert t == s and hash(t) == want
    # a replaced basis is hashed afresh
    u = replace_fields(s, basis=s.basis[:1])
    assert hash(u) == hash((u.n, u.basis)) != want
    assert s._hash == want  # kept after the first use
    # the positional constructor order is (field, n, basis)
    v = Subspace(f3, 6, s.basis)
    assert (v.field, v.n, v.basis) == (f3, 6, s.basis) and v == s
    assert repr(s) == "Sub(6,2)[(1, 2, 0, 0, 1, 0), (0, 0, 1, 1, 0, 2)]"
    back = pickle.loads(pickle.dumps(s))
    assert back == s and hash(back) == want
