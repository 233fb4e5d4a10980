import random
from itertools import product

import pytest
from conftest import incident

from ternions.gf import automorphisms, make_field
from ternions.linalg import (
    BudgetError,
    Correlation,
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
    projective_points,
    projective_vectors,
    subspaces_within,
    zero_subspace,
)
from ternions.model import SubmoduleType, classify, cyclic_span, distinguished_flats
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
        # compose then apply == apply then apply
        assert g.compose(h).apply(u) == g.apply(h.apply(u))
        vec = tuple(rng.randrange(4) for _ in range(4))
        assert g.compose(h).apply_vector(vec) == g.apply_vector(h.apply_vector(vec))
        gi = g.inverse()
        assert gi.apply(g.apply(u)) == u
        assert g.compose(gi).sigma.is_identity
        assert g.compose(gi).matrix == identity_map(f4, 4).matrix


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


def test_identity_map(f5):
    ident = identity_map(f5, 4)
    assert ident.sigma.is_identity
    u = canonicalize(f5, 4, [(1, 2, 3, 4)])
    assert ident.apply(u) == u


def swap_correlation(f):
    # symmetric bilinear form: reverses inclusion, squares to the identity
    m = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    return Correlation(f, 4, m, automorphisms(f)[0])


def test_correlation_reverses_inclusion(f3):
    d = swap_correlation(f3)
    rng = random.Random(47)
    for _ in range(100):
        u = rand_subspace(f3, 4, rng.randrange(1, 4), rng)
        v = rand_subspace(f3, 4, rng.randrange(1, 4), rng)
        du, dv = d.apply(u), d.apply(v)
        assert du.dim == 4 - u.dim
        if contains(u, v):
            assert contains(dv, du)
        assert d.apply(join(u, v)) == meet(du, dv)


def test_correlation_involution(f2):
    d = swap_correlation(f2)
    for k in (1, 2, 3):
        for u in enumerate_subspaces(f2, 4, k):
            assert d.apply(d.apply(u)) == u


def test_correlation_rejects_singular(f2):
    with pytest.raises(ValueError):
        Correlation(f2, 2, ((1, 0), (1, 0)), automorphisms(f2)[0])


def test_subspace_json_and_key(f2):
    u = coordinate_subspace(f2, 4, [1, 3])
    assert u.basis == ((0, 1, 0, 0), (0, 0, 0, 1))
    assert zero_subspace(f2, 4).key() < u.key()
