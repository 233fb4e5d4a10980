import random
from itertools import product

import pytest

from ternions.gf import make_field
from ternions.ternion import (
    Ternion,
    TernionMatrix,
    act_right,
    e11,
    e12,
    e22,
    enumerate_pairs,
    enumerate_ternions,
    iota,
    matrix_identity,
    random_invertible,
    random_ternion,
    scale_left,
    t_one,
    t_zero,
)


def all_triples(f):
    return [Ternion(f, x, y, z) for x, y, z in product(f.codes(), repeat=3)]


def test_ring_laws_exhaustive_q2(f2):
    ts = all_triples(f2)
    one = t_one(f2)
    zero = t_zero(f2)
    for a in ts:
        assert a + zero == a
        assert a * one == a
        assert one * a == a
        assert a - a == zero
        for b in ts:
            assert a + b == b + a
            for c in ts:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + b) * c == a * c + b * c


def test_ring_laws_sampled_q3(f3):
    rng = random.Random(11)
    for _ in range(300):
        a = random_ternion(f3, rng)
        b = random_ternion(f3, rng)
        c = random_ternion(f3, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a - b == a + (-b)


def test_mul_matches_matrix_mul(f3):
    # the triple product must agree with literal 2x2 matrix multiplication
    k = f3.kernel
    rng = random.Random(5)

    def rows(t):  # the 2x2 coded matrix, structural zero included
        return ((t.x, t.y), (0, t.z))

    for _ in range(200):
        a = random_ternion(f3, rng)
        b = random_ternion(f3, rng)
        assert rows(a * b) == k.matmul(rows(a), rows(b))


def test_noncommutative(f2):
    a = e11(f2)
    b = e12(f2)
    assert a * b != b * a
    assert (a * b).triple() == (0, 1, 0)
    assert (b * a).is_zero


def test_units(f2, f3):
    for f in (f2, f3):
        units = [t for t in enumerate_ternions(f) if t.is_unit]
        assert len(units) == (f.q - 1) ** 2 * f.q


def test_mixed_fields_rejected(f2, f3):
    with pytest.raises(ValueError):
        t_one(f2) + t_one(f3)


def center(f):
    one = t_one(f)
    return [
        t
        for t in enumerate_ternions(f)
        if all(t * s == s * t for s in enumerate_ternions(f))
    ]


def test_center_is_scalar_diagonal(f2, f3):
    for f in (f2, f3):
        got = {t.triple() for t in center(f)}
        assert got == {(c, 0, c) for c in f.codes()}


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (2, 2)])
def test_iota_antiautomorphism(q, k):
    f = make_field(q, k)
    ts = all_triples(f)
    for a in ts:
        assert iota(iota(a)) == a
        for b in ts:
            assert iota(a + b) == iota(a) + iota(b)
            assert iota(a * b) == iota(b) * iota(a)
    # center elements are fixed points
    for c in f.codes():
        z = Ternion(f, c, 0, c)
        assert iota(z) == z


def test_scale_left_action(f3):
    rng = random.Random(7)
    for _ in range(100):
        s = random_ternion(f3, rng)
        t = random_ternion(f3, rng)
        v = (random_ternion(f3, rng), random_ternion(f3, rng))
        assert scale_left(s * t, v) == scale_left(s, scale_left(t, v))
        left = scale_left(s + t, v)
        right = (
            scale_left(s, v)[0] + scale_left(t, v)[0],
            scale_left(s, v)[1] + scale_left(t, v)[1],
        )
        assert left == right


def test_enumerate_pairs_count(f2):
    assert sum(1 for _ in enumerate_pairs(f2)) == 2**6


def test_det_factors_match_rank_exhaustive_q2(f2):
    # invertibility of the 2x2 ternion matrix == full rank of its 4x4 form,
    # over all 4096 matrices; the 4x4 determinant is the product of the
    # two factors, and the unit group has ((q^2-1)(q^2-q))^2 q^4 elements
    k = f2.kernel
    n_inv = 0
    for codes in product(f2.codes(), repeat=12):
        m = TernionMatrix(*(Ternion(f2, *codes[i:i + 3]) for i in range(0, 12, 3)))
        a, b, c, d = m.a, m.b, m.c, m.d
        rows = ((a.x, a.y, b.x, b.y), (0, a.z, 0, b.z), (c.x, c.y, d.x, d.y), (0, c.z, 0, d.z))
        assert m.is_invertible == (k.rank(rows) == 4)
        assert (k.det(rows) != 0) == m.is_invertible
        assert f2.mul(*m.det_factors()) == k.det(rows)
        if m.is_invertible:
            n_inv += 1
    q = f2.q
    assert n_inv == ((q * q - 1) * (q * q - q)) ** 2 * q**4 == 576


def test_act_right_is_action(f3):
    rng = random.Random(17)
    for _ in range(60):
        v = (random_ternion(f3, rng), random_ternion(f3, rng))
        s = random_invertible(f3, rng)
        t = random_invertible(f3, rng)
        assert act_right(act_right(v, s), t) == act_right(v, s * t)
        assert act_right(v, matrix_identity(f3)) == v


def test_act_right_commutes_with_scale(f2):
    # left module scaling and the right matrix action commute
    rng = random.Random(19)
    for _ in range(60):
        c = random_ternion(f2, rng)
        v = (random_ternion(f2, rng), random_ternion(f2, rng))
        s = random_invertible(f2, rng)
        assert act_right(scale_left(c, v), s) == scale_left(c, act_right(v, s))


def test_random_invertible(f5):
    rng = random.Random(23)
    for _ in range(40):
        m = random_invertible(f5, rng)
        assert m.is_invertible


def test_e_basis(f2):
    one = t_one(f2)
    assert e11(f2) + e22(f2) == one
    assert e11(f2) * e12(f2) == e12(f2)
    assert e12(f2) * e22(f2) == e12(f2)
    assert e22(f2) * e12(f2) == t_zero(f2)
