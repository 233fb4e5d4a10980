"""Exact linear algebra kernel: correctness against brute force."""

import random
from itertools import permutations, product

import pytest

from ternions.gf import make_field

FIELDS = [make_field(2, 1), make_field(3, 1), make_field(2, 2), make_field(3, 2)]


def rand_rows(rng, q, r, c):
    return tuple(tuple(rng.randrange(q) for _ in range(c)) for _ in range(r))


def span_vectors(f, rows):
    """All vectors in the row span, by brute force over coefficients."""
    out = set()
    for coeffs in product(range(f.q), repeat=len(rows)):
        v = [0] * len(rows[0]) if rows else []
        for ci, row in zip(coeffs, rows):
            v = [f.add(x, f.mul(ci, y)) for x, y in zip(v, row)]
        out.add(tuple(v))
    if not rows:
        out.add(())
    return out


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"q{f.q}")
def test_rref_properties(f):
    rng = random.Random(f.q)
    kern = f.kernel
    for _ in range(60):
        rows = rand_rows(rng, f.q, rng.randrange(1, 5), 6)
        r = kern.rref(rows)
        assert kern.rref(r) == r  # idempotent
        assert kern.rank(rows) == len(r)
        if f.q <= 3:
            assert span_vectors(f, rows) == span_vectors(f, r)


@pytest.mark.parametrize("f", FIELDS[:2], ids=lambda f: f"q{f.q}")
def test_meet_is_intersection(f):
    rng = random.Random(7)
    kern = f.kernel
    for _ in range(40):
        a = kern.rref(rand_rows(rng, f.q, 2, 4))
        b = kern.rref(rand_rows(rng, f.q, 2, 4))
        got = set(kern.meet(a, b, 4))
        want_vectors = span_vectors(f, a) & span_vectors(f, b)
        for row in got:
            assert row in want_vectors
        # dimension check: |intersection| = q^dim
        assert f.q ** len(got) == len(want_vectors)


def brute_det(f, rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 0
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign ^= 1
        term = 1
        for i in range(n):
            term = f.mul(term, rows[i][perm[i]])
        total = f.add(total, term if sign == 0 else f.neg(term))
    return total


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"q{f.q}")
def test_det_and_inverse(f):
    rng = random.Random(13)
    kern = f.kernel
    for _ in range(50):
        n = rng.randrange(1, 5)
        m = rand_rows(rng, f.q, n, n)
        d = kern.det(m)
        assert d == brute_det(f, m)
        inv = kern.matinv(m)
        if d == 0:
            assert inv is None
        else:
            ident = tuple(
                tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
            )
            assert kern.matmul(m, inv) == ident
            assert kern.matmul(inv, m) == ident


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"q{f.q}")
def test_nullspace(f):
    rng = random.Random(3)
    kern = f.kernel
    for _ in range(40):
        rows = rand_rows(rng, f.q, rng.randrange(1, 4), 5)
        ns = kern.nullspace(rows, 5)
        assert len(ns) == 5 - kern.rank(rows)
        for v in ns:
            for row in rows:
                acc = 0
                for a, b in zip(row, v):
                    acc = f.add(acc, f.mul(a, b))
                assert acc == 0


def test_stack_rank_matches_concatenation(f2=make_field(2, 1)):
    rng = random.Random(5)
    kern = f2.kernel
    for _ in range(40):
        a = rand_rows(rng, 2, 2, 6)
        b = rand_rows(rng, 2, 3, 6)
        assert kern.stack_rank(a, b) == kern.rank(a + b)


def test_vec_apply_with_automorphism():
    f = make_field(2, 2)
    from ternions.gf import automorphisms

    frob = automorphisms(f)[1]
    rng = random.Random(2)
    kern = f.kernel
    for _ in range(30):
        v = tuple(rng.randrange(4) for _ in range(4))
        m = rand_rows(rng, 4, 4, 4)
        got = kern.vec_apply(v, m, frob.table)
        tv = tuple(frob.table[c] for c in v)
        assert got == kern.vec_apply(tv, m, None)
