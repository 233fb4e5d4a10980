"""Property tests: every kernel operation against a naive reference.

The reference is a plain Gaussian eliminator written here with the field's
scalar operations (``Field.add``, ``mul``, ``neg``, ``inv``), never with the
kernel's tables.  Reduced row echelon form is unique, so every output that
names a row space must match the reference bit for bit.  Every field of
order <= 27 is covered: the primes up to 23 and each built-in extension.
"""

from itertools import permutations, product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import FIELD_ORDERS  # noqa: E402

from ternions.gf import automorphisms, field_of_order  # noqa: E402

FIELDS = [field_of_order(q) for q in FIELD_ORDERS]
MAX_SIDE = 7

PROPERTY = settings(
    derandomize=True,
    max_examples=25,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

each_field = pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"q{f.q}")
# the brute-force span checks walk q^rows coefficient vectors
small_field = pytest.mark.parametrize("f", FIELDS[:2], ids=lambda f: f"q{f.q}")


# -- the reference -----------------------------------------------------------


def ref_rref(f, rows, ncols):
    """Reduced row echelon form with zero rows dropped."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        scale = f.inv(m[rank][c])
        m[rank] = [f.mul(scale, x) for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                factor = f.neg(m[i][c])
                m[i] = [f.add(x, f.mul(factor, y)) for x, y in zip(m[i], m[rank])]
        rank += 1
    return tuple(tuple(r) for r in m[:rank])


def ref_nullspace(f, rows, ncols):
    """Canonical basis of {w : rows . w^T = 0}."""
    red = ref_rref(f, rows, ncols)
    pivots = [next(j for j, x in enumerate(r) if x) for r in red]
    vecs = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for row, p in zip(red, pivots):
            vec[p] = f.neg(row[j])
        vecs.append(vec)
    return ref_rref(f, vecs, ncols)


def ref_vec_mat(f, vec, rows):
    out = [0] * len(rows[0])
    for v, row in zip(vec, rows):
        out = [f.add(x, f.mul(v, y)) for x, y in zip(out, row)]
    return tuple(out)


def ref_meet(f, a, b, ncols):
    """Span of x.A over the left kernel (x, y) of [A; B]: x.A = -y.B."""
    if not a or not b:
        return ()
    stacked = a + b
    transposed = [[r[j] for r in stacked] for j in range(ncols)]
    kernel = ref_nullspace(f, transposed, len(stacked))
    return ref_rref(f, [ref_vec_mat(f, x[: len(a)], a) for x in kernel], ncols)


def ref_det(f, rows):
    m = [list(r) for r in rows]
    n = len(m)
    d = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            d = f.neg(d)
        d = f.mul(d, m[c][c])
        scale = f.inv(m[c][c])
        for i in range(c + 1, n):
            factor = f.neg(f.mul(m[i][c], scale))
            m[i] = [f.add(x, f.mul(factor, y)) for x, y in zip(m[i], m[c])]
    return d


def leibniz_det(f, rows):
    """The determinant as the signed sum over permutations, for checking
    ref_det itself on small matrices."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        term = 1
        for i in range(n):
            term = f.mul(term, rows[i][perm[i]])
        total = f.add(total, f.neg(term) if odd else term)
    return total


def span_vectors(f, rows, ncols):
    """Every vector of the row span, by brute force over the coefficients."""
    out = set()
    for coeffs in product(range(f.q), repeat=len(rows)):
        v = (0,) * ncols
        for c, row in zip(coeffs, rows):
            v = tuple(f.add(x, f.mul(c, y)) for x, y in zip(v, row))
        out.add(v)
    return out


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# -- strategies --------------------------------------------------------------


def matrices(f, nrows, ncols):
    row = st.tuples(*[st.integers(0, f.q - 1)] * ncols)
    return st.lists(row, min_size=nrows[0], max_size=nrows[1]).map(tuple)


sides = st.integers(1, MAX_SIDE)


# -- the properties ----------------------------------------------------------


@each_field
@PROPERTY
@given(data=st.data(), ncols=sides)
def test_rref_rank_match_reference(f, data, ncols):
    rows = data.draw(matrices(f, (0, MAX_SIDE), ncols))
    want = ref_rref(f, rows, ncols)
    assert f.kernel.rref(rows) == want
    assert f.kernel.rank(rows) == len(want)


@each_field
@PROPERTY
@given(data=st.data(), ncols=sides)
def test_rank_stack_rank_on_tall_inputs(f, data, ncols):
    # more rows than columns, up to twice the widest side
    rows = data.draw(matrices(f, (ncols + 1, 2 * MAX_SIDE), ncols))
    cut = data.draw(st.integers(0, len(rows)))
    want = len(ref_rref(f, rows, ncols))
    assert f.kernel.rank(rows) == want
    assert f.kernel.stack_rank(rows[:cut], rows[cut:]) == want


@small_field
def test_rank_every_3x3(f):
    for codes in product(range(f.q), repeat=9):
        rows = (codes[0:3], codes[3:6], codes[6:9])
        want = len(ref_rref(f, rows, 3))
        assert f.kernel.rank(rows) == want
        assert f.kernel.stack_rank(rows[:1], rows[1:]) == want


@small_field
@PROPERTY
@given(data=st.data(), ncols=sides)
def test_rref_keeps_the_span(f, data, ncols):
    rows = data.draw(matrices(f, (0, 4), ncols))
    assert span_vectors(f, f.kernel.rref(rows), ncols) == span_vectors(f, rows, ncols)


@small_field
@PROPERTY
@given(data=st.data(), ncols=sides)
def test_meet_is_intersection(f, data, ncols):
    a = data.draw(matrices(f, (0, 3), ncols))
    b = data.draw(matrices(f, (0, 3), ncols))
    got = f.kernel.meet(a, b, ncols)
    assert span_vectors(f, got, ncols) == span_vectors(f, a, ncols) & span_vectors(f, b, ncols)


@each_field
@PROPERTY
@given(data=st.data(), ncols=sides)
def test_stack_rank_meet_match_reference(f, data, ncols):
    a = data.draw(matrices(f, (0, 4), ncols))
    b = data.draw(matrices(f, (0, 4), ncols))
    assert f.kernel.stack_rank(a, b) == len(ref_rref(f, a + b, ncols))
    assert f.kernel.meet(a, b, ncols) == ref_meet(f, a, b, ncols)


@each_field
@PROPERTY
@given(data=st.data(), m=sides, k=sides, n=sides)
def test_matmul_matches_reference(f, data, m, k, n):
    a = data.draw(matrices(f, (m, m), k))
    b = data.draw(matrices(f, (k, k), n))
    want = tuple(ref_vec_mat(f, row, b) for row in a)
    assert f.kernel.matmul(a, b) == want


@each_field
@PROPERTY
@given(data=st.data(), n=sides)
def test_det_matinv_match_reference(f, data, n):
    # matinv against the reduced [m | I]; singular, and of rank below n,
    # exactly when the reference determinant vanishes
    m = data.draw(matrices(f, (n, n), n))
    if n <= 4:
        assert ref_det(f, m) == leibniz_det(f, m)
    eye = identity(n)
    red = ref_rref(f, [row + e for row, e in zip(m, eye)], 2 * n)
    if tuple(row[:n] for row in red) == eye:
        want = tuple(row[n:] for row in red)
    else:
        want = None
    assert f.kernel.matinv(m) == want
    assert (want is None) == (ref_det(f, m) == 0)
    assert (f.kernel.rank(m) == n) == (ref_det(f, m) != 0)


@each_field
@PROPERTY
@given(data=st.data(), ncols=sides)
def test_nullspace_matches_reference(f, data, ncols):
    rows = data.draw(matrices(f, (0, MAX_SIDE), ncols))
    assert f.kernel.nullspace(rows, ncols) == ref_nullspace(f, rows, ncols)


@each_field
@PROPERTY
@given(data=st.data(), k=sides, n=sides)
def test_vec_apply_apply_rows_match_reference(f, data, k, n):
    # sigma entrywise by its table here, by FieldAutomorphism.apply before
    # the kernel call
    sigma = data.draw(st.sampled_from(automorphisms(f)))
    mat = data.draw(matrices(f, (k, k), n))
    rows = data.draw(matrices(f, (0, 4), k))
    images = [ref_vec_mat(f, [sigma.table[x] for x in row], mat) for row in rows]
    moved = sigma.apply(rows)
    for row, image in zip(moved, images):
        assert f.kernel.vec_apply(row, mat) == image
    assert f.kernel.apply_rows(moved, mat) == ref_rref(f, images, n)
