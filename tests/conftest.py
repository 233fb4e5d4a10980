import os
from itertools import islice
from pathlib import Path

import pytest

from ternions.geometry import _bit_indices, _fixes_j_and_h, make_recipe
from ternions.gf import DEFAULT_MODULI, make_field, random_codes
from ternions.linalg import contains, enumerate_subspaces, meet, point_vectors
from ternions.model import TYPE_ORDER, build_catalog, is_block6_patterned
from ternions.suites import SUITES
from ternions.ternion import Ternion, TernionMatrix, t_one, t_zero

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every field of order <= 27: the primes up to 23 and each built-in extension
FIELD_ORDERS = sorted([2, 3, 5, 7, 11, 13, 17, 19, 23, *DEFAULT_MODULI])


def cli_env():
    """The environment for a `python -m ternions.cli` subprocess: the
    caller's, with src/ first on PYTHONPATH so a fresh checkout needs no
    install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


@pytest.fixture(scope="session")
def f2():
    return make_field(2, 1)


@pytest.fixture(scope="session")
def f3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f5():
    return make_field(5, 1)


@pytest.fixture(scope="session")
def cat2(f2):
    return build_catalog(f2)


@pytest.fixture(scope="session")
def cat3(f3):
    return build_catalog(f3)


@pytest.fixture(scope="session")
def cat4(f4):
    return build_catalog(f4)


@pytest.fixture(scope="session")
def cat5(f5):
    return build_catalog(f5)


@pytest.fixture(scope="session")
def graph2(cat2):
    from ternions.geometry import build_graph

    return build_graph(cat2)


@pytest.fixture(scope="session")
def graph3(cat3):
    from ternions.geometry import build_graph

    return build_graph(cat3)


# -- random sources and helpers the library does not need ------------------


def random_ternion(field, rng):
    q = field.q
    return Ternion(field, rng.randrange(q), rng.randrange(q), rng.randrange(q))


def matrix_identity(field):
    return TernionMatrix(t_one(field), t_zero(field), t_zero(field), t_one(field))


def random_nonblock_invertible(field, rng):
    """A random invertible 6x6 matrix that does not match the lift pattern,
    by rejection on 36 codes a candidate, read row by row.  For a
    `random.Random` the stream contract holds: the same matrices as 36
    `rng.randrange(q)` calls a candidate, leaving `rng` in the same state
    (see gf.random_codes)."""
    codes = random_codes(field, rng)
    while True:
        rows = tuple(zip(*[islice(codes, 36)] * 6))
        if not is_block6_patterned(rows) and field.kernel.rank(rows) == 6:
            return rows


def edge_count(graph):
    return sum(len(s) for s in graph.neighbours) // 2


def run_suites(ctx, names):
    """The claims of the named suites in alphabetical order, as
    `ternions verify` assembles them."""
    return [c for name in sorted(names) for c in SUITES[name](ctx)]


def x_plane_sweep(cat):
    """Reference X scan over all of G(6,3): the planes whose J-trace is a
    line other than L and whose K-trace is an alpha regulus line."""
    kern = cat.field.kernel
    j, k, l = cat.j_solid, cat.k_solid, cat.l_line
    alpha = set(cat.g_alpha)
    found = set()
    for m in enumerate_subspaces(cat.field, 6, 3, budget=10**6):
        if kern.stack_rank(m.basis, j.basis) != 5:  # dim(M ^ J) == 2
            continue
        if kern.stack_rank(m.basis, l.basis) == 3:  # L <= M, so M ^ J = L
            continue
        if meet(m, k) in alpha:
            found.add(m)
    return frozenset(found)


def incident(u, v):
    """Containment one way or the other (reflexive)."""
    if u.dim == v.dim:
        return u == v
    if u.dim < v.dim:
        return contains(v, u)
    return contains(u, v)


def incidence_counts(p0, cat):
    """Reference for `incidence_table`, by O(N^2) containment tests: how
    many members of each orbit list are incident with p0, ordered
    (X, Y, alpha, beta, gamma)."""
    return tuple(sum(1 for s in cat.members(t) if incident(p0, s)) for t in TYPE_ORDER)


# -- the point index: the reference for the traces --------------------------
#
# Every plane as the set of its q^2+q+1 points.  The graph, the incidence
# counts and the collineation conditions were once read off this index;
# they now read the planes' two submodule lines (`Catalog.traces`).


def point_planes(cat):
    """Per normalised point vector, the bitmask over `cat.planes` of the
    planes through that point."""
    masks = {}
    for i, m in enumerate(cat.planes):
        for v in point_vectors(m):
            masks[v] = masks.get(v, 0) | 1 << i
    return masks


def point_index_graph(cat):
    """(neighbours, meets) from the point index.  Two distinct planes that
    share two points share the line through them, so plane i is adjacent
    to the planes that occur with it in the masks of at least two points,
    and meets those that occur with it in at least one."""
    once = [0] * len(cat.planes)
    twice = [0] * len(cat.planes)
    for mask in point_planes(cat).values():
        for i in _bit_indices(mask):
            others = mask & ~(1 << i)
            twice[i] |= once[i] & others
            once[i] |= others
    return tuple(_bit_indices(t) for t in twice), tuple(once)


def planes_through_images(f, cat):
    """Per plane of `cat.planes`, the mask of the catalog planes through the
    images of its three basis rows.  f is invertible, so the images are
    independent points, and the only plane through all three is f(M): the
    mask has one bit when f(M) is a catalog plane and none otherwise."""
    masks = point_planes(cat)
    norm = cat.field.normalize
    out = []
    for m in cat.planes:
        bits = -1
        for r in m.basis:
            bits &= masks.get(norm(f.apply_vector(r)), 0)
        out.append(bits)
    return out


def point_index_first_failed(f, cat):
    """`first_failed_condition` with iii and ii read off the point index."""
    if not _fixes_j_and_h(f, cat):
        return "iv"
    through = planes_through_images(f, cat)
    n_x = len(cat.g_x)
    if any(not bits & ((1 << n_x) - 1) for bits in through[:n_x]):
        return "iii"
    if not all(through[n_x:]):
        return "ii"
    return None


def point_index_preserver(f, cat):
    """`preserver_from_collineation` read off the point index."""
    perm = tuple(bits.bit_length() - 1 for bits in planes_through_images(f, cat))
    if -1 in perm:
        raise ValueError("collineation does not preserve the plane set")
    return perm


def point_index_incidence_counts(cat):
    """Per catalog member, its incidence counts (X, Y, alpha, beta, gamma)
    from the point index: a line or point lies on the planes whose bits
    survive ANDing the masks of its basis rows, and a point lies on a line
    when it is one of the line's points."""
    masks = point_planes(cat)
    planes = cat.planes
    n_x = len(cat.g_x)
    counts = {}
    points = {}
    for c, t in enumerate(TYPE_ORDER):
        for s in cat.members(t):
            counts.setdefault(s, [0] * 5)[c] += 1
            if s.dim == 1:
                points.setdefault(s.basis[0], []).append((s, c))
    for c, t in enumerate(TYPE_ORDER):
        for s in cat.members(t):
            if s.dim == 3:
                continue
            bits = -1
            for r in s.basis:
                bits &= masks.get(r, 0)
            counts[s][0] += (bits & ((1 << n_x) - 1)).bit_count()
            counts[s][1] += (bits >> n_x).bit_count()
            for i in _bit_indices(bits):
                counts[planes[i]][c] += 1
            if s.dim == 2:
                for v in point_vectors(s):
                    for p, cp in points.get(v, ()):
                        counts[s][cp] += 1
                        counts[p][c] += 1
    return counts


def random_recipe(graph, rng):
    """A uniformly scrambled valid recipe: a random mu, and per clique a
    random bijection of its non-marked members onto those of its image."""
    members, marked = graph.cliques
    mu = list(range(len(members)))
    rng.shuffle(mu)
    psi = []
    for a, b in enumerate(mu):
        dom = sorted(members[a] - {marked[a]})
        cod = sorted(members[b] - {marked[b]})
        rng.shuffle(cod)
        table = dict(zip(dom, cod))
        table[marked[a]] = marked[b]
        psi.append(table)
    return make_recipe(graph, mu, psi)


# acceptance tests append (criterion, verdict, note) rows here; the hook
# prints them as one line each at the end of the run
ACCEPTANCE_LOG = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for crit, ok, note in sorted(ACCEPTANCE_LOG):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {crit:>2}: {verdict} - {note}")
