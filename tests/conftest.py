import inspect
import os
from itertools import chain, combinations, product
from pathlib import Path

import pytest

from ternions.gf import DEFAULT_MODULI, is_prime, make_field
from ternions.linalg import (
    Subspace,
    complement_in,
    coordinate_subspace,
    contains,
    enumerate_subspaces,
    meet_dim,
    projective_vectors,
)
from ternions.model import (
    LINE_MODEL_AXIS_COORDS,
    TYPE_ORDER,
    SubmoduleType,
    _nonzero_tail_normal_forms,
    _zero_tail_normal_forms,
    build_catalog,
    classify,
    cyclic_span,
    distinguished_flats,
    is_block6_patterned,
    is_unimodular,
    line_model,
    phi,
    phi_inverse,
)
from ternions.suites import SUITES
from ternions.ternion import (
    Ternion,
    TernionMatrix,
    e11,
    e12,
    e22,
    enumerate_pairs,
    t_one,
    t_zero,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every field of order <= 27: the primes up to 23 and each built-in extension
FIELD_ORDERS = sorted([2, 3, 5, 7, 11, 13, 17, 19, 23, *DEFAULT_MODULI])


def every_field(top):
    """Every field of order <= top, by order: GF(p), and GF(p^k) once per
    monic irreducible modulus (those `make_field` accepts), by
    coefficients."""
    fields = []
    for p in filter(is_prime, range(2, top + 1)):
        fields.append(make_field(p, 1))
        k = 2
        while p**k <= top:
            for c in product(range(p), repeat=k):
                try:
                    fields.append(make_field(p, k, c + (1,)))
                except ValueError:  # a reducible modulus
                    pass
            k += 1
    return sorted(fields, key=lambda f: f.q)


# diag(P, P), P swapping the first and third coordinates: it fixes M0, M1
# and M2 and sends J = {x3 = x6 = 0} onto K = {x1 = x4 = 0}
J_K_SWAP = tuple(tuple(int(j == p) for j in range(6)) for p in (2, 1, 0, 5, 4, 3))


def replace_fields(obj, **changes):
    """A copy of obj with the given constructor arguments changed and the
    others read off obj, built through the constructor as
    `dataclasses.replace` builds one: state cached on obj (a catalog's
    `traces`, a graph's `neighbours`, a subspace's hash) is not carried
    over, and the constructor's checks run again."""
    names = list(inspect.signature(type(obj)).parameters)
    unknown = changes.keys() - names
    if unknown:
        raise TypeError(f"{type(obj).__name__} has no fields {sorted(unknown)}")
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in names})


def with_orbit_lists(cat, **lists):
    """A copy of the catalog with the given orbit lists: the X, Y and alpha
    lists through the constructor (`replace_fields`), and the beta and gamma
    lists, which a catalog builds on first read, by assignment in place of
    the built ones."""
    points = {name: lists.pop(name) for name in ("g_beta", "g_gamma") if name in lists}
    out = replace_fields(cat, **lists)
    for name, members in points.items():
        setattr(out, name, members)
    return out


def unit_orbit_normal_forms(field):
    """Every unit-orbit normal form (see `model.normal_form_count`): those
    with a zero tail, then the others."""
    return chain(_zero_tail_normal_forms(field), _nonzero_tail_normal_forms(field))


def eager_catalog(field):
    """The orbit lists and witnesses of `build_catalog` as built before
    the points were built on first read: every unit-orbit normal form
    classified in one pass.  Per type, its spans sorted by Subspace.key;
    and per span, its witness, X planes first and gamma points last."""
    buckets = {t: {} for t in TYPE_ORDER}
    for v in unit_orbit_normal_forms(field):
        span = cyclic_span(v)
        bucket = buckets[classify(v)]
        assert span not in bucket, "two unit orbits generate one submodule"
        bucket[span] = v
    lists = {t: tuple(sorted(d, key=Subspace.key)) for t, d in buckets.items()}
    return lists, {s: v for d in buckets.values() for s, v in d.items()}


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


def matrix_product(s, t):
    """The product of two 2x2 ternion matrices, entry by entry: the
    reference the lift and the right action are checked to respect."""
    return TernionMatrix(
        s.a * t.a + s.b * t.c,
        s.a * t.b + s.b * t.d,
        s.c * t.a + s.d * t.c,
        s.c * t.b + s.d * t.d,
    )


def random_nonblock_invertible(field, rng):
    """A random invertible 6x6 matrix that is not a lift, by rejection on
    36 `rng.randrange(q)` codes a candidate, read row by row."""
    q = field.q
    while True:
        rows = tuple(tuple(rng.randrange(q) for _ in range(6)) for _ in range(6))
        if not is_block6_patterned(rows) and field.kernel.rank(rows) == 6:
            return rows


# The lift pattern as a table, the reference for `model.is_block6_patterned`:
# the entries block6_rows keeps at zero, and the four pairs it ties equal.
BLOCK6_ZERO_POSITIONS = tuple(
    (i, j)
    for i, row in enumerate(
        (
            (1, 1, 0, 1, 1, 0),
            (0, 1, 0, 0, 1, 0),
            (0, 0, 1, 0, 0, 1),
            (1, 1, 0, 1, 1, 0),
            (0, 1, 0, 0, 1, 0),
            (0, 0, 1, 0, 0, 1),
        )
    )
    for j, v in enumerate(row)
    if v == 0
)
BLOCK6_TIED_POSITIONS = (((1, 1), (2, 2)), ((1, 4), (2, 5)), ((4, 1), (5, 2)), ((4, 4), (5, 5)))


def block6_pattern_by_table(rows):
    """Whether a 6x6 matrix has the structural zeros and ties of a lift."""
    return not any(rows[i][j] for i, j in BLOCK6_ZERO_POSITIONS) and all(
        rows[i1][j1] == rows[i2][j2] for (i1, j1), (i2, j2) in BLOCK6_TIED_POSITIONS
    )


def edge_count(graph):
    return sum(len(s) for s in graph.neighbours) // 2


def edges_by_neighbours(graph):
    """The edges (i, j), i < j, in ascending order, listed vertex by vertex
    off the sorted `neighbours`."""
    return [(i, j) for i in range(graph.n) for j in sorted(graph.neighbours[i]) if j > i]


def run_suites(ctx, names):
    """The claims of the named suites in alphabetical order, as
    `ternions verify` assembles them."""
    return [c for name in sorted(names) for c in SUITES[name](ctx)]


def subspaces_within(u, k):
    """All k-subspaces of u, mapped from coordinates w.r.t. its basis."""
    kern = u.field.kernel
    return [
        Subspace(u.field, u.n, kern.rref(kern.matmul(s.basis, u.basis)))
        for s in enumerate_subspaces(u.field, u.dim, k)
    ]


# -- algebra-level references ------------------------------------------------
#
# The geometry facts are checked against the point-set oracle (`oracle.py`);
# these check the `model:line` claim, the unimodularity test and the
# decomposition round trip, each by the larger computation it replaced.


def line_model_walk(field):
    """(ok, detail) of `model:line` by the q^6 walk: line_model on every
    unimodular pair, grouped by span, against the complex lines found in
    G(4,2)."""
    by_span = {}
    well_defined = True
    for v in enumerate_pairs(field):
        if is_unimodular(v):
            ln = line_model(v)
            well_defined = well_defined and by_span.setdefault(cyclic_span(v), ln) == ln
    image = set(by_span.values())
    injective = len(image) == len(by_span)
    axis = coordinate_subspace(field, 4, LINE_MODEL_AXIS_COORDS)
    complex_lines = {
        ln
        for ln in enumerate_subspaces(field, 4, 2)
        if ln != axis and meet_dim(ln, axis) == 1
    }
    detail = {
        "well_defined_checked": True,
        "injective": injective,
        "image_size": len(image),
        "complex_minus_axis": len(complex_lines),
    }
    return well_defined and injective and image == complex_lines, detail


def is_unimodular_by_products(v):
    """`is_unimodular` by two ranks of the rows (a e).triple() and
    (b e).triple(), e over e11, e12 and e22."""
    a, b = v
    field = a.field
    units = (e11(field), e12(field), e22(field))
    rows = tuple((a * e).triple() for e in units) + tuple((b * e).triple() for e in units)
    kern = field.kernel
    return kern.stack_rank(rows, ((1, 0, 1),)) == kern.rank(rows)


def verify_decomposition_sampled(f, g, rng, samples=64):
    """`verify_decomposition`'s round trip of the module map g on the six
    basis pairs plus `samples` random pairs, with no check of g.sigma."""
    q = f.field.q
    vecs = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    vecs += [tuple(rng.randrange(q) for _ in range(6)) for _ in range(samples)]
    return all(phi(g.apply(phi_inverse(f.field, v))) == f.apply_vector(v) for v in vecs)


# -- the paths the trace groups replaced -------------------------------------
#
# The adjacency checks once walked neighbour sets.  These are the
# references for the group paths of `geometry` and `suites`.


def preserves_by_neighbours(perm, nbrs):
    """Whether perm permutes the vertex indices and maps the neighbour set
    of every vertex onto that of its image, which is preserving adjacency
    both ways."""
    n = len(nbrs)
    if len(perm) != n or set(perm) != set(range(n)):
        return False
    return all({perm[j] for j in nbrs[i]} == nbrs[perm[i]] for i in range(n))


def geodesics_by_neighbours(nbrs, start):
    """(dist, paths) of `geodesics_from` by a BFS over the neighbour sets."""
    dist = [-1] * len(nbrs)
    paths = [0] * len(nbrs)
    dist[start], paths[start] = 0, 1
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
                if dist[w] == d:
                    paths[w] += paths[v]
        frontier = nxt
    return dist, paths


def clique_flags_by_neighbours(nbrs, cliques):
    """(all_cliques, coverage, closure) of `suites._clique_flags`, in one
    pass per vertex v and clique C: a member of C must see the rest of C,
    the cliques through v must cover its neighbours, and no vertex outside
    C may see two members of C."""
    all_cliques = coverage = closure = True
    for v, nv in enumerate(nbrs):
        covered = set()
        for c in cliques:
            seen = len(nv & c)
            if v in c:
                all_cliques = all_cliques and seen == len(c) - 1
                covered |= c
            elif seen > 1:
                closure = False
        coverage = coverage and nv <= covered
    return all_cliques, coverage, closure


# -- the edits of a graph and the recipes of its preservers ------------------


def regrouped(graph, remove=(), add=()):
    """The graph with the given edges removed and added, kept as groups
    that hold each edge once and share at most one vertex pairwise.  A
    group g losing the edges R becomes the group of the vertices R does not
    touch plus the pairs it keeps among or towards the touched ones, so a
    permutation of g that maps R onto itself maps the new groups onto
    groups; an added edge is a group of its own."""
    cut = {frozenset(e) for e in remove}
    groups = []
    for g in graph.groups:
        lost = {e for e in cut if e <= set(g)}
        touched = set().union(*lost)
        rest = set(g) - touched
        groups.append(rest)
        groups += [{v, x} for v in sorted(touched) for x in sorted(rest)]
        groups += [set(e) for e in combinations(sorted(touched), 2) if frozenset(e) not in lost]
    groups += [set(e) for e in add]
    return replace_fields(graph, groups=tuple(tuple(sorted(g)) for g in groups if len(g) > 1))


def recipe_permutation(graph, psi):
    """The vertex permutation of a recipe (mu, psi), the reference for
    `geometry.recipe_generators` and `geometry.is_recipe`: psi[a] maps the
    clique [P, P+J]_3 of the a-th alpha line P onto the clique of mu(P),
    P+L to mu(P)+L, so an X plane moves inside the clique of its K-trace
    and the Y plane P+L follows mu."""
    perm = {src: dst for table in psi for src, dst in table.items()}
    assert perm.keys() == set(range(graph.n)), "recipe does not cover the planes exactly once"
    return tuple(perm[i] for i in range(graph.n))


def random_recipe(graph, rng):
    """The permutation of a uniformly scrambled recipe: a random mu, and
    per clique a random bijection of its non-marked members onto those of
    its image."""
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
    return recipe_permutation(graph, psi)


# -- the per-call paths the batched lifts and coordinate reads replaced -------
#
# `point_vectors` once lifted each point by its own product and `pencil` each
# member; `classify_by_rank` tested containment in K and L by ranks; delta_J
# was a product by the 6x6 matrix of its form and a null space in F^6, and
# the skew-pair check of `xi_report` evaluated that form by two products.
# `delta_j_by_matrix` checks delta_J at q = 4 and 5, past the oracle.


# The symmetric form u DELTA_J w^T = u1 w2 + u2 w1 + u4 w5 + u5 w4 of the
# correlation delta_J of J; x3 and x6 do not enter it.
DELTA_J = (
    (0, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0),
)
X3_X6 = ((0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1))


def point_vectors_per_point(u):
    """`point_vectors` by one vector product per point."""
    field = u.field
    return [
        field.normalize(field.kernel.vec_apply(coeff, u.basis))
        for coeff in projective_vectors(field, u.dim)
    ]


def pencil_per_member(v, w, k):
    """`pencil` by one product per member, and none for a member that is v."""
    if not contains(w, v):
        raise ValueError("pencil requires v <= w")
    if not v.dim <= k <= w.dim:
        return []
    field, kern = v.field, v.field.kernel
    comp = tuple(complement_in(v, w))
    out = []
    for s in enumerate_subspaces(field, len(comp), k - v.dim):
        lifted = kern.matmul(s.basis, comp) if s.basis else ()
        out.append(Subspace(field, v.n, kern.rref(v.basis + lifted)))
    return out


def classify_by_containment(span):
    """`classify_by_rank` with containment in K and L tested by ranks."""
    _, k, l = distinguished_flats(span.field)
    if span.dim == 0:
        return SubmoduleType.ZERO
    if span.dim == 3:
        return SubmoduleType.Y if contains(k, span) else SubmoduleType.X
    if span.dim == 2:
        return SubmoduleType.ALPHA
    return SubmoduleType.GAMMA if contains(l, span) else SubmoduleType.BETA


def delta_j_by_matrix(u):
    """delta_J(u) as the null space in F^6 of u DELTA_J and x3, x6."""
    kern = u.field.kernel
    return Subspace(u.field, 6, kern.nullspace(kern.matmul(u.basis, DELTA_J) + X3_X6, 6))


def polar_by_matrix(line, image):
    """Whether u DELTA_J w^T = 0 for the rows u of line and w of image, by
    two products."""
    matmul = line.field.kernel.matmul
    cols = tuple(zip(*image.basis))
    return not any(map(any, matmul(matmul(line.basis, DELTA_J), cols)))


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
