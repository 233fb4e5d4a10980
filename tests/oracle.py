"""The point-set oracle: every geometry fact the tests check, read off the
points of PG(5,q).

A flat is the frozenset of its points, each point its normalised vector
(first nonzero entry 1), and a flat's points are built from its basis rows
with `field.add` and `field.mul` alone.  J, K, L and H are read off their
coordinate equations.  Meet is intersection, containment is inclusion, two
planes are adjacent when they share q+1 points (a line), skew when they
share none, and a semilinear map acts point by point.

The oracle reads a catalog's member lists and their bases, and nothing
else: no `Kernel` method, no lattice operation of `linalg`, no
`Catalog.traces` and no `AdjacencyGraph.groups`, so it shares no code with
the paths it checks (`test_oracle.py` pins this).  A result that the
library returns as subspaces is returned as subspaces too, their reduced
bases read off the point sets (`subspace`).  The point sets grow as q^5:
the tests run every fact at q <= 3, where PG(5,q) has at most 364 points,
and the cheaper ones (incidence, the graph, Theorem 1, the preserver, xi,
M ^ J) at q = 4 and 5 too.
"""

from functools import lru_cache, reduce
from itertools import combinations, product

from ternions.geometry import expected_incidence_row
from ternions.linalg import Subspace
from ternions.model import TYPE_ORDER


@lru_cache(maxsize=None)
def normaliser(field):
    """The map from a nonzero vector to its point: the vector scaled to a
    leading 1, the inverse of the leading entry found by `field.mul`."""
    mul = field.mul
    inverse = {a: b for a in range(1, field.q) for b in range(1, field.q) if mul(a, b) == 1}

    def normalise(vec):
        for lead in vec:
            if lead:
                break
        inv = inverse[lead]
        return vec if inv == 1 else tuple([mul(inv, x) for x in vec])

    return normalise


def _scaled(field, vec):
    """The nonzero multiples of vec."""
    return [tuple(field.mul(c, x) for x in vec) for c in range(1, field.q)]


def join(field, a, b):
    """The points of the span of two flats, given as point sets: a, b and
    each v + c w, v in a, w in b, c nonzero."""
    add, norm = field.add, normaliser(field)
    out = set(a | b)
    for w in b:
        for m in _scaled(field, w):
            out.update(norm(u) for u in (tuple(map(add, v, m)) for v in a) if any(u))
    return frozenset(out)


@lru_cache(maxsize=None)
def flat(u):
    """The points of the subspace u, its basis rows joined one by one."""
    norm = normaliser(u.field)
    return reduce(lambda a, r: join(u.field, a, {norm(r)}), u.basis, frozenset())


def lines_in(field, a):
    """The lines of a flat, as point sets."""
    return {join(field, {v}, {w}) for v, w in combinations(sorted(a), 2)}


def subspace(field, a):
    """The subspace whose points are a, with its reduced basis read off a:
    the pivots are the leading positions of the points, and the row of a
    pivot is its point that is zero at every other pivot."""
    leads = sorted({next(i for i, x in enumerate(v) if x) for v in a})
    rows = tuple(
        next(v for v in a if v[c] == 1 and not any(v[d] for d in leads if d != c)) for c in leads
    )
    return Subspace(field, 6, rows)


@lru_cache(maxsize=None)
def points(field):
    """Every point of PG(5,q)."""
    return frozenset(map(normaliser(field), filter(any, product(range(field.q), repeat=6))))


@lru_cache(maxsize=None)
def flats_jklh(field):
    """(J, K, L, H): J = {x3 = x6 = 0}, K = {x1 = x4 = 0}, L = J ^ K, and
    the quadric H = {x2 x6 = x3 x5} inside K."""
    mul = field.mul
    j = frozenset(v for v in points(field) if v[2] == v[5] == 0)
    k = frozenset(v for v in points(field) if v[0] == v[3] == 0)
    h = frozenset(v for v in k if mul(v[1], v[5]) == mul(v[2], v[4]))
    return j, k, j & k, h


# -- the scans ---------------------------------------------------------------


def x_scan(cat):
    """What `scan_planes_for_x` finds: through each member P of the alpha
    list, the flats P + z, z any point off P, that lie outside K and meet J
    in a hyperplane of themselves larger than P ^ J.  Through an alpha line
    these are the planes whose K-trace is P and whose J-trace is a line
    other than L: the X planes."""
    found = frozenset().union(*(_x_scan_through(cat.field, flat(p)) for p in cat.g_alpha))
    return frozenset(subspace(cat.field, m) for m in found)


@lru_cache(maxsize=None)
def _x_scan_through(field, p):
    j, k, _, _ = flats_jklh(field)
    ups = {join(field, p, {z}) for z in points(field) - p}
    return frozenset(
        m for m in ups if not m <= k and len(m) == field.q * len(m & j) + 1 and m & j != p & j
    )


def transversals(cat, k):
    """The k-flats (k = 2 or 4) meeting every X plane in a (k/2)-flat, by
    key.  Such a flat meets two skew X planes M0, M1 in skew (k/2)-flats
    and is their join, so the joins of the points (k = 2) or lines (k = 4)
    of M0 with those of M1 are every candidate."""
    field = cat.field
    xs = [flat(m) for m in cat.g_x]
    m0 = xs[0]
    m1 = next(m for m in xs if not m & m0)

    def pieces(m):
        return [frozenset({v}) for v in m] if k == 2 else lines_in(field, m)

    size = 1 if k == 2 else field.q + 1
    found = {join(field, a, b) for a in pieces(m0) for b in pieces(m1)}
    hits = [subspace(field, f) for f in found if all(len(f & m) == size for m in xs)]
    return sorted(hits, key=Subspace.key)


def sweep(cat, k):
    """`transversals` without the join argument: every line of PG(5,q)
    (k = 2), or every solid (k = 4) as the common zeros of two independent
    linear forms, tested on every X plane; by key."""
    field = cat.field
    add, mul = field.add, field.mul
    pts = sorted(points(field))
    xs = [flat(m) for m in cat.g_x]
    if k == 2:
        found = lines_in(field, pts)
    else:
        zeros = {
            f: frozenset(v for v in pts if not reduce(add, map(mul, f, v))) for f in pts
        }
        found = {zeros[f] & zeros[g] for f, g in combinations(pts, 2)}
    size = 1 if k == 2 else field.q + 1
    hits = [subspace(field, f) for f in found if all(len(f & m) == size for m in xs)]
    return sorted(hits, key=Subspace.key)


# -- incidence and adjacency -------------------------------------------------


def incidence_counts(cat):
    """Per catalog member, how many members of each orbit list, ordered
    (X, Y, alpha, beta, gamma), are incident with it: contained in it or
    containing it."""
    lists = [[(s, flat(s)) for s in cat.members(t)] for t in TYPE_ORDER]
    return {
        s: [sum(a <= b or b <= a for _, b in members) for members in lists]
        for row in lists
        for s, a in row
    }


def first_mismatch(cat):
    """The first member, in list order, whose counts miss the closed form."""
    counts = incidence_counts(cat)
    for t in TYPE_ORDER:
        expect = expected_incidence_row(t, cat.field.q)
        for s in cat.members(t):
            if tuple(counts[s]) != expect:
                return {"type": t.value, "expected": expect, "got": tuple(counts[s])}
    return None


def adjacency(cat):
    """(neighbours, meets): per plane of `cat.planes`, the other planes
    sharing a line with it, and those sharing a point."""
    planes = [flat(m) for m in cat.planes]
    line = cat.field.q + 1
    cuts = [[len(a & b) for b in planes] for a in planes]
    others = [set(range(len(planes))) - {i} for i in range(len(planes))]
    return (
        tuple(frozenset(j for j in o if cuts[i][j] == line) for i, o in enumerate(others)),
        tuple(frozenset(j for j in o if cuts[i][j]) for i, o in enumerate(others)),
    )


def adjacent(z1, z2):
    """Distinct flats of a common dimension d sharing the points of a
    (d-1)-flat, (q^(d-1) - 1)/(q - 1) of them."""
    if z1 == z2 or z1.dim != z2.dim:
        return False
    q = z1.field.q
    return len(flat(z1) & flat(z2)) == (q ** (z1.dim - 1) - 1) // (q - 1)


def companion_y(m, cat):
    """The unique Y neighbour (M ^ K) + L of an X plane M."""
    if m not in cat.g_x:
        raise ValueError("companion is defined for X planes")
    field = cat.field
    _, k, l, _ = flats_jklh(field)
    return subspace(field, join(field, flat(m) & k, l))


def k_trace_classes(cat):
    """X planes grouped by their K-trace M ^ K (an alpha regulus line)."""
    k = flats_jklh(cat.field)[1]
    groups = {}
    for m in cat.g_x:
        groups.setdefault(subspace(cat.field, flat(m) & k), []).append(m)
    return groups


def expected_cliques(cat):
    """[L, K]_3 and, per alpha regulus line P, the interval [P, P+J]_3: the
    planes through L inside K, then those through P inside P + J."""
    field = cat.field
    j, k, l, _ = flats_jklh(field)
    pairs = [(l, k)] + [(flat(p), join(field, flat(p), j)) for p in cat.g_alpha]
    return [_planes_through(field, a, b) for a, b in pairs]


def _planes_through(field, a, b):
    """The planes through the line a inside the flat b, as subspaces: the
    joins of a with the points of b off a, each plane joined once."""
    planes, covered = [], set(a)
    for z in sorted(b - a):
        if z not in covered:
            planes.append(join(field, a, {z}))
            covered |= planes[-1]
    return frozenset(subspace(field, m) for m in planes)


# -- collineations -----------------------------------------------------------


def point_map(f):
    """The action of the semilinear map f on points, memoised: sigma on
    each entry, then the row vector times f's matrix, normalised.  The
    products of the first and of the last three rows with every triple of
    coefficients are tabled, so a point costs one sum."""
    field, sigma, add = f.field, f.sigma.table, f.field.add

    def combinations_of(rows):
        table = {(): (0,) * 6}
        for row in rows:
            multiples = [(0,) * 6] + _scaled(field, row)
            table = {
                cs + (c,): tuple(map(add, v, multiples[c]))
                for cs, v in table.items()
                for c in range(field.q)
            }
        return table

    top, bottom = combinations_of(f.matrix[:3]), combinations_of(f.matrix[3:])
    norm = normaliser(field)

    class Images(dict):
        def __missing__(self, v):
            s = v if f.sigma.is_identity else tuple([sigma[c] for c in v])
            out = self[v] = norm(tuple(map(add, top[s[:3]], bottom[s[3:]])))
            return out

    return Images().__getitem__


def image(act, a):
    return frozenset(map(act, a))


def plane_failure(f, cat, act=None):
    """Conditions iii and ii of Theorem 1: "iii" when f maps some X plane
    off the X planes, "ii" when it maps some Y plane off the X and Y planes,
    None otherwise."""
    act = act or point_map(f)
    xs = {flat(m) for m in cat.g_x}
    if any(image(act, m) not in xs for m in xs):
        return "iii"
    planes = xs | {flat(m) for m in cat.g_y}
    if any(image(act, flat(m)) not in planes for m in cat.g_y):
        return "ii"
    return None


def first_failed(f, cat):
    """The first condition of Theorem 1 that f fails, all three read on
    points: "iv" unless f maps the points of J and of H into themselves
    (onto, as f is one to one), then `plane_failure`."""
    act = point_map(f)
    j, _, _, h = flats_jklh(f.field)
    if not all(act(v) in j for v in j) or not all(act(v) in h for v in h):
        return "iv"
    return plane_failure(f, cat, act)


def preserver(f, cat):
    """The permutation of `cat.planes` that f induces, or None when f maps
    some plane off them."""
    act = point_map(f)
    index = {flat(m): i for i, m in enumerate(cat.planes)}
    perm = tuple(index.get(image(act, flat(m))) for m in cat.planes)
    return None if None in perm else perm


# -- delta_J and xi ------------------------------------------------------------


def delta_j(field, a):
    """delta_J of the points a of a flat inside J: the points w of J with
    u1 w2 + u2 w1 + u4 w5 + u5 w4 = 0 for every point u of a."""
    add, mul = field.add, field.mul

    def form(u, w):
        acc = 0
        for i, k in ((0, 1), (1, 0), (3, 4), (4, 3)):
            acc = add(acc, mul(u[i], w[k]))
        return acc

    return frozenset(w for w in flats_jklh(field)[0] if not any(form(u, w) for u in a))


def xi_images(cat):
    """Per X plane M, the position in `g_x` of the X plane whose J-trace is
    delta_J(M ^ J), or None when there is none."""
    j = flats_jklh(cat.field)[0]
    by_trace = {flat(m) & j: i for i, m in enumerate(cat.g_x)}
    return [by_trace.get(delta_j(cat.field, flat(m) & j)) for m in cat.g_x]


def xi_facts(cat, images):
    """(is_permutation, skew_preserved_both_ways, adjacency_witness) of the
    map sending the i-th X plane to the images[i]-th: skewness is compared
    on every pair, and the witness is the first adjacent pair (i < j) whose
    images share one point only, that point a beta point."""
    xs = [flat(m) for m in cat.g_x]
    n = len(xs)
    is_permutation = set(images) == set(range(n))
    skew_ok = is_permutation and all(
        (not xs[a] & xs[b]) == (not xs[images[a]] & xs[images[b]])
        for a, b in combinations(range(n), 2)
    )
    beta = {flat(p): p for p in cat.g_beta}
    witness = None
    for a, b in combinations(range(n), 2):
        if len(xs[a] & xs[b]) != cat.field.q + 1 or None in (images[a], images[b]):
            continue
        cut = xs[images[a]] & xs[images[b]]
        if cut in beta:
            witness = {"m1": cat.g_x[a], "m2": cat.g_x[b], "images_meet": beta[cut]}
            break
    return is_permutation, skew_ok, witness
