"""Structure theory of the plane model: incidence counts, the adjacency
graph on the 3-dim flats, its cliques and distances, the transversal
scans, adjacency preservers, the collineation characterization, and the
adjacency-breaking bijection built from a correlation of J.

Conventions used throughout:

  * two flats are incident when one contains the other (reflexively);
  * two planes are adjacent when they are distinct and meet in a line;
  * the companion of an X plane M is the Y plane (M ^ K) + L, its unique
    Y neighbour;
  * cliques live in the graph on the X and Y planes together.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .gf import Field, FieldAutomorphism, automorphisms
from .linalg import (
    Correlation,
    SemilinearMap,
    Subspace,
    canonicalize,
    check_budget,
    contains,
    full_space,
    join,
    meet,
    meet_dim,
    pencil,
    point_vectors,
    subspaces_within,
)
from .model import (
    TYPE_ORDER,
    Catalog,
    SubmoduleType,
    block6_rows,
    is_block6_patterned,
    matrix2_from_block6,
    phi,
    phi_inverse,
)
from .ternion import Ternion, TernionMatrix, TernionPair, act_right

# -- incidence -------------------------------------------------------------------


def expected_incidence_row(t: SubmoduleType, q: int) -> Tuple[int, int, int, int, int]:
    """Closed-form incidence counts for a member of the given orbit."""
    rows = {
        SubmoduleType.X: (1, 0, 1, q, 1),
        SubmoduleType.Y: (0, 1, 1, 0, q + 1),
        SubmoduleType.ALPHA: (q * q + q, 1, 1, 0, 1),
        SubmoduleType.BETA: (q + 1, 0, 0, 1, 0),
        SubmoduleType.GAMMA: (q * q + q, q + 1, 1, 0, 1),
    }
    return rows[t]


def incidence_table(cat: Catalog) -> Dict[str, object]:
    """Verify the incidence counts of every catalog member against the
    closed forms; return the table plus a verdict.  The counts are read off
    the point index, ordered (X, Y, alpha, beta, gamma):

      * flats of one dimension are incident exactly when they are equal;
      * a line or point lies on the planes whose bits survive ANDing the
        `cat.point_planes` masks of its basis rows (rref rows are
        normalised point vectors);
      * a point lies on a line when it is one of the line's points."""
    q = cat.field.q
    masks = cat.point_planes
    planes = cat.planes
    n_x = len(cat.g_x)
    x_bits = (1 << n_x) - 1
    counts: Dict[Subspace, List[int]] = {}
    points: Dict[tuple, List[Tuple[Subspace, int]]] = {}
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
            counts[s][0] += (bits & x_bits).bit_count()
            counts[s][1] += (bits >> n_x).bit_count()
            for i in _bit_indices(bits):
                counts[planes[i]][c] += 1
            if s.dim == 2:
                for v in point_vectors(s):
                    for p, cp in points.get(v, ()):
                        counts[s][cp] += 1
                        counts[p][c] += 1
    table = {}
    first_bad = None
    for t in TYPE_ORDER:
        expect = expected_incidence_row(t, q)
        table[t.value] = list(expect)
        for s in cat.members(t):
            got = tuple(counts[s])
            if first_bad is None and got != expect:
                first_bad = {"type": t.value, "expected": expect, "got": got}
    return {
        "ok": first_bad is None,
        "rows": table,
        "column_order": [t.value for t in TYPE_ORDER],
        "first_mismatch": first_bad,
    }


# -- adjacency graph --------------------------------------------------------------


def adjacent(z1: Subspace, z2: Subspace) -> bool:
    """Distinct flats of a common dimension d meeting in dimension d-1."""
    if z1 == z2 or z1.dim != z2.dim:
        return False
    return meet_dim(z1, z2) == z1.dim - 1


@dataclass
class AdjacencyGraph:
    """The graph on the X and Y planes, with vertex indices fixed by the
    catalog order (X planes first, then Y planes)."""

    catalog: Catalog
    vertices: tuple
    types: tuple
    vindex: Dict[Subspace, int]
    neighbours: tuple  # tuple of frozensets of vertex indices
    meets: tuple  # per vertex, the int mask of the other planes sharing a point

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(len(s) for s in self.neighbours) // 2

    def are_adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbours[i]


def build_graph(cat: Catalog) -> AdjacencyGraph:
    """Adjacency by shared points, read off the catalog's point index
    `cat.point_planes`.  Two distinct planes that share two points share
    the line through them, so plane i is adjacent to the planes that occur
    with it in the masks of at least two points; those that occur with it
    in at least one are kept as `meets`.  The index guards its
    V (q^2+q+1) plane-point incidences with the catalog's budget."""
    verts = cat.planes
    types = tuple(
        SubmoduleType.X if i < len(cat.g_x) else SubmoduleType.Y
        for i in range(len(verts))
    )
    vindex = {s: i for i, s in enumerate(verts)}
    once = [0] * len(verts)
    twice = [0] * len(verts)
    for mask in cat.point_planes.values():
        if mask & (mask - 1):  # on two planes or more
            for i in _bit_indices(mask):
                others = mask & ~(1 << i)
                twice[i] |= once[i] & others
                once[i] |= others
    return AdjacencyGraph(
        catalog=cat,
        vertices=verts,
        types=types,
        vindex=vindex,
        neighbours=tuple(_bit_indices(t) for t in twice),
        meets=tuple(once),
    )


def _bit_indices(mask: int) -> FrozenSet[int]:
    """The positions of the set bits of a non-negative int."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def companion_y(m: Subspace, cat: Catalog) -> Subspace:
    """The unique Y neighbour (M ^ K) + L of an X plane."""
    if cat.type_of(m) is not SubmoduleType.X:
        raise ValueError("companion is defined for X planes")
    return join(meet(m, cat.k_solid), cat.l_line)


def k_trace_classes(cat: Catalog) -> Dict[Subspace, List[Subspace]]:
    """X planes grouped by their K-trace (an alpha regulus line)."""
    groups: Dict[Subspace, List[Subspace]] = {}
    for m in cat.g_x:
        groups.setdefault(meet(m, cat.k_solid), []).append(m)
    return groups


def expected_cliques(cat: Catalog) -> List[FrozenSet[Subspace]]:
    """[L, K]_3 and, per alpha regulus line P, the interval [P, P+J]_3."""
    out = [frozenset(pencil(cat.l_line, cat.k_solid, 3))]
    for p in cat.g_alpha:
        out.append(frozenset(cat.clique_intervals[p]))
    return out


def maximal_cliques(graph: AdjacencyGraph) -> List[FrozenSet[int]]:
    """All maximal cliques by Bron-Kerbosch with pivoting (exact; meant for
    the small desk scales)."""
    out: List[FrozenSet[int]] = []
    nbrs = graph.neighbours

    def bk(r: set, p: set, x: set):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(nbrs[v] & p))
        for v in sorted(p - nbrs[pivot]):
            bk(r | {v}, p & nbrs[v], x & nbrs[v])
            p.remove(v)
            x.add(v)

    bk(set(), set(range(graph.n)), set())
    return out


def distances_from(graph: AdjacencyGraph, start: int) -> List[int]:
    """BFS distances (-1 for unreachable)."""
    dist = [-1] * graph.n
    dist[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in graph.neighbours[v]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def count_geodesics(graph: AdjacencyGraph, start: int, goal: int) -> Tuple[int, int]:
    """(distance, number of shortest paths) via layered BFS counting."""
    dist = distances_from(graph, start)
    if dist[goal] < 0:
        return (-1, 0)
    counts = [0] * graph.n
    counts[start] = 1
    order = sorted(range(graph.n), key=lambda v: dist[v] if dist[v] >= 0 else 1 << 30)
    for v in order:
        if v == start or dist[v] < 0:
            continue
        counts[v] = sum(counts[w] for w in graph.neighbours[v] if dist[w] == dist[v] - 1)
    return (dist[goal], counts[goal])


# -- transversal scans ------------------------------------------------------------


def _anchored_scan(cat: Catalog, k: int, budget: Optional[int]) -> List[Subspace]:
    """All k-flats (k = 2 or 4) meeting every X plane in dimension k/2,
    sorted by key.

    Anchor at two skew X planes M0 and M1 (M0 ^ M1 = 0).  Such a flat
    meets each of them in a (k/2)-flat, and those two are skew, so the flat
    is their join: the (q^2+q+1)^2 joins of a (k/2)-flat of M0 with one of
    M1 are an exhaustive candidate list.  The budget guards that count."""
    m0 = cat.g_x[0]
    m1 = next((m for m in cat.g_x[1:] if meet_dim(m0, m) == 0), None)
    if m1 is None:
        raise AssertionError("no X plane is skew to the first one")
    parts0 = subspaces_within(m0, k // 2, budget)
    parts1 = subspaces_within(m1, k // 2, budget)
    what = f"anchored scan candidates (k={k}, q={cat.field.q})"
    check_budget(len(parts0) * len(parts1), what, budget)
    kern = cat.field.kernel
    rank = k + 3 - k // 2  # dim(flat + M) when dim(flat ^ M) = k/2
    xs = [m.basis for m in cat.g_x]
    out = []
    for a in parts0:
        for b in parts1:
            rows = a.basis + b.basis
            if all(kern.stack_rank(rows, mb) == rank for mb in xs):
                out.append(Subspace(cat.field, 6, kern.rref(rows)))
    return sorted(out, key=Subspace.key)


def scan_lines(cat: Catalog, budget: Optional[int] = None) -> List[Subspace]:
    """All lines meeting every X plane in exactly one point."""
    return _anchored_scan(cat, 2, budget)


def scan_solids(cat: Catalog, budget: Optional[int] = None) -> List[Subspace]:
    """All solids meeting every X plane in exactly a line."""
    return _anchored_scan(cat, 4, budget)


def certificate_from_counts(n_lines: int, n_solids: int) -> Dict[str, object]:
    """The pure logical step: a duality leaving the X planes invariant would
    biject the transversal lines with the transversal solids, so unequal
    counts exclude it.  Equal counts are inconclusive by this argument."""
    return {
        "transversal_lines": n_lines,
        "transversal_solids": n_solids,
        "duality_excluded": n_lines != n_solids,
    }


def no_duality_certificate(
    cat: Catalog, lines: Sequence[Subspace], solids: Sequence[Subspace]
) -> Dict[str, object]:
    """Certificate that no duality of PG(5,q) fixes the X planes setwise:
    the scans give q+1 transversal lines but only 2 transversal solids."""
    q = cat.field.q
    cert = certificate_from_counts(len(lines), len(solids))
    cert["lines_are_opposite_regulus"] = set(lines) == set(cat.quadric.regulus_opposite)
    cert["solids_are_j_and_k"] = set(solids) == {cat.j_solid, cat.k_solid}
    cert["lines_expected"] = q + 1
    cert["solids_expected"] = 2
    cert["counts_match"] = len(lines) == q + 1 and len(solids) == 2
    return cert


# -- semilinear collineations and the characterization theorem ---------------------


def induced_collineation(s: TernionMatrix, sigma: FieldAutomorphism) -> SemilinearMap:
    """The collineation v -> sigma(v) . lift(S) of PG(5,q)."""
    if not s.is_invertible:
        raise ValueError("S must be invertible")
    return SemilinearMap(s.field, 6, block6_rows(s), sigma)


def _fixes_j(f: SemilinearMap) -> bool:
    """Whether f(J) = J, read off the matrix.  J = <e1, e2, e4, e5>, and
    sigma fixes the codes 0 and 1, so f(e_i) is row i of the matrix and
    f(J) is spanned by rows 0, 1, 3 and 4.  They lie in J when they are zero
    in columns 2 and 5 (x3 = x6 = 0), and f is invertible, so the four rows
    then span all of J."""
    return not any(f.matrix[i][c] for i in (0, 1, 3, 4) for c in (2, 5))


def _fixes_j_and_h(f: SemilinearMap, cat: Catalog) -> bool:
    """Condition iv: f fixes the solid J and the quadric H setwise."""
    if not _fixes_j(f):
        return False
    hvecs = cat.quadric.point_vectors
    norm = f.field.normalize
    return all(norm(f.apply_vector(v)) in hvecs for v in hvecs)


def first_failed_condition(f: SemilinearMap, cat: Catalog) -> Optional[str]:
    """Name of the first violated condition, or None when all hold; cheap on
    maps that fail early, which is the common case for random controls.
    The conditions, checked in this order:
      iv: f fixes J setwise and the quadric H setwise,
      iii: f permutes the X planes,
      ii: f permutes the X and Y planes together.

    No image plane is row-reduced.  f is invertible (SemilinearMap rejects
    a singular matrix), so the images of the three basis rows of a plane M
    are three independent points, and the only plane containing all three
    is f(M).  The catalog planes through f(M) are therefore the common bits
    of the three points' masks in `cat.point_planes`: one bit when f(M) is
    a catalog plane, none otherwise.  For a singular map the three images
    could span a line, which lies on several planes, and the test would
    accept it wrongly."""
    if not _fixes_j_and_h(f, cat):
        return "iv"
    masks = cat.point_planes
    norm = f.field.normalize
    memo: Dict[tuple, int] = {}  # planes share basis rows

    def planes_through_image(m: Subspace) -> int:
        bits = -1
        for r in m.basis:
            b = memo.get(r)
            if b is None:
                b = memo[r] = masks.get(norm(f.apply_vector(r)), 0)
            bits &= b
        return bits

    x_bits = (1 << len(cat.g_x)) - 1
    if any(not planes_through_image(m) & x_bits for m in cat.g_x):
        return "iii"
    if any(not planes_through_image(m) for m in cat.g_y):
        return "ii"
    return None


def random_nonblock_invertible(field: Field, rng: random.Random) -> tuple:
    """A random invertible 6x6 matrix that does not match the lift pattern."""
    kern = field.kernel
    q = field.q
    while True:
        rows = tuple(tuple(rng.randrange(q) for _ in range(6)) for _ in range(6))
        if is_block6_patterned(rows):
            continue
        if kern.rank(rows) == 6:
            return rows


@dataclass
class ModuleMap:
    """A semilinear module map: entrywise sigma, then the left unit
    homothety, then right multiplication by S."""

    sigma: FieldAutomorphism
    unit: Ternion
    matrix: TernionMatrix

    def apply(self, v: TernionPair) -> TernionPair:
        f = self.unit.field
        t = self.sigma.table
        a, b = v
        a2 = Ternion(f, t[a.x], t[a.y], t[a.z])
        b2 = Ternion(f, t[b.x], t[b.y], t[b.z])
        return act_right((self.unit * a2, self.unit * b2), self.matrix)


@dataclass
class Decomposition:
    """f = f3 o f2 o f1 with f1 entrywise, f2 the J-pointwise map matching
    the opposite-regulus permutation, f3 a lift; module_map realizes f on
    pairs through phi."""

    f1: SemilinearMap
    f2: SemilinearMap
    f3: SemilinearMap
    module_map: ModuleMap
    homothety_params: Tuple[int, int]


def extract_automorphism(f: SemilinearMap) -> FieldAutomorphism:
    """Recover the companion automorphism from the action on scaled vectors."""
    field = f.field
    e1 = tuple(1 if i == 0 else 0 for i in range(f.n))
    img = f.apply_vector(e1)
    for tau in automorphisms(field):
        ok = True
        for c in field.codes():
            scaled = tuple(field.mul(c, x) for x in e1)
            want = tuple(field.mul(tau.on_code(c), x) for x in img)
            if f.apply_vector(scaled) != want:
                ok = False
                break
        if ok:
            return tau
    raise ValueError("map is not semilinear over any field automorphism")


def _homothety_rows(field: Field, a: int, b: int) -> tuple:
    """The matrix fixing J pointwise with parameters (a, b): identity except
    e3 -> a e2 + b e3 and e6 -> a e5 + b e6."""
    rows = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    rows[2] = [0, a, b, 0, 0, 0]
    rows[5] = [0, 0, 0, 0, a, b]
    return tuple(tuple(r) for r in rows)


def decompose_semilinear(f: SemilinearMap, cat: Catalog) -> Decomposition:
    """Split a collineation fixing J and H into lift * homothety * entrywise,
    and rebuild the module map it came from.  Raises when f does not fix J
    and H setwise, or when no decomposition exists."""
    field = f.field
    if not _fixes_j_and_h(f, cat):
        raise ValueError("decomposition requires f(J) = J and f(H) = H")
    sigma = extract_automorphism(f)
    f1 = SemilinearMap(field, 6, full_space(field, 6).basis, sigma)
    # h = f o f1^-1 is linear with the same matrix as f.
    h = f.compose(f1.inverse())
    assert h.sigma.is_identity
    opposite = cat.quadric.regulus_opposite
    target = {o: h.apply(o) for o in opposite}
    ident = automorphisms(field)[0]
    found = None
    for a in field.codes():
        for b in range(1, field.q):
            f2 = SemilinearMap(field, 6, _homothety_rows(field, a, b), ident)
            if all(f2.apply(o) == target[o] for o in opposite):
                found = (a, b, f2)
                break
        if found:
            break
    if not found:
        raise ValueError("no homothety matches the opposite-regulus permutation")
    a, b, f2 = found
    f3 = h.compose(f2.inverse())
    if not is_block6_patterned(f3.matrix):
        raise ValueError("residual map is not a lift")
    s = matrix2_from_block6(field, f3.matrix)
    if not s.is_invertible:
        raise ValueError("residual lift is singular")
    unit = Ternion(field, 1, a, b)
    g = ModuleMap(sigma, unit, s)
    return Decomposition(f1=f1, f2=f2, f3=f3, module_map=g, homothety_params=(a, b))


def verify_decomposition(
    f: SemilinearMap, dec: Decomposition, rng: Optional[random.Random] = None, samples: int = 64
) -> bool:
    """Check f = f3 o f2 o f1 on the matrix level and phi(g(v)) = f(phi(v))
    on all six basis pairs plus sampled pairs."""
    field = f.field
    composed = dec.f3.compose(dec.f2.compose(dec.f1))
    if composed.matrix != f.matrix or composed.sigma != f.sigma:
        return False
    g = dec.module_map
    basis_vecs = [tuple(1 if i == j else 0 for j in range(6)) for i in range(6)]
    vecs = basis_vecs
    if rng is not None:
        q = field.q
        vecs = vecs + [tuple(rng.randrange(q) for _ in range(6)) for _ in range(samples)]
    for vec in vecs:
        v = phi_inverse(field, vec)
        if phi(g.apply(v)) != f.apply_vector(vec):
            return False
    return True


# -- adjacency preservers -----------------------------------------------------------


@dataclass
class PreserverRecipe:
    """The data of an adjacency preserver: a permutation mu of the alpha
    regulus lines and, per line P, a bijection psi_P of the clique
    [P, P+J]_3 onto [mu(P), mu(P)+J]_3 sending P+L to mu(P)+L."""

    mu: Dict[Subspace, Subspace]
    psi: Dict[Subspace, Dict[Subspace, Subspace]]


def make_recipe(
    cat: Catalog, mu: Dict[Subspace, Subspace], psi: Dict[Subspace, Dict[Subspace, Subspace]]
) -> PreserverRecipe:
    """Validate recipe data: mu permutes the regulus, each psi_P is a clique
    bijection with the marked Y plane matched."""
    alpha = set(cat.g_alpha)
    if set(mu.keys()) != alpha or set(mu.values()) != alpha:
        raise ValueError("mu must permute the alpha regulus lines")
    for p in cat.g_alpha:
        dom = frozenset(cat.clique_intervals[p])
        cod = frozenset(cat.clique_intervals[mu[p]])
        pp = psi.get(p)
        if pp is None or set(pp.keys()) != dom:
            raise ValueError("psi_P must be defined on the clique of P")
        if set(pp.values()) != cod or len(set(pp.values())) != len(pp):
            raise ValueError("psi_P must biject onto the clique of mu(P)")
        marked_src = join(p, cat.l_line)
        marked_dst = join(mu[p], cat.l_line)
        if pp[marked_src] != marked_dst:
            raise ValueError("psi_P must send P+L to mu(P)+L")
    return PreserverRecipe(mu=dict(mu), psi={p: dict(d) for p, d in psi.items()})


def random_recipe(cat: Catalog, rng: random.Random) -> PreserverRecipe:
    """A uniformly scrambled valid recipe."""
    alpha = list(cat.g_alpha)
    shuffled = alpha[:]
    rng.shuffle(shuffled)
    mu = dict(zip(alpha, shuffled))
    psi = {}
    for p in alpha:
        dom = sorted(cat.clique_intervals[p], key=Subspace.key)
        cod = sorted(cat.clique_intervals[mu[p]], key=Subspace.key)
        marked_src = join(p, cat.l_line)
        marked_dst = join(mu[p], cat.l_line)
        dom.remove(marked_src)
        cod.remove(marked_dst)
        rng.shuffle(cod)
        table = dict(zip(dom, cod))
        table[marked_src] = marked_dst
        psi[p] = table
    return make_recipe(cat, mu, psi)


def build_preserver(recipe: PreserverRecipe, cat: Catalog) -> Dict[Subspace, Subspace]:
    """The total map on the X and Y planes defined by a recipe: an X plane
    moves inside the clique of its K-trace, the Y plane P+L follows mu."""
    out: Dict[Subspace, Subspace] = {}
    for p, table in recipe.psi.items():
        for src, dst in table.items():
            out[src] = dst
    if len(out) != len(cat.g_x) + len(cat.g_y):
        raise AssertionError("recipe does not cover the planes exactly once")
    return out


def verify_preserver(mapping: Dict[Subspace, Subspace], graph: AdjacencyGraph) -> bool:
    """Bijectivity plus adjacency preservation in both directions."""
    verts = graph.vertices
    if set(mapping.keys()) != set(verts) or set(mapping.values()) != set(verts):
        return False
    perm = [graph.vindex[mapping[v]] for v in verts]
    if len(set(perm)) != len(perm):
        return False
    for i in range(graph.n):
        pi = perm[i]
        for j in graph.neighbours[i]:
            if perm[j] not in graph.neighbours[pi]:
                return False
    # A bijection preserving adjacency forward on a finite graph with equal
    # edge images preserves it backward too; check explicitly regardless.
    inv = [0] * graph.n
    for i, pi in enumerate(perm):
        inv[pi] = i
    for i in range(graph.n):
        ii = inv[i]
        for j in graph.neighbours[i]:
            if inv[j] not in graph.neighbours[ii]:
                return False
    return True


def preserver_from_collineation(f: SemilinearMap, cat: Catalog) -> Dict[Subspace, Subspace]:
    """The plane permutation induced by a collineation satisfying (ii)."""
    mapping = {}
    planes = set(cat.planes)
    for z in cat.planes:
        img = f.apply(z)
        if img not in planes:
            raise ValueError("collineation does not preserve the plane set")
        mapping[z] = img
    return mapping


def extract_recipe(mapping: Dict[Subspace, Subspace], cat: Catalog) -> PreserverRecipe:
    """Read (mu, psi) off a preserver: mu from the Y planes P+L, psi from the
    restriction to each clique."""
    y_to_line = {join(p, cat.l_line): p for p in cat.g_alpha}
    mu = {}
    for p in cat.g_alpha:
        img = mapping[join(p, cat.l_line)]
        line = y_to_line.get(img)
        if line is None:
            raise ValueError("mapping does not permute the Y planes")
        mu[p] = line
    psi = {}
    for p in cat.g_alpha:
        psi[p] = {z: mapping[z] for z in cat.clique_intervals[p]}
    return make_recipe(cat, mu, psi)


# -- the correlation-based bijection xi ----------------------------------------------


J_PROJ_COORDS = (0, 1, 3, 4)


def _project_j(rows) -> tuple:
    return tuple(tuple(r[i] for i in J_PROJ_COORDS) for r in rows)


def _embed_j(rows) -> tuple:
    return tuple((r[0], r[1], 0, r[2], r[3], 0) for r in rows)


def delta_j(field: Field) -> Correlation:
    """The correlation of J (coordinates x1, x2, x4, x5) sending the point
    (a, b, c, d) to the plane b X1 + a X2 + d X4 + c X5 = 0; it fixes L."""
    swap = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    return Correlation(field, 4, swap, automorphisms(field)[0])


def xi_map(m: Subspace, cat: Catalog) -> Subspace:
    """Trace an X plane on J, push the trace through the correlation of J,
    and rebuild the unique X plane with the new trace (join with the alpha
    regulus line through its L-point)."""
    field = cat.field
    if cat.type_of(m) is not SubmoduleType.X:
        raise ValueError("xi is defined on X planes")
    trace = meet(m, cat.j_solid)
    line4 = canonicalize(field, 4, _project_j(trace.basis))
    image4 = delta_j(field).apply(line4)
    line6 = canonicalize(field, 6, _embed_j(image4.basis))
    lpoint = meet(line6, cat.l_line)
    if lpoint.dim != 1:
        raise AssertionError("correlated trace misses L")
    through = [p for p in cat.g_alpha if contains(p, lpoint)]
    if len(through) != 1:
        raise AssertionError("L-point must lie on exactly one alpha regulus line")
    return join(line6, through[0])


def xi_report(graph: AdjacencyGraph) -> Dict[str, object]:
    """Everything checked about xi, on all pairs of X planes: it permutes
    the X planes, some adjacent pair maps to a pair meeting in a single beta
    point (so adjacency is not preserved), and skew pairs map to skew pairs
    in both directions.

    Read off the graph's shared-point masks: a permutation keeps skewness
    both ways exactly when it maps the skew set of each X plane (the X
    planes sharing no point with it) onto the skew set of its image.  The
    witness is the first adjacent pair (i < j, in catalog order) whose
    images share a point but not a line, and that point is a beta point.
    An image outside the X planes fails the first and the last check."""
    cat = graph.catalog
    xs = cat.g_x
    n = len(xs)
    x_bits = (1 << n) - 1
    meets = graph.meets
    images = [graph.vindex.get(xi_map(m, cat)) for m in xs]
    is_permutation = set(images) == set(range(n))

    def skew(i: int) -> int:
        return x_bits & ~meets[i] & ~(1 << i)

    skew_ok = is_permutation and all(
        sum(1 << images[j] for j in _bit_indices(skew(i))) == skew(images[i])
        for i in range(n)
    )
    witness = _xi_witness(graph, images)
    return {
        "is_permutation": is_permutation,
        "adjacency_witness": witness,
        "breaks_adjacency": witness is not None,
        "skew_preserved_both_ways": skew_ok,
        "pairs_checked": n * (n - 1) // 2,
    }


def _xi_witness(graph: AdjacencyGraph, images: List[Optional[int]]) -> Optional[dict]:
    """The first adjacent pair of X planes (i < j, in catalog order) whose
    images, given as vertex indices, share a point but not a line, when
    that point is a beta point; None when there is no such pair."""
    cat = graph.catalog
    n = len(cat.g_x)
    nbrs, meets = graph.neighbours, graph.meets
    beta = set(cat.g_beta)
    for i in range(n):
        for j in sorted(nbrs[i]):
            if not i < j < n:
                continue
            a, b = images[i], images[j]
            if a is None or b is None or b in nbrs[a] or not meets[a] >> b & 1:
                continue
            cut = meet(graph.vertices[a], graph.vertices[b])
            if cut in beta:
                return {"m1": cat.g_x[i], "m2": cat.g_x[j], "images_meet": cut}
    return None


# -- graph export -------------------------------------------------------------------


def _vertex_classes(graph: AdjacencyGraph) -> List[int]:
    """Clique-class label per vertex: the index of an X plane's K-trace in
    the alpha regulus; the class of a Y plane P+L is that of the line P."""
    cat = graph.catalog
    alpha_index = {p: i for i, p in enumerate(cat.g_alpha)}
    y_class = {join(p, cat.l_line): i for i, p in enumerate(cat.g_alpha)}
    return [
        alpha_index[meet(v, cat.k_solid)] if t is SubmoduleType.X else y_class[v]
        for v, t in zip(graph.vertices, graph.types)
    ]


def graph_to_dot(graph: AdjacencyGraph) -> str:
    """Deterministic DOT text with orbit type and clique-class labels."""
    lines = ["graph adjacency {"]
    for i, cls in enumerate(_vertex_classes(graph)):
        lines.append(f'  v{i} [type="{graph.types[i].value}" class="{cls}"];')
    for i in range(graph.n):
        for j in sorted(graph.neighbours[i]):
            if j > i:
                lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: AdjacencyGraph) -> Dict[str, object]:
    return {
        "q": graph.catalog.field.q,
        "vertices": [
            {
                "index": i,
                "type": graph.types[i].value,
                "class": cls,
                "basis": [list(r) for r in v.basis],
            }
            for i, (v, cls) in enumerate(zip(graph.vertices, _vertex_classes(graph)))
        ],
        "edges": [
            [i, j]
            for i in range(graph.n)
            for j in sorted(graph.neighbours[i])
            if j > i
        ],
    }
