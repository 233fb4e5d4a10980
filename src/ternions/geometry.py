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

from bisect import bisect_right
from functools import cached_property
from itertools import combinations, repeat
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .gf import Field, FieldAutomorphism, automorphisms, primitive_element
from .linalg import (
    SemilinearMap,
    Subspace,
    check_budget,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    join,
    meet,
    meet_dim,
    pencil,
    point_vectors,
)
from .model import (
    TYPE_ORDER,
    Catalog,
    SubmoduleType,
    block6_rows,
    cyclic_span,
    embed_j,
    matrix2_from_block6,
    phi,
    phi_inverse,
)
from .ternion import (
    Ternion,
    TernionMatrix,
    TernionPair,
    act_right,
    t_one,
    t_zero,
    unit_generators,
)

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
    the planes' traces (`cat.traces`), ordered (X, Y, alpha, beta, gamma):

      * flats of one dimension are incident exactly when they are equal;
      * an alpha line lies on a plane exactly when it is the plane's alpha
        line: a line on the plane that is a submodule is one of its two
        traces, and an alpha line does not lie in J;
      * a beta or gamma point lies on a plane exactly when it lies on the
        plane's J-line: the point lies in J, and the plane meets J there;
      * a point lies on a line when it is one of the line's points.

    On the catalog `build_catalog` returns no J-line point is listed (see
    `_incidence_counts`)."""
    q = cat.field.q
    counts = _incidence_counts(cat)
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


def _incidence_counts(cat: Catalog) -> Dict[Subspace, List[int]]:
    """Per catalog member, its incidence counts (see incidence_table).

    J = {x3 = x6 = 0} and L = J ^ {x1 = x4 = 0}.  The rows of a J-line l
    that lie in L span l ^ L: in a combination vanishing at x1 and x4, a
    row with its pivot there has coefficient 0, and of the others only one
    with its pivot at x2 can be nonzero at x4.  When the J-lines meeting L
    in one point are all the q(q+1)^2 lines of J that do, once each and in
    one column, and the points of J off L are all members, in one column,
    each such point lies on q+1 of those J-lines (one through each point
    of L) and each J-line has q of the points.  Otherwise (never on a built
    catalog) their points off L are listed, as are the points of a J-line
    skew to L or equal to it."""
    q = cat.field.q
    counts: Dict[Subspace, List[int]] = {}
    column: Dict[Subspace, int] = {}
    for c, t in enumerate(TYPE_ORDER):
        for s in cat.members(t):
            counts.setdefault(s, [0] * 5)[c] += 1
            column[s] = c
    points = {s.basis[0]: s for s in column if s.dim == 1}

    def incident(z: Subspace, s: Subspace):
        counts[z][column[s]] += 1
        counts[s][column[z]] += 1

    meeting = []  # the planes whose J-line meets L in one point
    for s in column:
        if s.dim == 1:
            continue
        line = s
        if s.dim == 3:
            line, alpha_line = cat.traces[s]
            if alpha_line in column:
                incident(alpha_line, s)
            on_l = tuple(r for r in line.basis if not (r[0] or r[3]))
            if len(on_l) == 1:
                meeting.append(s)
                line = Subspace(cat.field, 6, on_l)
        for v in point_vectors(line):
            if v in points:
                incident(points[v], s)
    off_l = [z for v, z in points.items() if not (v[2] or v[5]) and (v[0] or v[3])]
    lines = {cat.traces[s][0] for s in meeting}
    if len(lines) == len(meeting) == q * (q + 1) ** 2 and len(off_l) == q**3 + q * q and (
        len({column[s] for s in meeting}) == len({column[z] for z in off_l}) == 1
    ):
        for s in meeting:
            counts[s][column[off_l[0]]] += q
        for z in off_l:
            counts[z][column[meeting[0]]] += q + 1
    else:
        for s in meeting:
            for v in point_vectors(cat.traces[s][0]):
                if (v[0] or v[3]) and v in points:
                    incident(points[v], s)
    return counts


# -- adjacency graph --------------------------------------------------------------


class AdjacencyGraph:
    """The graph on the X and Y planes, with vertex indices fixed by the
    catalog order (X planes first, then Y planes), as its trace groups:
    tuples of vertex indices, each ascending."""

    def __init__(self, catalog: Catalog, groups: tuple):
        self.catalog = catalog
        self.groups = groups
        self.vertices = catalog.planes
        self.vindex = {s: i for i, s in enumerate(self.vertices)}
        vertex_groups = [[] for _ in self.vertices]
        for gid, g in enumerate(groups):
            for i in g:
                vertex_groups[i].append(gid)
        self.vertex_groups = tuple(map(tuple, vertex_groups))  # per vertex, its group ids

    @property
    def n(self) -> int:
        return len(self.vertices)

    def are_adjacent(self, i: int, j: int) -> bool:
        """Whether i and j are distinct and share a group."""
        return i != j and any(g in self.vertex_groups[j] for g in self.vertex_groups[i])

    def check_edge_budget(self):
        """Raise BudgetError when the edges, C(size, 2) a group, exceed the
        catalog's budget: the guard of every path that lists them."""
        edges = sum(len(g) * (len(g) - 1) // 2 for g in self.groups)
        check_budget(edges, f"adjacency edges (q={self.catalog.field.q})", self.catalog.budget)

    @cached_property
    def neighbours(self) -> Tuple[FrozenSet[int], ...]:
        """Per vertex, the frozenset of the other members of its groups,
        after the edge budget is checked."""
        self.check_edge_budget()
        nbrs = [set() for _ in self.vertices]
        for g in self.groups:
            for i in g:
                nbrs[i].update(g)
        return tuple(frozenset(s - {i}) for i, s in enumerate(nbrs))

    @cached_property
    def cliques(self) -> Tuple[Tuple[FrozenSet[Optional[int]], ...], Tuple[Optional[int], ...]]:
        """(members, marked): per alpha regulus line P, in `g_alpha` order,
        the vertices of the clique [P, P+J]_3 and of its marked Y plane P+L,
        with None for a plane the catalog lacks (`suite_adjacency` fails
        its clique claims then).  Built on first use, so `build_graph` does
        not pay for the pencils."""
        cat = self.catalog
        get = self.vindex.get
        members = tuple(
            frozenset(map(get, pencil(p, join(p, cat.j_solid), 3))) for p in cat.g_alpha
        )
        return members, tuple(get(join(p, cat.l_line)) for p in cat.g_alpha)


def build_graph(cat: Catalog) -> AdjacencyGraph:
    """Adjacency from the traces `cat.traces`.  Two planes meet in a
    submodule, so they are adjacent exactly when they share their J-line
    or their alpha line, and two distinct planes share at most one of them
    (the two traces span the plane).  So every edge lies in exactly one
    group of planes on a common trace, and two groups share at most one
    plane.  The groups of two planes or more are kept: on the catalog, the
    q+1 alpha cliques [P, P+J]_3 and the Y clique [L, K]_3."""
    on: Dict[Subspace, List[int]] = {}
    for i, m in enumerate(cat.planes):
        for line in cat.traces[m]:
            on.setdefault(line, []).append(i)
    return AdjacencyGraph(cat, tuple(tuple(g) for g in on.values() if len(g) > 1))


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


def geodesics_from(graph: AdjacencyGraph, start: int) -> Tuple[List[int], List[int]]:
    """BFS from start: per vertex its distance (-1 for unreachable) and its
    number of shortest paths (0 for unreachable).  Each edge lies in one
    group, so a vertex at distance d sums, over its groups, the final
    counts of their members at distance d-1.  A group is expanded once,
    which puts all its members within distance d."""
    groups, vertex_groups = graph.groups, graph.vertex_groups
    dist = [-1] * graph.n
    paths = [0] * graph.n
    dist[start], paths[start] = 0, 1
    frontier = [start]
    expanded = set()
    d = 0
    while frontier:
        d += 1
        layer: Dict[int, int] = {}  # group -> summed counts of its frontier members
        for v in frontier:
            for g in vertex_groups[v]:
                if g not in expanded:
                    layer[g] = layer.get(g, 0) + paths[v]
        expanded.update(layer)
        nxt = []
        for g, count in layer.items():
            for w in groups[g]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
                if dist[w] == d:
                    paths[w] += count
        frontier = nxt
    return dist, paths


# -- transversal scans ------------------------------------------------------------


def standard_triple(field: Field) -> Tuple[Subspace, Subspace, Subspace]:
    """M0 = T(1, 0), M1 = T(0, 1) and M2 = T(1, 1): in coordinates F^3 + 0,
    0 + F^3 and the diagonal {(v, v)}."""
    one, zero = t_one(field), t_zero(field)
    return tuple(cyclic_span(v) for v in ((one, zero), (zero, one), (one, one)))


def is_skew_x_triple(cat: Catalog) -> bool:
    """Whether the standard triple is three pairwise skew X planes of the
    catalog, read off `cat.g_x` alone: no beta or gamma point is built."""
    planes = standard_triple(cat.field)
    return set(cat.g_x).issuperset(planes) and all(
        meet_dim(a, b) == 0 for a, b in combinations(planes, 2)
    )


def _anchored_scan(cat: Catalog, k: int) -> List[Subspace]:
    """All k-flats (k = 2 or 4) meeting every X plane in dimension k/2,
    sorted by key.

    Anchor at the standard triple M0 = F^3 + 0, M1 = 0 + F^3, M2 = {(v, v)}
    of pairwise skew X planes.  Such a flat F meets M0 and M1 in skew
    (k/2)-flats A + 0 and 0 + B, so F = A + B, and F ^ M2 is the set of
    (v, v) with v in A ^ B, of dimension k/2 exactly when B = A.  So the
    q^2+q+1 flats A + A, A a (k/2)-subspace of F^3, are an exhaustive
    candidate list, guarded by the catalog's budget; their rows (a, 0) and
    (0, a), a over the reduced basis of A, are already reduced.

    A candidate F inside K (x1 = x4 = 0 on its rows) meets an X plane M in
    F ^ M = F ^ (M ^ K), and M ^ K is M's stored alpha line
    `cat.traces[m][1]`; so F is tested against the q+1 distinct alpha
    lines, each met in dimension k/2 exactly when the rank of F and the
    line is k + 2 - k/2.  A candidate inside J (x3 = x6 = 0) is tested in
    the same way against the J-lines M ^ J, `cat.traces[m][0]`.  Every
    other candidate is tested against the X planes themselves, stopping at
    the first plane it fails."""
    field = cat.field
    if not is_skew_x_triple(cat):
        raise AssertionError("the standard triple is not three pairwise skew X planes")
    what = f"anchored scan candidates (k={k}, q={field.q})"
    check_budget(gaussian_binomial(3, k // 2, field.q), what, cat.budget)
    stack_rank = field.kernel.stack_rank
    traces = cat.traces
    in_k = {traces[m][1].basis for m in cat.g_x}
    in_j = {traces[m][0].basis for m in cat.g_x}
    xs = [m.basis for m in cat.g_x]
    zero = (0, 0, 0)
    out = []
    for a in enumerate_subspaces(field, 3, k // 2):
        rows = tuple(r + zero for r in a.basis) + tuple(zero + r for r in a.basis)
        if not any(r[0] for r in a.basis):  # F in K
            against, rank = in_k, k + 2 - k // 2
        elif not any(r[2] for r in a.basis):  # F in J
            against, rank = in_j, k + 2 - k // 2
        else:
            against, rank = xs, k + 3 - k // 2  # dim(F + M) when dim(F ^ M) = k/2
        if all(stack_rank(rows, b) == rank for b in against):
            out.append(Subspace(field, 6, rows))
    return sorted(out, key=Subspace.key)


def scan_lines(cat: Catalog) -> List[Subspace]:
    """All lines meeting every X plane in exactly one point."""
    return _anchored_scan(cat, 2)


def scan_solids(cat: Catalog) -> List[Subspace]:
    """All solids meeting every X plane in exactly a line."""
    return _anchored_scan(cat, 4)


def no_duality_certificate(
    cat: Catalog, lines: Sequence[Subspace], solids: Sequence[Subspace]
) -> Dict[str, object]:
    """Certificate that no duality of PG(5,q) fixes the X planes setwise:
    one would biject the transversal lines with the transversal solids, so
    unequal counts exclude it (equal counts are inconclusive), and the
    scans give q+1 lines but only 2 solids."""
    q = cat.field.q
    return {
        "transversal_lines": len(lines),
        "transversal_solids": len(solids),
        "duality_excluded": len(lines) != len(solids),
        "lines_are_opposite_regulus": set(lines) == set(cat.quadric.regulus_opposite),
        "solids_are_j_and_k": set(solids) == {cat.j_solid, cat.k_solid},
        "lines_expected": q + 1,
        "solids_expected": 2,
        "counts_match": len(lines) == q + 1 and len(solids) == 2,
    }


# -- semilinear collineations and the characterization theorem ---------------------


def induced_collineation(s: TernionMatrix, sigma: FieldAutomorphism) -> SemilinearMap:
    """The collineation v -> sigma(v) . lift(S) of PG(5,q)."""
    if not s.is_invertible:
        raise ValueError("S must be invertible")
    return SemilinearMap(s.field, 6, block6_rows(s), sigma)


def _fixes_j(matrix: Sequence[tuple]) -> bool:
    """Whether a collineation with this invertible matrix, under any sigma,
    maps J onto J.  J = <e1, e2, e4, e5>, and sigma fixes the codes 0 and
    1, so f(e_i) is row i of the matrix and f(J) is spanned by rows 0, 1, 3
    and 4.  They lie in J when they are zero in columns 2 and 5
    (x3 = x6 = 0), and the matrix is invertible, so the four rows then span
    all of J."""
    return not any(matrix[i][c] for i in (0, 1, 3, 4) for c in (2, 5))


def _point_images(f: SemilinearMap, rows: Sequence[tuple]) -> List[tuple]:
    """The normalised images of nonzero row vectors under f: sigma applied
    entrywise, then one matrix product (f is invertible, so no image is
    zero)."""
    norm = f.field.normalize
    return [norm(img) for img in f.field.kernel.matmul(f.sigma.apply(rows), f.matrix)]


def _fixes_j_and_h(f: SemilinearMap, cat: Catalog) -> bool:
    """Condition iv: f fixes the solid J and the quadric H setwise."""
    if not _fixes_j(f.matrix):
        return False
    hvecs = cat.quadric.point_vectors
    return all(v in hvecs for v in _point_images(f, tuple(hvecs)))


def first_failed_condition(f: SemilinearMap, cat: Catalog) -> Optional[str]:
    """The first condition of Theorem 1 that f fails: "iv" when f does not
    fix the solid J and the quadric H setwise, None when it does, read off
    the matrix and the images of the points of H; no plane is imaged.

    iv implies the other two conditions of Theorem 1, iii (f permutes the
    X planes) and ii (f permutes the X and Y planes together): a map
    fixing J and H fixes K, L and the alpha regulus, so it permutes the X
    planes, characterised by these (`chars:x`), and the Y planes, the
    planes of K through L (`chars:y`); see `suites.suite_thm1`."""
    return None if _fixes_j_and_h(f, cat) else "iv"


class ModuleMap:
    """The module map v -> unit sigma(v) S of Theorem 1, the form a
    collineation is decomposed into (`decompose_semilinear`)."""

    def __init__(self, sigma: FieldAutomorphism, unit: Ternion, matrix: TernionMatrix):
        self.sigma = sigma
        self.unit = unit
        self.matrix = matrix

    def apply(self, v: TernionPair) -> TernionPair:
        f = self.unit.field
        a, b = (Ternion(f, *t) for t in self.sigma.apply((v[0].triple(), v[1].triple())))
        return act_right((self.unit * a, self.unit * b), self.matrix)


def _homothety_rows(a: int, b: int) -> tuple:
    """The matrix fixing J pointwise with parameters (a, b): identity except
    e3 -> a e2 + b e3 and e6 -> a e5 + b e6."""
    rows = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    rows[2] = [0, a, b, 0, 0, 0]
    rows[5] = [0, 0, 0, 0, a, b]
    return tuple(tuple(r) for r in rows)


def g0_generators(field: Field) -> Dict[str, List[SemilinearMap]]:
    """Generators of the group G0 of collineations Theorem 1 names (the
    lifts of GL2(T), the field automorphisms and the homotheties), by kind:

      elementary: the lifts of [[1, t], [0, 1]], then of [[1, 0], [t, 1]],
        for t = c e with c a code p^i (the powers of the field generator,
        an F_p-basis of F_q) and e in e11, e12, e22: 3k each for q = p^k;
      diagonal: the lifts of diag(u, 1) for the three `unit_generators`;
      frobenius: the entrywise Frobenius, when k > 1;
      homothety: `_homothety_rows(0, g)` and `_homothety_rows(1, 1)`,
        g the primitive element.

    t -> [[1, t], [0, 1]] is additive and the c e are an F_p-basis of T, so
    the elementary lifts give E2(T).  T is finite, hence semilocal, hence of
    stable rank 1, so GL2(T) = E2(T) diag(T*, 1) (Bass), and the units
    generate T*.  The Frobenius generates Aut(F_q).  The homothety (a, b)
    followed by (a', b') is (a + b a', b b'), so (1, 1) generates the
    translations (n, 1) for n in F_p, its conjugates by (0, g)^i are (g^i, 1),
    and the powers of g span F_q: the two give all q(q-1) homotheties."""
    ident, *frob = automorphisms(field)
    one, zero = t_one(field), t_zero(field)
    cs = [field.p**i for i in range(field.k)]
    basis = (
        [Ternion(field, c, 0, 0) for c in cs]
        + [Ternion(field, 0, c, 0) for c in cs]
        + [Ternion(field, 0, 0, c) for c in cs]
    )
    uppers = [TernionMatrix(one, t, zero, one) for t in basis]
    lowers = [TernionMatrix(one, zero, t, one) for t in basis]
    diagonals = [TernionMatrix(u, zero, zero, one) for u in unit_generators(field)]
    g = primitive_element(field)
    return {
        "elementary": [induced_collineation(s, ident) for s in uppers + lowers],
        "diagonal": [induced_collineation(s, ident) for s in diagonals],
        "frobenius": [SemilinearMap(field, 6, full_space(field, 6).basis, f) for f in frob[:1]],
        "homothety": [
            SemilinearMap(field, 6, _homothety_rows(a, b), ident)
            for a, b in ((0, g), (1, 1))
        ],
    }


def stabilizer_factorisation(field: Field) -> Tuple[int, bool]:
    """Check that diag(A, A), A = [[a, b, 0], [0, c, 0], [0, d, e]], is the
    lift of diag(u, u), u = (a, b, c), times the homothety (d/c, e/c);
    return how many products were compared and whether all matched.  For
    a fixed unit c both sides are affine in (a, b) and in (d, e)
    separately (the lift's entries are a, b, c, the homothety's d/c, e/c),
    so it suffices that the identity holds with (a, b) and (d, e) each over
    the affine basis (0, 0), (1, 0), (0, 1): 9 (q-1) products."""
    matmul = field.kernel.matmul
    zero = t_zero(field)
    basis = ((0, 0), (1, 0), (0, 1))
    ok = True
    for c in range(1, field.q):
        c_inv = field.inv(c)
        for a, b in basis:
            u = Ternion(field, a, b, c)
            lift = block6_rows(TernionMatrix(u, zero, zero, u))
            for d, e in basis:
                h = _homothety_rows(field.mul(d, c_inv), field.mul(e, c_inv))
                block = ((a, b, 0), (0, c, 0), (0, d, e))
                want = tuple(r + (0, 0, 0) for r in block) + tuple((0, 0, 0) + r for r in block)
                ok = ok and matmul(lift, h) == want
    return 9 * (field.q - 1), ok


def decompose_semilinear(f: SemilinearMap, cat: Catalog) -> ModuleMap:
    """The module map (sigma, (1, a, b), S) of a collineation f fixing J and
    H, read off its matrix, which is H(a, b) lift(S) by Theorem 1 (H is
    `_homothety_rows`).  sigma is f's own: f(c e1) = sigma(c) f(e1) with
    f(e1) != 0.  H changes only rows 2 and 5 (from 0), so row 1 is
    (0, s, 0, 0, t, 0) with (s, t) = (a22, b22) of S, not both 0, and row 2
    is (0, as, bs, 0, at, bt).  H(-a/b, 1/b) H(a, b) = 1 leaves lift(S).
    Raises ValueError when f does not fix J and H setwise, or when its
    matrix is not of this form."""
    field = f.field
    if not _fixes_j_and_h(f, cat):
        raise ValueError("decomposition requires f(J) = J and f(H) = H")
    m = f.matrix
    col = 1 if m[1][1] else 4
    if not m[1][col]:
        raise ValueError("row 1 of the matrix is zero in columns 1 and 4")
    s_inv = field.inv(m[1][col])
    a, b = field.mul(m[2][col], s_inv), field.mul(m[2][col + 1], s_inv)
    if not b:
        raise ValueError("the homothety read off the matrix has b = 0")
    b_inv = field.inv(b)
    h_inv = _homothety_rows(field.neg(field.mul(a, b_inv)), b_inv)
    s = matrix2_from_block6(field, field.kernel.matmul(h_inv, m))  # raises when not a lift
    return ModuleMap(f.sigma, Ternion(field, 1, a, b), s)


def verify_decomposition(f: SemilinearMap, g: ModuleMap) -> bool:
    """Check phi(g(v)) = f(phi(v)) for every pair v, from the six basis
    pairs.  The module map g (sigma entrywise, then the left unit, then
    right multiplication by S) is sigma-semilinear, as the unit and S act
    F-linearly (F is central in T); f is semilinear over its automorphism,
    checked to be sigma, and phi is linear.  So phi o g and f o phi are
    sigma-semilinear maps of F^6, equal once they agree on a basis.  This
    round trip is also the matrix-level check that f is the lift after the
    homothety after sigma: both sides are sigma-semilinear, and such maps
    agree on a basis exactly when their matrices agree."""
    if g.sigma != f.sigma:
        return False
    field = f.field
    return all(
        phi(g.apply(phi_inverse(field, vec))) == f.apply_vector(vec)
        for vec in full_space(field, 6).basis
    )


# -- adjacency preservers -----------------------------------------------------------


def recipe_generators(graph: AdjacencyGraph) -> Dict[str, Tuple[int, ...]]:
    """Four vertex permutations that generate every recipe permutation (see
    `is_recipe`; the argument is in `suites.suite_adjacency`): a clique
    transposition and a clique (q+1)-cycle, which send the non-marked
    members of clique a onto those of its image in sorted order and marked
    to marked, and a transposition and a (q^2+q)-cycle of the non-marked
    members of clique 0, which fix every other plane."""
    members, marked = graph.cliques
    n = len(members)
    order = [sorted(c - {y}) + [y] for c, y in zip(members, marked)]

    def permutation(pairs) -> Tuple[int, ...]:
        perm = list(range(graph.n))
        for z, w in pairs:
            perm[z] = w
        return tuple(perm)

    def blocks(mu: List[int]) -> Tuple[int, ...]:
        return permutation(pair for a, b in enumerate(mu) for pair in zip(order[a], order[b]))

    x = order[0][:-1]
    return {
        "clique transposition": blocks([1, 0] + list(range(2, n))),
        "clique cycle": blocks(list(range(1, n)) + [0]),
        "plane transposition": permutation(zip(x, [x[1], x[0]] + x[2:])),
        "plane cycle": permutation(zip(x, x[1:] + x[:1])),
    }


def is_recipe(perm: Sequence[int], graph: AdjacencyGraph) -> bool:
    """Whether perm is a recipe permutation: the cliques [P, P+J]_3 of
    `graph.cliques` cover the vertices exactly once, perm permutes their
    marked planes P+L, and it maps each clique onto the clique of its
    marked plane's image.  Such a perm is a bijection: it permutes the
    cliques, so their images cover the vertices, and a map of a finite set
    onto itself is one to one."""
    members, marked = graph.cliques
    n = graph.n
    if len(perm) != n or sorted(v for c in members for v in c) != list(range(n)):
        return False
    if sorted(perm[y] for y in marked) != sorted(marked):
        return False
    position = {y: a for a, y in enumerate(marked)}
    return all(
        {perm[z] for z in c} == members[position[perm[y]]] for c, y in zip(members, marked)
    )


def verify_preserver(perm: Sequence[int], graph: AdjacencyGraph) -> bool:
    """Whether perm permutes the vertex indices and preserves adjacency in
    both directions: exactly when it maps every group onto a group.  If:
    edges go into groups, and perm, mapping distinct groups to distinct
    groups, permutes them, so perm^-1 maps groups onto groups too.  Only
    if: the groups are the maximal cliques (`adj:cliques`)."""
    n = graph.n
    if len(perm) != n or set(perm) != set(range(n)):
        return False
    groups = {frozenset(g) for g in graph.groups}
    return all(frozenset(perm[v] for v in g) in groups for g in graph.groups)


def preserver_from_collineation(f: SemilinearMap, graph: AdjacencyGraph) -> Tuple[int, ...]:
    """The vertex permutation induced by a collineation satisfying (ii):
    each plane is imaged with `f.apply` and looked up in `graph.vindex`."""
    perm = tuple(graph.vindex.get(f.apply(z), -1) for z in graph.vertices)
    if -1 in perm:
        raise ValueError("collineation does not preserve the plane set")
    return perm


# -- the correlation-based bijection xi ----------------------------------------------


def j_form(field: Field, u, w) -> int:
    """u1 w2 + u2 w1 + u4 w5 + u5 w4, the symmetric form of the correlation
    delta_J of J; x3 and x6 do not enter it."""
    add, mul = field.add, field.mul
    return add(add(mul(u[0], w[1]), mul(u[1], w[0])), add(mul(u[3], w[4]), mul(u[4], w[3])))


def delta_j(u: Subspace) -> Subspace:
    """The image under delta_J of a subspace U of J: the w in J with
    j_form(u, w) = 0 for every u in U, which sends the point
    (a, b, 0, c, d, 0) to the plane b x1 + a x2 + d x4 + c x5 = 0 of J.
    It is the null space, on J's coordinates (x1, x2, x4, x5), of U's
    rows with x1, x2 and x4, x5 swapped.  The form is nondegenerate and
    symmetric on J, so delta_J reverses inclusion and is an involution; it
    fixes L."""
    rows = tuple((r[1], r[0], r[4], r[3]) for r in u.basis)
    return Subspace(u.field, 6, embed_j(u.field.kernel.nullspace(rows, 4)))


def xi_map(m: Subspace, cat: Catalog) -> Optional[Subspace]:
    """The X plane whose J-line is delta_J(M ^ J), from `cat.x_by_j_line`:
    delta_J fixes L, so it permutes the lines of J meeting L in a point,
    which are the J-lines of the X planes.  None when the catalog holds no
    X plane on that line, which `xi_report` counts as a failure."""
    if cat.type_of(m) is not SubmoduleType.X:
        raise ValueError("xi is defined on X planes")
    return cat.x_by_j_line.get(delta_j(cat.traces[m][0]))


def xi_report(graph: AdjacencyGraph) -> Dict[str, object]:
    """Everything checked about xi, on all pairs of X planes: it permutes
    the X planes, some adjacent pair maps to a pair meeting in a single beta
    point (so adjacency is not preserved), and skew pairs map to skew pairs
    in both directions.

    Two planes meet in a submodule, which has a point in J when nonzero,
    so they share a point exactly when their J-lines meet.  Lines l, m of
    J are skew exactly when l + m = J, and delta_J(l) ^ delta_J(m) =
    delta_J(l + m) is zero exactly then.  So a permutation xi keeps
    skewness both ways once xi(M) ^ J = delta_J(M ^ J) for each X plane M.
    Both sides are lines, so it is enough that `j_form` vanishes on the
    rows u of M ^ J and w of xi(M) ^ J: n_x checks on the stored trace
    rows, with no product of matrices.
    The witness is the first adjacent pair (i < j, in catalog order) whose
    images share a point but not a line, and that point is a beta point.
    An image outside the X planes fails the first and the last check."""
    cat = graph.catalog
    xs = cat.g_x
    n = len(xs)
    traces = cat.traces
    field = cat.field
    images = [graph.vindex.get(xi_map(m, cat)) for m in xs]
    is_permutation = set(images) == set(range(n))

    def polar(line: Subspace, image: Subspace) -> bool:
        return not any(j_form(field, u, w) for u in line.basis for w in image.basis)

    skew_ok = is_permutation and all(
        polar(traces[m][0], traces[graph.vertices[a]][0]) for m, a in zip(xs, images)
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
    that point is a beta point; None when there is no such pair.  Images
    that are not adjacent share a point when their J-lines meet."""
    cat = graph.catalog
    n = len(cat.g_x)
    groups, vertex_groups = graph.groups, graph.vertex_groups
    verts, traces = graph.vertices, cat.traces
    beta = set(cat.g_beta)
    for i in range(n):
        for j in sorted({j for g in vertex_groups[i] for j in groups[g] if i < j < n}):
            a, b = images[i], images[j]
            if a is None or b is None or graph.are_adjacent(a, b):
                continue
            if not meet_dim(traces[verts[a]][0], traces[verts[b]][0]):
                continue
            cut = meet(verts[a], verts[b])
            if cut in beta:
                return {"m1": cat.g_x[i], "m2": cat.g_x[j], "images_meet": cut}
    return None


# -- graph export -------------------------------------------------------------------


def _vertex_classes(graph: AdjacencyGraph) -> List[int]:
    """Clique-class label per vertex: the index in the alpha regulus of its
    stored alpha line, which is an X plane's K-trace and the line P of a
    Y plane P+L."""
    cat = graph.catalog
    alpha_index = {p: i for i, p in enumerate(cat.g_alpha)}
    return [alpha_index[cat.traces[v][1]] for v in graph.vertices]


def graph_edges(graph: AdjacencyGraph) -> List[Tuple[int, int]]:
    """The edges (i, j), i < j, in ascending order, after the edge budget is
    checked.  Every edge lies in exactly one group and two groups share at
    most one vertex (see `build_graph`), and each group is ascending, so the
    j > i adjacent to i are the members after i of its groups, in disjoint
    slices merged by one sort.  On the catalog a vertex lies in one group,
    or in two if it is a Y plane."""
    graph.check_edge_budget()
    groups = graph.groups
    edges: List[Tuple[int, int]] = []
    for i, gids in enumerate(graph.vertex_groups):
        later: List[int] = []
        for gid in gids:
            g = groups[gid]
            later += g[bisect_right(g, i) :]
        later.sort()
        edges += zip(repeat(i), later)
    return edges


def graph_to_dot(graph: AdjacencyGraph) -> str:
    """Deterministic DOT text with orbit type and clique-class labels."""
    n_x = len(graph.catalog.g_x)
    lines = ["graph adjacency {"]
    for i, cls in enumerate(_vertex_classes(graph)):
        lines.append(f'  v{i} [type="{"X" if i < n_x else "Y"}" class="{cls}"];')
    lines += [f"  v{i} -- v{j};" for i, j in graph_edges(graph)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: AdjacencyGraph) -> Dict[str, object]:
    n_x = len(graph.catalog.g_x)
    return {
        "q": graph.catalog.field.q,
        "vertices": [
            {
                "index": i,
                "type": "X" if i < n_x else "Y",
                "class": cls,
                "basis": [list(r) for r in v.basis],
            }
            for i, (v, cls) in enumerate(zip(graph.vertices, _vertex_classes(graph)))
        ],
        "edges": graph_edges(graph),
    }
