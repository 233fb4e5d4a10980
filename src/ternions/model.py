"""The plane model: cyclic submodules of pairs embedded into PG(5,q).

A generator pair (a, b) of ternions maps to the coordinate vector
phi(a,b) = (a11, a12, a22, b11, b12, b22) in F^6.  The cyclic submodule
generated by the pair maps to the span of the images of its three left
multiples by the matrix units, which is the plane (or smaller flat) the
geometry works with.  Nonzero submodules fall into exactly five classes:

  X      free with unimodular generator; 3-dim span not inside K
  Y      free, non-unimodular; 3-dim span inside K
  alpha  2-dim span (a regulus line of the quadric H)
  beta   1-dim span: a point of the solid J off the line L
  gamma  1-dim span: a point of L

The distinguished flats are the solids J (x3 = x6 = 0) and K (x1 = x4 = 0),
their common line L, and the hyperbolic quadric H = {x2 x6 = x3 x5} inside
K whose two reguli split into the alpha family (avoiding L) and the
opposite family (containing L).

Right multiplication by an invertible 2x2 ternion matrix lifts to a
6x6 matrix with a fixed sparsity-and-ties pattern; the lift is a group
homomorphism and intertwines phi with the right action.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from .gf import Field, automorphisms
from .linalg import (
    Subspace,
    canonicalize,
    check_budget,
    contains,
    coordinate_subspace,
    join,
    meet_dim,
    pencil,
    point_vectors,
    projective_points,
    projective_vectors,
    SemilinearMap,
)
from .ternion import (
    Ternion,
    TernionMatrix,
    TernionPair,
    e11,
    e12,
    e22,
)


class SubmoduleType(Enum):
    ZERO = "zero"
    X = "X"
    Y = "Y"
    ALPHA = "alpha"
    BETA = "beta"
    GAMMA = "gamma"


TYPE_ORDER = (
    SubmoduleType.X,
    SubmoduleType.Y,
    SubmoduleType.ALPHA,
    SubmoduleType.BETA,
    SubmoduleType.GAMMA,
)


def phi(v: TernionPair) -> tuple:
    """Coordinates (a11, a12, a22, b11, b12, b22) of a pair."""
    a, b = v
    return (a.x, a.y, a.z, b.x, b.y, b.z)


def phi_inverse(field: Field, vec) -> TernionPair:
    if len(vec) != 6:
        raise ValueError("expected a 6-vector")
    return (Ternion(field, vec[0], vec[1], vec[2]), Ternion(field, vec[3], vec[4], vec[5]))


def cyclic_span(v: TernionPair) -> Subspace:
    """Image of the cyclic submodule generated by the pair: the span of the
    images of its left multiples by the three matrix units, written out as
    e11 (a, b), e12 (a, b) and e22 (a, b)."""
    a, b = v
    rows = (
        (a.x, a.y, 0, b.x, b.y, 0),
        (0, a.z, 0, 0, b.z, 0),
        (0, 0, a.z, 0, 0, b.z),
    )
    return Subspace(a.field, 6, a.field.kernel.rref(rows))


def classify(v: TernionPair) -> SubmoduleType:
    """Orbit type of the cyclic submodule from the generator coordinates.

    Decision tree on (a11, b11), (a12, b12), (a22, b22); cross-checked
    against classify_by_rank, which inspects the span itself."""
    a, b = v
    head = a.x or b.x
    mid = a.y or b.y
    tail = a.z or b.z
    if not (head or mid or tail):
        return SubmoduleType.ZERO
    if not tail:
        return SubmoduleType.BETA if head else SubmoduleType.GAMMA
    if head:
        return SubmoduleType.X
    f = a.field
    det = f.sub(f.mul(a.z, b.y), f.mul(b.z, a.y))
    return SubmoduleType.Y if det else SubmoduleType.ALPHA


def classify_by_rank(v: TernionPair) -> SubmoduleType:
    """Independent classifier: span dimension plus containment in K and L."""
    field = v[0].field
    span = cyclic_span(v)
    d = span.dim
    if d == 0:
        return SubmoduleType.ZERO
    j, k, l = distinguished_flats(field)
    if d == 3:
        return SubmoduleType.Y if contains(k, span) else SubmoduleType.X
    if d == 2:
        return SubmoduleType.ALPHA
    return SubmoduleType.GAMMA if contains(l, span) else SubmoduleType.BETA


def is_unimodular(v: TernionPair) -> bool:
    """Whether a x + b y = 1 is solvable: 1 lies in the row space of the
    6x3 matrix of the map (x, y) -> a x + b y over the base field."""
    a, b = v
    field = a.field
    units = (e11(field), e12(field), e22(field))
    rows = tuple((a * e).triple() for e in units) + tuple((b * e).triple() for e in units)
    kern = field.kernel
    return kern.stack_rank(rows, ((1, 0, 1),)) == kern.rank(rows)


@lru_cache(maxsize=None)
def distinguished_flats(field: Field) -> Tuple[Subspace, Subspace, Subspace]:
    """(J, K, L): the two invariant solids and their common line."""
    j = coordinate_subspace(field, 6, (0, 1, 3, 4))  # x3 = x6 = 0
    k = coordinate_subspace(field, 6, (1, 2, 4, 5))  # x1 = x4 = 0
    l = coordinate_subspace(field, 6, (1, 4))
    return (j, k, l)


def quadric_value(field: Field, vec) -> int:
    """x2 x6 - x3 x5 at a 6-vector (zero exactly on the quadric inside K)."""
    return field.sub(field.mul(vec[1], vec[5]), field.mul(vec[2], vec[4]))


@dataclass(frozen=True)
class QuadricGeometry:
    """Points and generator lines of the hyperbolic quadric H inside K."""

    points: tuple
    regulus_alpha: tuple
    regulus_opposite: tuple
    point_vectors: FrozenSet[tuple]  # the normalised vector of each point


@lru_cache(maxsize=None)
def quadric(field: Field) -> QuadricGeometry:
    """Compute H, split its lines into the two reguli, and cross-check the
    alpha family against its parametric form.

    The lines of H through a point r of H lie in its tangent plane
    T_r = {y in K : B(r, y) = 0}, B being the polar form of x2 x6 - x3 x5,
    and they are the two of the q+1 lines through r in T_r whose points all
    lie on H.  Every point of the two lines through one point lies on one
    line of each regulus, so the lines through those points are all of
    them."""
    j, k, l = distinguished_flats(field)
    q = field.q
    pts = [p for p in projective_points(k) if quadric_value(field, p.basis[0]) == 0]
    if len(pts) != (q + 1) ** 2:
        raise AssertionError("hyperbolic quadric has the wrong number of points")
    vecs = frozenset(p.basis[0] for p in pts)
    first = _lines_of_h_through(pts[0], vecs)
    lines = set()
    for r in {p for m in first for p in projective_points(m)}:
        lines.update(_lines_of_h_through(r, vecs))
    if len(lines) != 2 * (q + 1):
        raise AssertionError("hyperbolic quadric has the wrong number of lines")
    opposite = sorted(
        (m for m in lines if m == l or meet_dim(m, l) == 0), key=Subspace.key
    )
    alpha = sorted((m for m in lines if m not in set(opposite)), key=Subspace.key)
    param = {
        canonicalize(field, 6, ((0, a, 0, 0, b, 0), (0, 0, a, 0, 0, b)))
        for (a, b) in _projective_parameters(field)
    }
    if param != set(alpha):
        raise AssertionError("alpha regulus does not match its parametric form")
    return QuadricGeometry(
        tuple(sorted(pts, key=Subspace.key)), tuple(alpha), tuple(opposite), vecs
    )


def _lines_of_h_through(r: Subspace, vecs: FrozenSet[tuple]) -> list:
    """The lines of H through its point r, found in the tangent plane T_r."""
    field = r.field
    x = r.basis[0]
    polar = (0, x[5], field.neg(x[4]), 0, field.neg(x[2]), x[1])  # y -> B(x, y)
    tangent = Subspace(
        field, 6, field.kernel.nullspace(((1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), polar), 6)
    )
    return [
        m for m in pencil(r, tangent, 2)
        if all(v in vecs for v in point_vectors(m))
    ]


def _projective_parameters(field: Field):
    """(a : b) over PG(1, q): (1, t) for all t, then (0, 1)."""
    for t in field.codes():
        yield (1, t)
    yield (0, 1)


def block6_lift(s: TernionMatrix) -> SemilinearMap:
    """The 6x6 lift of right multiplication by an invertible matrix."""
    if not s.is_invertible:
        raise ValueError("only invertible matrices lift to collineations")
    return SemilinearMap(s.field, 6, block6_rows(s), automorphisms(s.field)[0])


def block6_rows(s: TernionMatrix) -> tuple:
    """The raw 6x6 matrix of the lift (no invertibility requirement)."""
    a, b, c, d = s.a, s.b, s.c, s.d
    return (
        (a.x, a.y, 0, b.x, b.y, 0),
        (0, a.z, 0, 0, b.z, 0),
        (0, 0, a.z, 0, 0, b.z),
        (c.x, c.y, 0, d.x, d.y, 0),
        (0, c.z, 0, 0, d.z, 0),
        (0, 0, c.z, 0, 0, d.z),
    )


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


def is_block6_patterned(rows) -> bool:
    """Whether a 6x6 matrix matches the lift pattern: structural zeros plus
    the four tied diagonal pairs."""
    for (i, j) in BLOCK6_ZERO_POSITIONS:
        if rows[i][j]:
            return False
    for (p1, p2) in BLOCK6_TIED_POSITIONS:
        if rows[p1[0]][p1[1]] != rows[p2[0]][p2[1]]:
            return False
    return True


def matrix2_from_block6(field: Field, rows) -> TernionMatrix:
    """Rebuild the 2x2 ternion matrix from a patterned 6x6 lift."""
    if not is_block6_patterned(rows):
        raise ValueError("matrix does not have the lift pattern")
    return TernionMatrix(
        Ternion(field, rows[0][0], rows[0][1], rows[1][1]),
        Ternion(field, rows[0][3], rows[0][4], rows[1][4]),
        Ternion(field, rows[3][0], rows[3][1], rows[4][1]),
        Ternion(field, rows[3][3], rows[3][4], rows[4][4]),
    )


def line_model(v: TernionPair) -> Subspace:
    """The PG(3,q) line of a unimodular pair: the row space of
    ((a11, a12, b11, b12), (0, a22, 0, b22)) in F^4.

    Equals the trace M ^ J of the pair's plane under the coordinate
    projection of J onto (x1, x2, x4, x5)."""
    if not is_unimodular(v):
        raise ValueError("line model requires a unimodular pair")
    a, b = v
    field = a.field
    rows = ((a.x, a.y, b.x, b.y), (0, a.z, 0, b.z))
    return Subspace(field, 4, field.kernel.rref(rows))


LINE_MODEL_AXIS_COORDS = (1, 3)  # span{(0,1,0,0), (0,0,0,1)} in F^4


# -- the catalog -----------------------------------------------------------------


@dataclass
class Catalog:
    """Everything the geometry suite needs for one field: the five orbit
    lists (canonically sorted), witnesses, flats, and the quadric data."""

    field: Field
    g_x: tuple
    g_y: tuple
    g_alpha: tuple
    g_beta: tuple
    g_gamma: tuple
    witness: Dict[Subspace, TernionPair]
    j_solid: Subspace
    k_solid: Subspace
    l_line: Subspace
    quadric: QuadricGeometry
    budget: Optional[int] = None  # guards the point index

    def members(self, t: SubmoduleType) -> tuple:
        return {
            SubmoduleType.X: self.g_x,
            SubmoduleType.Y: self.g_y,
            SubmoduleType.ALPHA: self.g_alpha,
            SubmoduleType.BETA: self.g_beta,
            SubmoduleType.GAMMA: self.g_gamma,
        }[t]

    @cached_property
    def index(self) -> Dict[Subspace, Tuple[SubmoduleType, int]]:
        return {s: (t, i) for t in TYPE_ORDER for i, s in enumerate(self.members(t))}

    @cached_property
    def clique_intervals(self) -> Dict[Subspace, Tuple[Subspace, ...]]:
        """Per alpha regulus line P, the planes between P and P + J."""
        return {p: tuple(pencil(p, join(p, self.j_solid), 3)) for p in self.g_alpha}

    @cached_property
    def point_planes(self) -> Dict[tuple, int]:
        """Per normalised point vector, the bitmask over `planes` of the
        planes through that point; the X planes are the low len(g_x) bits.
        The budget guards the V (q^2+q+1) plane-point incidences."""
        q = self.field.q
        what = f"plane-point incidences (q={q})"
        check_budget(len(self.planes) * (q * q + q + 1), what, self.budget)
        masks: Dict[tuple, int] = {}
        for i, m in enumerate(self.planes):
            for v in point_vectors(m):
                masks[v] = masks.get(v, 0) | (1 << i)
        return masks

    def type_of(self, s: Subspace) -> Optional[SubmoduleType]:
        hit = self.index.get(s)
        return hit[0] if hit else None

    @property
    def planes(self) -> tuple:
        """The adjacency graph vertex set: X planes then Y planes."""
        return self.g_x + self.g_y

    def counts(self) -> Dict[str, int]:
        return {
            "X": len(self.g_x),
            "Y": len(self.g_y),
            "alpha": len(self.g_alpha),
            "beta": len(self.g_beta),
            "gamma": len(self.g_gamma),
        }


def expected_counts(q: int) -> Dict[str, int]:
    """Closed forms for the five orbit sizes."""
    return {
        "X": q * (q + 1) ** 2,
        "Y": q + 1,
        "alpha": q + 1,
        "beta": q**3 + q**2,
        "gamma": q + 1,
    }


def _unit_orbit_normal_forms(field: Field) -> Iterator[TernionPair]:
    """One generator pair per orbit of the left unit group on nonzero pairs.

    A unit u = (ux, uy, uz) sends (a11, a12, a22, b11, b12, b22) to
    (ux a11, ux a12 + uy a22, uz a22, ux b11, ux b12 + uy b22, uz b22).  So
    uz scales the tail (a22, b22) to a first nonzero entry 1; uy then clears
    a12 if a22 != 0, else b12; ux scales the head (a11, a12, b11, b12) to a
    first nonzero entry 1.  The forms are the zero tail with a normalised
    head, and each normalised tail with a zero or normalised head:
    (q^3+q^2+q+1) + (q+1)(q^2+q+2) pairs.  Each step puts the least code the
    orbit allows at the first coordinate it moves, so a normal form is the
    first pair of its orbit in enumerate_pairs order.

    The pairs that generate one submodule form exactly one unit orbit.  For
    a free T v, T w = T v gives w = s v and v = t w, so t s v = v forces
    t s = 1 and s is a unit.  For alpha, beta and gamma, writing out s v
    shows that every generator of T v is a unit multiple of v.  Hence the
    witness kept here is the first pair of the q^6 walk in enumerate_pairs
    order that generates the same submodule."""
    heads = [(0, 0, 0)] + list(projective_vectors(field, 3))
    for a11, a12, b11, b12 in projective_vectors(field, 4):
        yield phi_inverse(field, (a11, a12, 0, b11, b12, 0))
    for a22, b22 in projective_vectors(field, 2):
        for x, y, z in heads:
            if a22:  # (a11, 0, b11, b12)
                vec = (x, 0, a22, y, z, b22)
            else:  # (a11, a12, b11, 0)
                vec = (x, y, a22, z, 0, b22)
            yield phi_inverse(field, vec)


def normal_form_count(q: int) -> int:
    """How many pairs _unit_orbit_normal_forms yields."""
    return (q**3 + q**2 + q + 1) + (q + 1) * (q**2 + q + 2)


def build_catalog(field: Field, validate: bool = True, budget: Optional[int] = None) -> Catalog:
    """Classify one generator pair per left-unit orbit, keep its span with
    the pair as witness, and (by default) validate every orbit list against
    its independent geometric description.  The budget guards the normal
    forms here and is kept on the catalog for its point index."""
    q = field.q
    check_budget(normal_form_count(q), f"unit-orbit normal forms (q={q})", budget)
    buckets: Dict[SubmoduleType, Dict[Subspace, TernionPair]] = {
        t: {} for t in SubmoduleType if t is not SubmoduleType.ZERO
    }
    for v in _unit_orbit_normal_forms(field):
        span = cyclic_span(v)
        bucket = buckets[classify(v)]
        if span in bucket:
            raise AssertionError("two unit orbits generate one submodule")
        bucket[span] = v
    j, k, l = distinguished_flats(field)
    quad = quadric(field)
    witness: Dict[Subspace, TernionPair] = {}
    for t, d in buckets.items():
        witness.update(d)
    cat = Catalog(
        field=field,
        g_x=tuple(sorted(buckets[SubmoduleType.X], key=Subspace.key)),
        g_y=tuple(sorted(buckets[SubmoduleType.Y], key=Subspace.key)),
        g_alpha=tuple(sorted(buckets[SubmoduleType.ALPHA], key=Subspace.key)),
        g_beta=tuple(sorted(buckets[SubmoduleType.BETA], key=Subspace.key)),
        g_gamma=tuple(sorted(buckets[SubmoduleType.GAMMA], key=Subspace.key)),
        witness=witness,
        j_solid=j,
        k_solid=k,
        l_line=l,
        quadric=quad,
        budget=budget,
    )
    if validate:
        report = validate_catalog(cat, budget=budget)
        bad = [k_ for k_, ok in report.items() if ok is False]
        if bad:
            raise AssertionError(f"catalog validation failed: {bad}")
    return cat


def scan_planes_for_x(cat: Catalog, budget: Optional[int] = None) -> FrozenSet[Subspace]:
    """The X planes found geometrically: planes whose J-trace is a line
    other than L and whose K-trace is an alpha regulus line.

    The planes through an alpha line P form a PG(3,q): each is P + <w> for
    exactly one normalised w that is zero on the pivot columns of P's rref.
    P lies in K, so M = P + <w> lies in K when w does (w1 = w4 = 0), and
    otherwise M ^ K = P.  The scan keeps the M outside K with
    dim(M ^ J) = 2.  Such an M does not contain L: P meets L in a point,
    so L <= M would make M = P + L, which lies in K.  The budget guards
    the (q+1)(q^3+q^2+q+1) candidates."""
    field = cat.field
    q = field.q
    kern = field.kernel
    j_rows = cat.j_solid.basis
    count = len(cat.g_alpha) * (q**3 + q**2 + q + 1)
    check_budget(count, f"X-scan candidates (q={q})", budget)
    found = set()
    for p in cat.g_alpha:
        pivots = {row.index(1) for row in p.basis}
        free = [c for c in range(6) if c not in pivots]
        for w in projective_vectors(field, 4):
            vec = [0] * 6
            for c, x in zip(free, w):
                vec[c] = x
            if not (vec[0] or vec[3]):
                continue
            m = kern.rref(p.basis + (tuple(vec),))
            if kern.stack_rank(m, j_rows) == 5:  # dim(M ^ J) == 2
                found.add(Subspace(field, 6, m))
    return frozenset(found)


def validate_catalog(cat: Catalog, budget: Optional[int] = None) -> Dict[str, bool]:
    """Check each orbit list against its geometric characterization and the
    closed-form counts; returns a flat dict of booleans."""
    field = cat.field
    q = field.q
    j, k, l = cat.j_solid, cat.k_solid, cat.l_line
    report: Dict[str, bool] = {}
    exp = expected_counts(q)
    got = cat.counts()
    report["counts"] = got == exp
    l_points = set(projective_points(l))
    report["gamma_is_l"] = set(cat.g_gamma) == l_points
    j_points = set(projective_points(j))
    report["beta_is_j_minus_l"] = set(cat.g_beta) == j_points - l_points
    report["alpha_is_regulus"] = set(cat.g_alpha) == set(cat.quadric.regulus_alpha)
    report["y_is_pencil"] = set(cat.g_y) == set(pencil(l, k, 3))
    report["x_is_scan"] = set(cat.g_x) == scan_planes_for_x(cat, budget=budget)
    return report
