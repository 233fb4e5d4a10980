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

Right multiplication by an invertible 2x2 ternion matrix lifts to the
6x6 matrix block6_rows writes out; the lift is a group homomorphism and
intertwines phi with the right action.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from .gf import Field, check_codes
from .linalg import (
    Subspace,
    check_budget,
    complement_in,
    coordinate_subspace,
    meet_dim,
    pencil,
    point_vectors,
    projective_points,
    projective_vectors,
)
from .ternion import (
    Ternion,
    TernionMatrix,
    TernionPair,
    _ternion,
    scale_left,
    t_one,
    t_zero,
    unit_generators,
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
    """The pair with coordinates vec, six element codes of the field."""
    if len(vec) != 6:
        raise ValueError("expected a 6-vector")
    check_codes(vec, field.q, "coordinate")
    return _pair(field, vec)


def _pair(field: Field, vec) -> TernionPair:
    """The pair with coordinates vec, codes the package made or checked."""
    return (_ternion(field, vec[0], vec[1], vec[2]), _ternion(field, vec[3], vec[4], vec[5]))


def _span_rows(v: TernionPair) -> tuple:
    """The images of e11 (a, b), e12 (a, b) and e22 (a, b), written out."""
    a, b = v
    return (
        (a.x, a.y, 0, b.x, b.y, 0),
        (0, a.z, 0, 0, b.z, 0),
        (0, 0, a.z, 0, 0, b.z),
    )


def cyclic_span(v: TernionPair) -> Subspace:
    """Image of the cyclic submodule generated by the pair: the span of the
    images of its left multiples by the three matrix units."""
    field = v[0].field
    return Subspace(field, 6, field.kernel.rref(_span_rows(v)))


def _readings(v: TernionPair) -> tuple:
    """The coordinate pairs classify reads: head (a11, b11), mid (a12, b12)
    and tail (a22, b22)."""
    a, b = v
    return (a.x, b.x), (a.y, b.y), (a.z, b.z)


def _det(v: TernionPair) -> int:
    """a22 b12 - b22 a12, which classify reads to tell Y from alpha."""
    a, b = v
    f = a.field
    return f.sub(f.mul(a.z, b.y), f.mul(b.z, a.y))


def classify(v: TernionPair) -> SubmoduleType:
    """Orbit type of the cyclic submodule from the generator coordinates.

    Decision tree on whether the readings (`_readings`, `_det`) vanish;
    cross-checked against classify_by_rank, which inspects the span
    itself."""
    head, mid, tail = _readings(v)
    if not any(tail):
        if any(head):
            return SubmoduleType.BETA
        return SubmoduleType.GAMMA if any(mid) else SubmoduleType.ZERO
    if any(head):
        return SubmoduleType.X
    return SubmoduleType.Y if _det(v) else SubmoduleType.ALPHA


def classify_by_rank(span: Subspace) -> SubmoduleType:
    """Independent classifier of a cyclic span (`cyclic_span`): its
    dimension plus containment in K and L.  Both are coordinate flats, so
    the span lies in one exactly when the coordinates the flat lacks vanish
    on every row of the span's basis."""
    d = span.dim
    if d == 0:
        return SubmoduleType.ZERO
    rows = span.basis
    if d == 3:  # K = {x1 = x4 = 0}
        return SubmoduleType.X if any(r[0] or r[3] for r in rows) else SubmoduleType.Y
    if d == 2:
        return SubmoduleType.ALPHA
    if any(r[0] or r[2] or r[3] or r[5] for r in rows):  # L = <e2, e5>
        return SubmoduleType.BETA
    return SubmoduleType.GAMMA


def _unimodular_rows(v: TernionPair) -> tuple:
    """a e11, a e12, a e22, b e11, b e12 and b e22 as coordinate triples."""
    a, b = v
    return ((a.x, 0, 0), (0, a.x, 0), (0, a.y, a.z), (b.x, 0, 0), (0, b.x, 0), (0, b.y, b.z))


def is_unimodular(v: TernionPair) -> bool:
    """Whether a x + b y = 1 is solvable.  The values a x + b y form the
    right ideal a T + b T, the row space of a e11 = (a11, 0, 0),
    a e12 = (0, a11, 0), a e22 = (0, a12, a22) and the same for b; a right
    ideal holds 1 exactly when it is all of T, so exactly when these six
    rows (`_unimodular_rows`) have rank 3."""
    return v[0].field.kernel.rank(_unimodular_rows(v)) == 3


def unit_invariance(field: Field) -> Tuple[int, int]:
    """How many of the identities fail that make classify and cyclic_span,
    and is_unimodular, constant on the orbits of the left unit group T*:
    (classifier failures, unimodular failures).

    A unit u = (x, y, z) acts by scale_left.  e_ij (u v) = (e_ij u) v with
    e11 u = x e11 + y e12, e12 u = z e12 and e22 u = z e22, so
    _span_rows(u v) = R(u) _span_rows(v), R(u) = [[x, y, 0], [0, z, 0],
    [0, 0, z]]; R(u) has rank 3, so T u v = T v.  The rows is_unimodular
    ranks are a e_ij and b e_ij, and u (a e_ij) = (u a) e_ij, so they change
    by the left multiplication (p, r, s) -> (x p, x r + y s, z s), of rank
    3.  classify reads whether head, tail, mid (when the tail is 0) and det
    vanish, and u sends them to x head, z tail, x mid + y tail and x z det.
    Each side of each identity is linear in v, and det is a quadratic form,
    so they hold for all q^6 pairs once they hold on the six basis vectors
    e_i of F^6 and, for det, on the e_i + e_j.  They are checked for each
    of the `unit_generators`, so they hold for every unit once these
    generate T*: their closure under products is a group of units with
    (q-1)^2 q elements, the order of T*."""
    kern = field.kernel
    mul, add = field.mul, field.add

    def comb(c, p, d=0, s=(0, 0)):  # c p + d s on coordinate pairs
        return tuple(add(mul(c, pi), mul(d, si)) for pi, si in zip(p, s))

    # e_j + e_k for j <= k, where e_j + e_j stands for e_j
    pairs = {
        (j, k): _pair(field, tuple(int(i in (j, k)) for i in range(6)))
        for j in range(6)
        for k in range(j, 6)
    }
    basis = [pairs[j, j] for j in range(6)]
    units = unit_generators(field)
    cls_bad = unimod_bad = 0
    for u in units:
        x, y, z = u.triple()
        r = ((x, y, 0), (0, z, 0), (0, 0, z))
        left = ((x, 0, 0), (0, x, 0), (0, y, z))  # rows: u e11, u e12, u e22
        cls_bad += kern.rank(r) != 3
        unimod_bad += kern.rank(left) != 3
        for v in basis:
            w = scale_left(u, v)
            head, mid, tail = _readings(v)
            cls_bad += _span_rows(w) != kern.matmul(r, _span_rows(v))
            cls_bad += _readings(w) != (comb(x, head), comb(x, mid, y, tail), comb(z, tail))
            unimod_bad += _unimodular_rows(w) != kern.matmul(_unimodular_rows(v), left)
        xz = mul(x, z)
        cls_bad += sum(_det(scale_left(u, v)) != mul(xz, _det(v)) for v in pairs.values())
    one = t_one(field)
    group, todo = {one}, [one]
    while todo:
        t = todo.pop()
        for u in units:
            s = t * u
            if s not in group:
                group.add(s)
                todo.append(s)
    generated = len(group) == (field.q - 1) ** 2 * field.q
    return cls_bad + (not generated), unimod_bad + (not generated)


@lru_cache(maxsize=None)
def distinguished_flats(field: Field) -> Tuple[Subspace, Subspace, Subspace]:
    """(J, K, L): the two invariant solids and their common line."""
    j = coordinate_subspace(field, 6, (0, 1, 3, 4))  # x3 = x6 = 0
    k = coordinate_subspace(field, 6, (1, 2, 4, 5))  # x1 = x4 = 0
    l = coordinate_subspace(field, 6, (1, 4))
    return (j, k, l)


def standard_triple(field: Field) -> Tuple[Subspace, Subspace, Subspace]:
    """M0 = T(1, 0), M1 = T(0, 1) and M2 = T(1, 1): in coordinates F^3 + 0,
    0 + F^3 and the diagonal {(v, v)}."""
    one, zero = t_one(field), t_zero(field)
    return tuple(cyclic_span(v) for v in ((one, zero), (zero, one), (one, one)))


def meet_j(u: Subspace) -> tuple:
    """The canonical basis of u ^ J on J's coordinates (x1, x2, x4, x5),
    from one reduction of u's rows with x3 and x6 moved first: the reduced
    rows that vanish there span u ^ J, and they are already reduced in the
    other four coordinates."""
    red = u.field.kernel.rref(tuple((r[2], r[5], r[0], r[1], r[3], r[4]) for r in u.basis))
    return tuple(r[2:] for r in red if not (r[0] or r[1]))


def embed_j(rows) -> tuple:
    """Rows on J's coordinates (x1, x2, x4, x5) written out in F^6; a
    reduced basis stays reduced."""
    return tuple((a, b, 0, c, d, 0) for a, b, c, d in rows)


def quadric_value(field: Field, vec) -> int:
    """x2 x6 - x3 x5 at a 6-vector (zero exactly on the quadric inside K)."""
    return field.sub(field.mul(vec[1], vec[5]), field.mul(vec[2], vec[4]))


class QuadricGeometry:
    """Points and generator lines of the hyperbolic quadric H inside K."""

    __slots__ = ("regulus_alpha", "regulus_opposite", "point_vectors")

    def __init__(
        self, regulus_alpha: tuple, regulus_opposite: tuple, point_vectors: FrozenSet[tuple]
    ):
        self.regulus_alpha = regulus_alpha
        self.regulus_opposite = regulus_opposite
        self.point_vectors = point_vectors  # the normalised vector of each point


def _regulus_lines(a: int, b: int) -> tuple:
    """The rows of the lines with parameter (a : b) in the alpha and the
    opposite family of H, reduced when (a : b) has a leading 1."""
    return ((0, a, 0, 0, b, 0), (0, 0, a, 0, 0, b)), ((0, a, b, 0, 0, 0), (0, 0, 0, 0, a, b))


@lru_cache(maxsize=None)
def quadric(field: Field) -> QuadricGeometry:
    """H read off its equation on K, and its two reguli from their closed
    forms over (a : b) in PG(1, q) (`_regulus_lines`): the alpha family
    span((0,a,0,0,b,0), (0,0,a,0,0,b)) and the opposite family
    span((0,a,b,0,0,0), (0,0,0,0,a,b)).

    Each family must be q+1 lines whose points are the (q+1)^2 points of
    H, each exactly once.  Its lines then lie on H and are pairwise skew,
    so they are one regulus, as lines of different reguli meet.  L must
    lie in the opposite family and not in the alpha family.  A failed
    check raises AssertionError."""
    _, k, l = distinguished_flats(field)
    vecs = frozenset(v for v in point_vectors(k) if quadric_value(field, v) == 0)
    alpha, opposite = (
        _regulus(field, vecs, rows)
        for rows in zip(*(_regulus_lines(a, b) for a, b in projective_vectors(field, 2)))
    )
    if l not in opposite or l in alpha:
        raise AssertionError("L is not a line of the opposite regulus alone")
    return QuadricGeometry(alpha, opposite, vecs)


def _regulus(field: Field, vecs: FrozenSet[tuple], rows) -> tuple:
    """The lines with the given reduced rows, sorted by key, once they are
    q+1 lines that cover the points vecs of H, each exactly once."""
    lines = sorted((Subspace(field, 6, r) for r in rows), key=Subspace.key)
    seen = [v for m in lines for v in point_vectors(m)]
    if len(lines) != field.q + 1 or sorted(seen) != sorted(vecs):
        raise AssertionError("a family of lines is not a regulus of H")
    return tuple(lines)


def _lift(a, b, c, d) -> tuple:
    """The 6x6 matrix of the lift of [[a, b], [c, d]], each entry given as
    its coordinate triple."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = a, b, c, d
    return (
        (ax, ay, 0, bx, by, 0),
        (0, az, 0, 0, bz, 0),
        (0, 0, az, 0, 0, bz),
        (cx, cy, 0, dx, dy, 0),
        (0, cz, 0, 0, dz, 0),
        (0, 0, cz, 0, 0, dz),
    )


def block6_rows(s: TernionMatrix) -> tuple:
    """The raw 6x6 matrix of the lift (no invertibility requirement)."""
    return _lift(s.a.triple(), s.b.triple(), s.c.triple(), s.d.triple())


def _carried_triples(rows) -> tuple:
    """The triples of a, b, c and d read off the 12 entries of a 6x6 matrix
    at which the lift puts them."""
    return tuple((rows[i][j], rows[i][j + 1], rows[i + 1][j + 1]) for i in (0, 3) for j in (0, 3))


def is_block6_patterned(rows) -> bool:
    """Whether a 6x6 matrix is a lift: equal to the lift of the triples read
    off its carried entries.  Codes only are compared, so no field is
    needed."""
    return _lift(*_carried_triples(rows)) == tuple(map(tuple, rows))


def matrix2_from_block6(field: Field, rows) -> TernionMatrix:
    """Rebuild the 2x2 ternion matrix from its 6x6 lift."""
    if not is_block6_patterned(rows):
        raise ValueError("matrix does not have the lift pattern")
    return TernionMatrix(*(Ternion(field, *t) for t in _carried_triples(rows)))


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


class Catalog:
    """Everything the geometry suite needs for one field: the X planes, Y
    planes and alpha lines (canonically sorted) and their witnesses, given;
    the flats J, K and L, which the field fixes, derived; and, derived on
    first read, the beta and gamma points with their witnesses, which the
    graph export never reads, and the quadric H, which only the claims on
    the reguli and condition iv read.  `witness` is the given map completed
    by the points' witnesses; `witness_of` builds the points only for a
    point.  An assigned g_beta or g_gamma stands in for the built one."""

    def __init__(
        self,
        field: Field,
        g_x: tuple,
        g_y: tuple,
        g_alpha: tuple,
        witness: Dict[Subspace, TernionPair],
        budget: Optional[int] = None,
    ):
        self.field = field
        self.g_x = g_x
        self.g_y = g_y
        self.g_alpha = g_alpha
        self._given_witness = witness  # at least the X, Y and alpha members
        self.j_solid, self.k_solid, self.l_line = distinguished_flats(field)
        self.budget = budget  # guards the traces, the graph and the scans

    @cached_property
    def _points(self) -> Tuple[Tuple[tuple, tuple], Dict[Subspace, TernionPair]]:
        """((beta points, gamma points), their witnesses), from the
        normal forms with a zero tail (`_zero_tail_normal_forms`)."""
        return _orbit_lists(
            _zero_tail_normal_forms(self.field), (SubmoduleType.BETA, SubmoduleType.GAMMA)
        )

    @cached_property
    def g_beta(self) -> tuple:
        return self._points[0][0]

    @cached_property
    def g_gamma(self) -> tuple:
        return self._points[0][1]

    @cached_property
    def witness(self) -> Dict[Subspace, TernionPair]:
        return {**self._given_witness, **self._points[1]}

    def witness_of(self, s: Subspace) -> TernionPair:
        """The witness of the member s; only a point reads the points."""
        return self.witness[s] if s.dim == 1 else self._given_witness[s]

    def members(self, t: SubmoduleType) -> tuple:
        return getattr(self, _MEMBER_LISTS[t])

    @cached_property
    def quadric(self) -> QuadricGeometry:
        return quadric(self.field)

    @cached_property
    def index(self) -> Dict[Subspace, Tuple[SubmoduleType, int]]:
        return {s: (t, i) for t in TYPE_ORDER for i, s in enumerate(self.members(t))}

    @cached_property
    def traces(self) -> Dict[Subspace, Tuple[Subspace, Subspace]]:
        """Per plane of `planes`, (J-line, alpha line): its two lines that
        are submodules, span(e11 w, e12 w) and span(e12 w, e22 w) for its
        witness w.  The plane is T w, free of rank one, and T has exactly two
        2-dim left ideals, {(x, y, 0)} and T e22, so it has no other such
        line.  The J-line is M ^ J (L for a Y plane); the alpha line is M ^ K
        for an X plane and P for a Y plane P + L.

        The rows e12 w = (0, a22, 0, 0, b22, 0) and e22 w = (0, 0, a22, 0,
        0, b22) are already the reduced basis of the alpha line: the witness
        is a normal form, whose tail (a22, b22) has a leading 1, so the rows
        are (0, 1, 0, 0, b22, 0) and (0, 0, 1, 0, 0, b22) when a22 = 1, and
        e5 and e6 when a22 = 0.  So only the J-line is reduced.  The budget
        guards the 2V traces."""
        check_budget(2 * len(self.planes), f"plane traces (q={self.field.q})", self.budget)
        rref = self.field.kernel.rref
        out = {}
        for m in self.planes:
            rows = _span_rows(self.witness_of(m))
            out[m] = (
                Subspace(self.field, 6, rref(rows[:2])),
                Subspace(self.field, 6, rows[1:]),
            )
        return out

    @cached_property
    def standard_triple_skew_x(self) -> bool:
        """Whether the standard triple is three pairwise skew X planes of
        the catalog, read off `g_x` alone: no beta or gamma point is built.
        The transversal scans anchor on the triple and `thm1:negative`
        rests on it; all of them read this one verdict."""
        planes = standard_triple(self.field)
        return set(self.g_x).issuperset(planes) and all(
            meet_dim(a, b) == 0 for a, b in combinations(planes, 2)
        )

    @cached_property
    def x_by_j_line(self) -> Dict[Subspace, Subspace]:
        """Per J-line of an X plane M, M: the join of M ^ J and the alpha
        line through (M ^ J) ^ L."""
        return {self.traces[m][0]: m for m in self.g_x}

    def type_of(self, s: Subspace) -> Optional[SubmoduleType]:
        hit = self.index.get(s)
        return hit[0] if hit else None

    @property
    def planes(self) -> tuple:
        """The adjacency graph vertex set: X planes then Y planes."""
        return self.g_x + self.g_y

    def counts(self) -> Dict[str, int]:
        return {t.value: len(self.members(t)) for t in TYPE_ORDER}


_MEMBER_LISTS = {
    SubmoduleType.X: "g_x",
    SubmoduleType.Y: "g_y",
    SubmoduleType.ALPHA: "g_alpha",
    SubmoduleType.BETA: "g_beta",
    SubmoduleType.GAMMA: "g_gamma",
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


def _zero_tail_normal_forms(field: Field) -> Iterator[TernionPair]:
    """The unit-orbit normal forms (see `normal_form_count`) with a zero
    tail: a normalised head.  classify reads them as beta and gamma."""
    for a11, a12, b11, b12 in projective_vectors(field, 4):
        yield _pair(field, (a11, a12, 0, b11, b12, 0))


def _nonzero_tail_normal_forms(field: Field) -> Iterator[TernionPair]:
    """The unit-orbit normal forms (see `normal_form_count`) with a
    normalised tail: a zero or normalised head.  classify reads them as X,
    Y and alpha."""
    heads = [(0, 0, 0)] + list(projective_vectors(field, 3))
    for a22, b22 in projective_vectors(field, 2):
        for x, y, z in heads:
            if a22:  # (a11, 0, b11, b12)
                vec = (x, 0, a22, y, z, b22)
            else:  # (a11, a12, b11, 0)
                vec = (x, y, a22, z, 0, b22)
            yield _pair(field, vec)


def normal_form_count(q: int) -> int:
    """How many unit-orbit normal forms there are: one generator pair per
    orbit of the left unit group on nonzero pairs.

    A unit u = (ux, uy, uz) sends (a11, a12, a22, b11, b12, b22) to
    (ux a11, ux a12 + uy a22, uz a22, ux b11, ux b12 + uy b22, uz b22).  So
    uz scales the tail (a22, b22) to a first nonzero entry 1; uy then clears
    a12 if a22 != 0, else b12; ux scales the head (a11, a12, b11, b12) to a
    first nonzero entry 1.  The forms are the zero tail with a normalised
    head (`_zero_tail_normal_forms`), and each normalised tail with a zero
    or normalised head (`_nonzero_tail_normal_forms`): (q^3+q^2+q+1) +
    (q+1)(q^2+q+2) pairs.  Each step puts the least code the orbit allows
    at the first coordinate it moves, so a normal form is the first pair of
    its orbit in enumerate_pairs order.

    The pairs that generate one submodule form exactly one unit orbit.  For
    a free T v, T w = T v gives w = s v and v = t w, so t s v = v forces
    t s = 1 and s is a unit.  For alpha, beta and gamma, writing out s v
    shows that every generator of T v is a unit multiple of v.  Hence the
    witness a catalog keeps is the first pair of the q^6 walk in
    enumerate_pairs order that generates the same submodule."""
    return (q**3 + q**2 + q + 1) + (q + 1) * (q**2 + q + 2)


def _orbit_lists(forms, types) -> Tuple[Tuple[tuple, ...], Dict[Subspace, TernionPair]]:
    """Classify normal forms whose types are among `types`: per type, its
    spans sorted by Subspace.key, and the witness of each span."""
    buckets: Dict[SubmoduleType, Dict[Subspace, TernionPair]] = {t: {} for t in types}
    for v in forms:
        span = cyclic_span(v)
        bucket = buckets[classify(v)]
        if span in bucket:
            raise AssertionError("two unit orbits generate one submodule")
        bucket[span] = v
    witness: Dict[Subspace, TernionPair] = {}
    for d in buckets.values():
        witness.update(d)
    return tuple(tuple(sorted(d, key=Subspace.key)) for d in buckets.values()), witness


def build_catalog(field: Field, budget: Optional[int] = None) -> Catalog:
    """Classify one generator pair per left-unit orbit and keep its span
    with the pair as witness; `validate_catalog` checks every orbit list
    against its independent geometric description.  Only the forms with a
    nonzero tail are classified here; the catalog classifies the others,
    its beta and gamma points, when they are first read.  The budget guards
    all the normal forms here and is kept on the catalog for its traces,
    graph and scans."""
    q = field.q
    check_budget(normal_form_count(q), f"unit-orbit normal forms (q={q})", budget)
    (g_x, g_y, g_alpha), witness = _orbit_lists(
        _nonzero_tail_normal_forms(field),
        (SubmoduleType.X, SubmoduleType.Y, SubmoduleType.ALPHA),
    )
    return Catalog(field, g_x, g_y, g_alpha, witness, budget)


def scan_planes_for_x(cat: Catalog) -> FrozenSet[Subspace]:
    """The X planes found geometrically: planes whose J-trace is a line
    other than L and whose K-trace is an alpha regulus line.

    An alpha line P lies in K and meets J in a point p of L.  A plane M
    through P and outside K has M ^ K = P; if M ^ J is a line l, then l
    passes through p, M = P + l, and l is not L, as P + L lies in K.  The
    lines of J through p are the p + y, y over the q^2+q+1 points of a
    complement of p in J, so the P + y are an exhaustive list of
    (q+1)(q^2+q+1) candidates, guarded by the catalog's budget.  One y lies
    on L, and its plane P + L lies in K; the scan keeps the candidates
    outside K.  Such an M does not contain L, which would make
    M ^ K = P + L a plane.  As y lies in J off P, M + J = P + J and
    M ^ J = (P ^ J) + y, a line for every candidate exactly when
    dim P - dim(P ^ J) = 1 (for an alpha line, when P meets J in a point),
    so this is tested once per P, and a P that fails it gives no plane."""
    field = cat.field
    q = field.q
    rref = field.kernel.rref
    j = cat.j_solid
    check_budget(len(cat.g_alpha) * (q * q + q + 1), f"X-scan candidates (q={q})", cat.budget)
    found = set()
    for p in cat.g_alpha:
        on_j = meet_j(p)
        if p.dim - len(on_j) != 1:
            continue
        complement = complement_in(Subspace(field, 6, embed_j(on_j)), j)
        for y in point_vectors(Subspace(field, 6, tuple(complement))):
            m = rref(p.basis + (y,))
            if any(r[0] or r[3] for r in m):  # outside K = {x1 = x4 = 0}
                found.add(Subspace(field, 6, m))
    return frozenset(found)


def validate_catalog(cat: Catalog) -> Dict[str, bool]:
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
    report["x_is_scan"] = set(cat.g_x) == scan_planes_for_x(cat)
    return report
