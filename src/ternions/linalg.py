"""Exact subspace algebra over GF(q): canonical subspaces of F^n,
lattice operations, deterministic enumeration, and (semi)linear actions.

A subspace is identified with its reduced row echelon basis, which is the
unique canonical form of a row space, so equality, hashing and ordering
are structural.  Enumeration walks pivot-column patterns and free entries
in a fixed order; the count is the Gaussian binomial coefficient, which
doubles as the memory guard for the big Grassmannian scans.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from typing import Iterator, List, Optional, Sequence

from .gf import Field, FieldAutomorphism, automorphisms, check_codes

DEFAULT_BUDGET = 150_000


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured budget."""


def check_budget(count: int, what: str, budget: Optional[int] = None) -> None:
    """Raise BudgetError when enumerating `count` objects, described by
    `what`, would exceed the budget (DEFAULT_BUDGET when none is given)."""
    limit = DEFAULT_BUDGET if budget is None else budget
    if count > limit:
        raise BudgetError(f"enumerating {count} {what} exceeds the budget {limit}")


class Subspace:
    """A subspace of F^n, held by its canonical (RREF) basis rows."""

    __slots__ = ("field", "n", "basis", "_hash")

    def __init__(self, field: Field, n: int, basis: tuple):
        self.field = field
        self.n = n
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def key(self):
        """Deterministic sort key."""
        return (self.n, len(self.basis), self.basis)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.basis == other.basis and self.n == other.n and self.field == other.field

    def __hash__(self):
        # The field is compared but kept out of the hash.  The hash is kept
        # after its first use: the basis is a tuple of tuples, rehashed on
        # every lookup otherwise.  Lazy, because most subspaces the scans
        # build are never hashed.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.n, self.basis))
            return self._hash

    def __repr__(self):
        return f"Sub({self.n},{self.dim}){list(self.basis)}"


def canonicalize(field: Field, n: int, rows: Sequence[Sequence[int]]) -> Subspace:
    """Subspace spanned by arbitrary generating rows of element codes."""
    for r in rows:
        if len(r) != n:
            raise ValueError(f"row length {len(r)} != ambient dimension {n}")
        check_codes(r, field.q, "row entry")
    return Subspace(field, n, field.kernel.rref(tuple(tuple(r) for r in rows)))


def zero_subspace(field: Field, n: int) -> Subspace:
    return Subspace(field, n, ())


def full_space(field: Field, n: int) -> Subspace:
    rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return Subspace(field, n, rows)


def coordinate_subspace(field: Field, n: int, coords: Sequence[int]) -> Subspace:
    """Span of the given standard basis vectors."""
    rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in sorted(coords))
    return Subspace(field, n, rows)


def _same_space(u: Subspace, v: Subspace):
    if u.field != v.field or u.n != v.n:
        raise ValueError("subspaces of different ambient spaces")


def meet(u: Subspace, v: Subspace) -> Subspace:
    _same_space(u, v)
    return Subspace(u.field, u.n, u.field.kernel.meet(u.basis, v.basis, u.n))


def join(u: Subspace, v: Subspace) -> Subspace:
    _same_space(u, v)
    return Subspace(u.field, u.n, u.field.kernel.rref(u.basis + v.basis))


def contains(u: Subspace, v: Subspace) -> bool:
    """Whether v <= u."""
    _same_space(u, v)
    if v.dim > u.dim:
        return False
    return u.field.kernel.stack_rank(u.basis, v.basis) == u.dim


def meet_dim(u: Subspace, v: Subspace) -> int:
    """dim(u ^ v) without building the intersection."""
    _same_space(u, v)
    return u.dim + v.dim - u.field.kernel.stack_rank(u.basis, v.basis)


def complement_in(u: Subspace, w: Subspace) -> List[tuple]:
    """Rows extending a basis of u to one of w (u <= w); deterministic."""
    _same_space(u, w)
    kern = u.field.kernel
    out = []
    cur = list(u.basis)
    r = len(cur)
    for row in w.basis:
        if kern.stack_rank(tuple(cur), (row,)) > r:
            cur.append(row)
            out.append(row)
            r += 1
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enumerate_subspaces(
    field: Field, n: int, k: int, budget: Optional[int] = None
) -> Iterator[Subspace]:
    """All k-subspaces of F^n in a fixed order (pivot patterns, then free
    entries).  Raises BudgetError when the count exceeds the budget."""
    q = field.q
    check_budget(gaussian_binomial(n, k, q), f"subspaces (n={n}, k={k}, q={q})", budget)
    if k == 0:
        yield zero_subspace(field, n)
        return
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free_pos = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        base = []
        for i in range(k):
            row = [0] * n
            row[pivots[i]] = 1
            base.append(row)
        for assignment in product(range(q), repeat=len(free_pos)):
            rows = [list(r) for r in base]
            for (i, j), v in zip(free_pos, assignment):
                rows[i][j] = v
            yield Subspace(field, n, tuple(tuple(r) for r in rows))


def projective_vectors(field: Field, n: int) -> Iterator[tuple]:
    """One normalized vector per point of PG(n-1, q): the leading 1 moves
    right, and the entries after it run through all codes."""
    for lead in range(n):
        for tail in product(range(field.q), repeat=n - 1 - lead):
            yield (0,) * lead + (1,) + tail


def point_vectors(u: Subspace) -> List[tuple]:
    """The normalized vectors of the points of u, in a fixed order: the
    normalized coefficient rows, lifted through u's basis by one product.
    A point needs no product: its reduced basis row is already normalized."""
    if u.dim == 1:
        return [u.basis[0]]
    field = u.field
    coeffs = tuple(projective_vectors(field, u.dim))
    return [field.normalize(v) for v in field.kernel.matmul(coeffs, u.basis)]


def projective_points(u: Subspace) -> List[Subspace]:
    """The 1-subspaces of u, in the order of point_vectors."""
    return [Subspace(u.field, u.n, (v,)) for v in point_vectors(u)]


def pencil(v: Subspace, w: Subspace, k: int) -> List[Subspace]:
    """The interval [v, w]_k: all k-subspaces between v and w.

    The proper pencil case is dim v = k-1, dim w = k+1; the general
    interval is allowed whenever v <= w.  Each member is v plus the lift of
    a (k - dim v)-subspace of the complement coordinates: the rows of all
    of them are lifted by one product, and each member is one reduction."""
    _same_space(v, w)
    if not contains(w, v):
        raise ValueError("pencil requires v <= w")
    if not v.dim <= k <= w.dim:
        return []
    field = v.field
    kern = field.kernel
    comp = tuple(complement_in(v, w))
    kk = k - v.dim
    subs = list(enumerate_subspaces(field, len(comp), kk))
    lifted = kern.matmul(tuple(chain.from_iterable(s.basis for s in subs)), comp)
    return [
        Subspace(field, v.n, kern.rref(v.basis + lifted[i * kk : (i + 1) * kk]))
        for i in range(len(subs))
    ]


# -- semilinear actions -------------------------------------------------------


class SemilinearMap:
    """v -> sigma(v) . M on row vectors of F^n; collineation when invertible."""

    __slots__ = ("field", "n", "matrix", "sigma")

    def __init__(self, field: Field, n: int, matrix: tuple, sigma: FieldAutomorphism):
        self.field = field
        self.n = n
        self.matrix = matrix
        self.sigma = sigma
        if len(self.matrix) != self.n or any(len(r) != self.n for r in self.matrix):
            raise ValueError("matrix must be n x n")
        check_codes(chain.from_iterable(self.matrix), self.field.q, "matrix entry")
        if self.sigma.field != self.field:
            raise ValueError("automorphism field mismatch")
        if self.field.kernel.rank(self.matrix) != self.n:
            raise ValueError("singular matrix does not define a collineation")

    def apply_vector(self, vec: Sequence[int]) -> tuple:
        return self.field.kernel.vec_apply(self.sigma.apply((vec,))[0], self.matrix)

    def apply(self, u: Subspace) -> Subspace:
        if u.field != self.field or u.n != self.n:
            raise ValueError("subspace of a different ambient space")
        rows = self.field.kernel.apply_rows(self.sigma.apply(u.basis), self.matrix)
        return Subspace(self.field, self.n, rows)


def identity_map(field: Field, n: int) -> SemilinearMap:
    return SemilinearMap(field, n, full_space(field, n).basis, automorphisms(field)[0])
