"""Exact subspace algebra over GF(q): canonical subspaces of F^n,
lattice operations, deterministic enumeration, and (semi)linear actions.

A subspace is identified with its reduced row echelon basis, which is the
unique canonical form of a row space, so equality, hashing and ordering
are structural.  Enumeration walks pivot-column patterns and free entries
in a fixed order; the count is the Gaussian binomial coefficient, which
doubles as the memory guard for the big Grassmannian scans.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field
from itertools import combinations, product
from typing import Iterator, List, Optional, Sequence

from .gf import Field, FieldAutomorphism, automorphisms

DEFAULT_BUDGET = 150_000
BUDGET_ENV = "TERNION_BUDGET"


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured budget."""


def enumeration_budget(override: Optional[int] = None) -> int:
    """Effective budget: explicit override, else the environment, else default."""
    if override is not None:
        return override
    env = os.environ.get(BUDGET_ENV)
    if not env:
        return DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = None
    if budget is None or budget < 1:
        raise ValueError(f"{BUDGET_ENV} must be an integer >= 1, got {env!r}")
    return budget


def check_budget(count: int, what: str, budget: Optional[int] = None) -> None:
    """Raise BudgetError when enumerating `count` objects, described by
    `what`, would exceed the effective budget."""
    limit = enumeration_budget(budget)
    if count > limit:
        raise BudgetError(
            f"enumerating {count} {what} exceeds the budget {limit}; "
            f"raise {BUDGET_ENV} or pass a larger budget"
        )


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^n, held by its canonical (RREF) basis rows."""

    field: Field = dc_field(hash=False)  # compared, but kept out of the hash
    n: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def key(self):
        """Deterministic sort key."""
        return (self.n, len(self.basis), self.basis)

    def __repr__(self):
        return f"Sub({self.n},{self.dim}){list(self.basis)}"


def canonicalize(field: Field, n: int, rows: Sequence[Sequence[int]]) -> Subspace:
    """Subspace spanned by arbitrary generating rows."""
    q = field.q
    for r in rows:
        if len(r) != n:
            raise ValueError(f"row length {len(r)} != ambient dimension {n}")
        for v in r:
            if not 0 <= v < q:
                raise ValueError(f"code {v} out of range for {field!r}")
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
    """The normalized vectors of the points of u, in a fixed order
    (normalized coefficient rows)."""
    field = u.field
    vec_apply = field.kernel.vec_apply
    return [
        field.normalize(vec_apply(coeff, u.basis))
        for coeff in projective_vectors(field, u.dim)
    ]


def projective_points(u: Subspace) -> List[Subspace]:
    """The 1-subspaces of u, in the order of point_vectors."""
    return [Subspace(u.field, u.n, (v,)) for v in point_vectors(u)]


def subspaces_within(u: Subspace, k: int, budget: Optional[int] = None) -> List[Subspace]:
    """All k-subspaces of u, mapped from coordinates w.r.t. its basis."""
    field, n = u.field, u.n
    kern = field.kernel
    out = []
    for s in enumerate_subspaces(field, u.dim, k, budget):
        rows = kern.matmul(s.basis, u.basis)
        out.append(Subspace(field, n, kern.rref(rows)))
    return out


def pencil(v: Subspace, w: Subspace, k: int, budget: Optional[int] = None) -> List[Subspace]:
    """The interval [v, w]_k: all k-subspaces between v and w.

    The proper pencil case is dim v = k-1, dim w = k+1; the general
    interval is allowed whenever v <= w."""
    _same_space(v, w)
    if not contains(w, v):
        raise ValueError("pencil requires v <= w")
    if not v.dim <= k <= w.dim:
        return []
    field, n = v.field, v.n
    kern = field.kernel
    comp = complement_in(v, w)
    c = len(comp)
    kk = k - v.dim
    out = []
    for s in enumerate_subspaces(field, c, kk, budget):
        lifted = kern.matmul(s.basis, tuple(comp)) if s.basis else ()
        out.append(Subspace(field, n, kern.rref(v.basis + lifted)))
    return out


# -- semilinear actions -------------------------------------------------------


@dataclass(frozen=True)
class SemilinearMap:
    """v -> sigma(v) . M on row vectors of F^n; collineation when invertible."""

    field: Field
    n: int
    matrix: tuple
    sigma: FieldAutomorphism

    def __post_init__(self):
        if len(self.matrix) != self.n or any(len(r) != self.n for r in self.matrix):
            raise ValueError("matrix must be n x n")
        if self.sigma.field != self.field:
            raise ValueError("automorphism field mismatch")
        if self.field.kernel.rank(self.matrix) != self.n:
            raise ValueError("singular matrix does not define a collineation")

    def _sigma_table(self):
        return None if self.sigma.is_identity else self.sigma.table

    def apply_vector(self, vec: Sequence[int]) -> tuple:
        return self.field.kernel.vec_apply(tuple(vec), self.matrix, self._sigma_table())

    def apply(self, u: Subspace) -> Subspace:
        if u.field != self.field or u.n != self.n:
            raise ValueError("subspace of a different ambient space")
        rows = self.field.kernel.apply_rows(u.basis, self.matrix, self._sigma_table())
        return Subspace(self.field, self.n, rows)

    def compose(self, other: "SemilinearMap") -> "SemilinearMap":
        """self after other: v -> self(other(v))."""
        if self.field != other.field or self.n != other.n:
            raise ValueError("maps of different spaces")
        kern = self.field.kernel
        st = self._sigma_table()
        m1 = other.matrix
        if st is not None:
            m1 = tuple(tuple(st[v] for v in row) for row in m1)
        return SemilinearMap(
            self.field, self.n, kern.matmul(m1, self.matrix), self.sigma.compose(other.sigma)
        )

    def inverse(self) -> "SemilinearMap":
        kern = self.field.kernel
        minv = kern.matinv(self.matrix)
        assert minv is not None
        si = self.sigma.inverse()
        st = None if si.is_identity else si.table
        if st is not None:
            minv = tuple(tuple(st[v] for v in row) for row in minv)
        return SemilinearMap(self.field, self.n, minv, si)


def identity_map(field: Field, n: int) -> SemilinearMap:
    return SemilinearMap(field, n, full_space(field, n).basis, automorphisms(field)[0])


@dataclass(frozen=True)
class Correlation:
    """U -> {w : sigma(u) . M . w^T = 0 for all u in U}, an inclusion-reversing
    bijection of the subspace lattice when M is invertible."""

    field: Field
    n: int
    matrix: tuple
    sigma: FieldAutomorphism

    def __post_init__(self):
        if self.field.kernel.rank(self.matrix) != self.n:
            raise ValueError("singular matrix does not define a correlation")
        if self.sigma.field != self.field:
            raise ValueError("automorphism field mismatch")

    def apply(self, u: Subspace) -> Subspace:
        if u.field != self.field or u.n != self.n:
            raise ValueError("subspace of a different ambient space")
        kern = self.field.kernel
        st = None if self.sigma.is_identity else self.sigma.table
        rows = u.basis
        if st is not None:
            rows = tuple(tuple(st[v] for v in r) for r in rows)
        constraints = kern.matmul(rows, self.matrix)
        return Subspace(self.field, self.n, kern.nullspace(constraints, self.n))
