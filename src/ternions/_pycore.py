"""The kernel: exact dense linear algebra over GF(q).

Matrices are tuples of equal-length rows whose entries are integer element
codes in [0, q).  All arithmetic is table driven: ``add`` and ``mul`` are
flat row-major tables of length q*q, ``neg`` and ``inv`` have length q.
Code 0 is the additive identity and code 1 the multiplicative identity.

One elimination runs underneath: Gauss-Jordan elimination, ``_eliminate``.
Outputs that name a row space are canonical: the reduced row echelon form
(RREF) with zero rows dropped, so equal spaces give equal tuples.
``rank`` and ``stack_rank`` return its count of pivots.

The kernel is linear algebra only: a semilinear map's field automorphism
is applied by ``gf.FieldAutomorphism.apply`` before ``vec_apply`` and
``apply_rows`` see its rows.

The kernel checks no input, not even its tables (``gf.Field`` builds
them): codes and row shapes from outside the package are checked once, at
the public boundaries that call ``gf.check_codes``.
"""


class Kernel:
    """Exact matrix operations over one finite field."""

    __slots__ = ("q", "add", "mul", "neg", "inv")

    def __init__(self, q, add, mul, neg, inv):
        self.q = q
        self.add = tuple(add)
        self.mul = tuple(mul)
        self.neg = tuple(neg)
        self.inv = tuple(inv)

    # -- elimination core ------------------------------------------------

    def _eliminate(self, m, ncols):
        """Reduce a list of row lists to RREF in place; return the rank."""
        q, add, mul, neg, inv = self.q, self.add, self.mul, self.neg, self.inv
        nrows = len(m)
        r = 0
        for c in range(ncols):
            pr = -1
            for i in range(r, nrows):
                if m[i][c]:
                    pr = i
                    break
            if pr < 0:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
            row = m[r]
            piv = row[c]
            if piv != 1:
                f = inv[piv]
                for j in range(c, ncols):
                    row[j] = mul[f * q + row[j]]
            for i in range(nrows):
                if i == r:
                    continue
                v = m[i][c]
                if v:
                    f = neg[v]
                    ri = m[i]
                    for j in range(c, ncols):
                        ri[j] = add[ri[j] * q + mul[f * q + row[j]]]
            r += 1
            if r == nrows:
                break
        return r

    # -- public operations -------------------------------------------------

    def rref(self, rows):
        """Canonical reduced row echelon form, zero rows dropped."""
        if not rows:
            return ()
        ncols = len(rows[0])
        m = [list(r) for r in rows]
        rank = self._eliminate(m, ncols)
        return tuple(tuple(m[i]) for i in range(rank))

    def rank(self, rows):
        if not rows:
            return 0
        m = [list(r) for r in rows]
        return self._eliminate(m, len(rows[0]))

    def stack_rank(self, rows_a, rows_b):
        """Rank of the two row sets stacked; the hot path of the scans."""
        return self.rank((*rows_a, *rows_b))

    def meet(self, rows_a, rows_b, ncols):
        """Canonical basis of the intersection of two row spaces.

        Zassenhaus: eliminate [[A|A],[B|0]]; rows whose left half vanished
        carry a basis of the intersection in their right half, already in
        reduced echelon form.
        """
        if not rows_a or not rows_b:
            return ()
        m = [list(r) + list(r) for r in rows_a]
        m += [list(r) + [0] * ncols for r in rows_b]
        rank = self._eliminate(m, 2 * ncols)
        out = []
        for i in range(rank):
            row = m[i]
            if any(row[:ncols]):
                continue
            out.append(tuple(row[ncols:]))
        return tuple(out)

    def matmul(self, rows_a, rows_b):
        """Product of two coded matrices (rows_a: m x k, rows_b: k x n)."""
        if not rows_a:
            return ()
        q, add, mul = self.q, self.add, self.mul
        k = len(rows_a[0])
        if k != len(rows_b):
            raise ValueError("inner dimensions differ")
        n = len(rows_b[0]) if rows_b else 0
        out = []
        for ra in rows_a:
            acc = [0] * n
            for t in range(k):
                v = ra[t]
                if v:
                    rb = rows_b[t]
                    for j in range(n):
                        w = rb[j]
                        if w:
                            acc[j] = add[acc[j] * q + mul[v * q + w]]
            out.append(tuple(acc))
        return tuple(out)

    def matinv(self, rows):
        """Inverse of a square coded matrix, or None when singular."""
        n = len(rows)
        if n == 0:
            return ()
        if len(rows[0]) != n:
            raise ValueError("matrix is not square")
        m = []
        for i, r in enumerate(rows):
            row = list(r) + [0] * n
            row[n + i] = 1
            m.append(row)
        self._eliminate(m, 2 * n)
        for i in range(n):
            if m[i][i] != 1:
                return None
        return tuple(tuple(m[i][n:]) for i in range(n))

    def nullspace(self, rows, ncols):
        """Canonical basis of {w : rows . w^T = 0} in F^ncols."""
        red = self.rref(rows)
        rank = len(red)
        pivots = []
        for row in red:
            for j, v in enumerate(row):
                if v:
                    pivots.append(j)
                    break
        pivot_set = set(pivots)
        neg = self.neg
        vecs = []
        for j in range(ncols):
            if j in pivot_set:
                continue
            vec = [0] * ncols
            vec[j] = 1
            for i in range(rank):
                vec[pivots[i]] = neg[red[i][j]]
            vecs.append(vec)
        if not vecs:
            return ()
        m = vecs
        r = self._eliminate(m, ncols)
        return tuple(tuple(m[i]) for i in range(r))

    def vec_apply(self, vec, rows_m):
        """Image of one row vector under right multiplication by M."""
        return self.matmul((vec,), rows_m)[0]

    def apply_rows(self, rows, rows_m):
        """Canonical image of a row space under right multiplication by M."""
        return self.rref(self.matmul(rows, rows_m))
