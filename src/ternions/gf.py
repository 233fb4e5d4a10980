"""Exact arithmetic in small finite fields GF(p^k), q = p^k <= 27.

Every element is encoded as an integer code in [0, q).  For prime fields
the code is the residue itself; for extensions the base-p digits of the
code, least significant first, are the coefficients of 1, x, x^2, ... in
the chosen modulus basis.  Hence code 0 is zero and code 1 is one in every
field, and enumeration by ascending code is the fixed element order
(lexicographic on the coefficient tuple written highest degree first).

All operations are table lookups after construction, which keeps the rest
of the package representation-free: matrices over the field are plain
tuples of codes fed to the kernel in ``_pycore``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from ._pycore import Kernel

MAX_ORDER = 27

# Built-in irreducible moduli, coefficients listed low degree first.
DEFAULT_MODULI = {
    4: (1, 1, 1),        # x^2 + x + 1
    8: (1, 1, 0, 1),     # x^3 + x + 1
    9: (2, 2, 1),        # x^2 + 2x + 2
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1
    25: (2, 4, 1),       # x^2 + 4x + 2
    27: (1, 2, 0, 1),    # x^3 + 2x + 1
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_codes(values, q: int, what: str) -> None:
    """Raise ValueError naming the first value that is not an element code
    of GF(q), an int in [0, q).  Codes from outside the package pass this
    once, at the public boundaries (`make_field`, `linalg.canonicalize`,
    `linalg.SemilinearMap`, `ternion.Ternion`, `model.phi_inverse`); the
    kernel checks none."""
    for v in values:
        if not (isinstance(v, int) and 0 <= v < q):
            raise ValueError(
                f"{what} {v!r} is not among the element codes 0..{q - 1} of GF({q})"
            )


# -- polynomial helpers over GF(p), coefficient lists low degree first ----


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, both low-first lists."""
    r = list(a)
    _poly_trim(r)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        shift = len(r) - 1 - dm
        for i, cm in enumerate(m):
            r[shift + i] = (r[shift + i] - lead * cm) % p
        _poly_trim(r)
    return r


class Field:
    """GF(p^k) with table-driven arithmetic on integer element codes."""

    def __init__(self, p: int, k: int = 1, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**k
        if q > MAX_ORDER:
            raise ValueError(f"order {q} exceeds the supported maximum {MAX_ORDER}")
        if k == 1:
            if modulus is not None:
                raise ValueError("a modulus is only meaningful for k > 1")
            mod_t = None
        else:
            if modulus is None:
                if q not in DEFAULT_MODULI:
                    raise ValueError(f"no built-in modulus for q={q}; pass one")
                modulus = DEFAULT_MODULI[q]
            mod_t = tuple(modulus)
            if len(mod_t) != k + 1:
                raise ValueError(f"modulus must have degree {k}")
            if mod_t[-1] != 1:
                raise ValueError("modulus must be monic")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = mod_t
        self._build_tables()
        self.kernel = Kernel(q, self._add_t, self._mul_t, self._neg_t, self._inv_t)

    # -- construction ------------------------------------------------------

    def _code_coeffs(self, n: int) -> list:
        p = self.p
        return [(n // p**i) % p for i in range(self.k)]

    def _coeffs_code(self, cs) -> int:
        return sum((c % self.p) * self.p**i for i, c in enumerate(cs))

    def _build_tables(self):
        """The arithmetic tables.  The inverse search is also the
        irreducibility test: modulo m = f g with f, g of positive degree, f
        is a nonzero zero divisor and has no inverse, while modulo an
        irreducible m every nonzero element has one."""
        p, k, q = self.p, self.k, self.q
        if k == 1:
            add = [(a + b) % p for a in range(q) for b in range(q)]
            mul = [(a * b) % p for a in range(q) for b in range(q)]
            neg = [(-a) % p for a in range(q)]
        else:
            mod = list(self.modulus)
            polys = [self._code_coeffs(n) for n in range(q)]
            add = [0] * (q * q)
            mul = [0] * (q * q)
            for a in range(q):
                pa = polys[a]
                for b in range(q):
                    pb = polys[b]
                    s = [(x + y) % p for x, y in zip(pa, pb)]
                    add[a * q + b] = self._coeffs_code(s)
                    pr = _poly_mod(_poly_mul(_poly_trim(list(pa)), _poly_trim(list(pb)), p), mod, p)
                    mul[a * q + b] = self._coeffs_code(pr + [0] * (k - len(pr)))
            neg = [self._coeffs_code([(-c) % p for c in polys[a]]) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a * q + b] == 1:
                    inv[a] = b
                    break
            else:
                raise ValueError(f"modulus {self.modulus} is reducible over GF({p})")
        self._add_t = tuple(add)
        self._mul_t = tuple(mul)
        self._neg_t = tuple(neg)
        self._inv_t = tuple(inv)

    # -- identity ------------------------------------------------------------

    @property
    def key(self):
        return (self.p, self.k, self.modulus)

    def __eq__(self, other):
        return self is other or isinstance(other, Field) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GF({self.q})"

    # -- code-level arithmetic -----------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add_t[a * self.q + b]

    def sub(self, a: int, b: int) -> int:
        return self._add_t[a * self.q + self._neg_t[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul_t[a * self.q + b]

    def neg(self, a: int) -> int:
        return self._neg_t[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv_t[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def codes(self) -> range:
        return range(self.q)

    def normalize(self, vec) -> tuple:
        """A nonzero vector scaled so that its first nonzero entry is 1: the
        representative of its projective point, as a one-row rref gives it."""
        for lead in vec:
            if lead:
                break
        else:
            raise ValueError("the zero vector is not a point")
        if lead == 1:
            return tuple(vec)
        f = self._inv_t[lead] * self.q
        mul = self._mul_t
        return tuple([mul[f + c] for c in vec])


def primitive_element(field: Field) -> int:
    """The least code generating the multiplicative group."""
    q = field.q
    for g in range(1, q):
        x, order = g, 1
        while x != 1:
            x, order = field.mul(x, g), order + 1
        if order == q - 1:
            return g
    raise AssertionError("no primitive element")


class FieldAutomorphism:
    """A power of the Frobenius map x -> x^p, stored as a code permutation."""

    __slots__ = ("field", "power", "table")

    def __init__(self, field: Field, power: int, table: tuple):
        self.field = field
        self.power = power
        self.table = table

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.power, self.table) == (other.field, other.power, other.table)

    def __hash__(self):
        return hash((self.field, self.power, self.table))

    @property
    def is_identity(self) -> bool:
        return self.power == 0

    def apply(self, rows):
        """The automorphism entrywise on rows of codes, as a tuple of tuples;
        the identity returns `rows` itself.  Every semilinear map uses this."""
        if self.is_identity:
            return rows
        t = self.table
        return tuple([tuple([t[c] for c in r]) for r in rows])

    def __repr__(self):
        return f"Frob^{self.power}:GF({self.field.q})"


@lru_cache(maxsize=None)
def _automorphism_tuple(field: Field):
    q, p, k = field.q, field.p, field.k
    out = []
    table = tuple(range(q))
    for e in range(k):
        out.append(FieldAutomorphism(field, e, table))
        table = tuple(field.pow(c, p) for c in table)
    return tuple(out)


def automorphisms(field: Field) -> list:
    """All field automorphisms, identity first, then ascending Frobenius powers."""
    return list(_automorphism_tuple(field))


@lru_cache(maxsize=None)
def _field_cached(p, k, modulus):
    return Field(p, k, modulus)


def make_field(p: int, k: int = 1, modulus: Optional[Sequence[int]] = None) -> Field:
    """Construct (or fetch the cached) GF(p^k); the modulus coefficients,
    constant term first, must be element codes of GF(p)."""
    if modulus is not None:
        modulus = tuple(modulus)
        check_codes(modulus, p, "modulus coefficient")
    return _field_cached(p, k, modulus)


def field_of_order(q: int, modulus: Optional[Sequence[int]] = None) -> Field:
    """Resolve q = p^k and construct the field."""
    if q < 2:
        raise ValueError("field order must be at least 2")
    for p in range(2, q + 1):
        if is_prime(p):
            k, m = 0, 1
            while m < q:
                m *= p
                k += 1
            if m == q:
                return make_field(p, k, modulus)
            if q % p == 0:
                break
    raise ValueError(f"{q} is not a prime power")
