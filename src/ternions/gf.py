"""Exact arithmetic in small finite fields GF(p^k), q = p^k <= 27.

Every element is encoded as an integer code in [0, q) whose k base-p
digits, least significant first, are the coefficients of 1, x, x^2, ...
modulo the chosen monic modulus of degree k; for a prime field (k = 1) the
code is the residue itself.  Hence code 0 is zero and code 1 is one in
every field, code p is x when k > 1, and enumeration by ascending code is
the fixed element order (lexicographic on the coefficient tuple written
highest degree first).  One builder makes the tables of every field.

All operations are table lookups after construction, which keeps the rest
of the package representation-free: matrices over the field are plain
tuples of codes fed to the kernel in ``_pycore``.
"""

from __future__ import annotations

import operator
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
    of GF(q), an int in [0, q) (a bool is not one).  Codes from outside the
    package pass this at the public boundaries (`Field`, `make_field`,
    `linalg.canonicalize`, `linalg.SemilinearMap`, `ternion.Ternion`,
    `model.phi_inverse`); the kernel checks none, and neither do sums and
    products of ternions or the unit-orbit normal forms, whose codes come
    from the field's tables or from `linalg.projective_vectors`."""
    for v in values:
        if not (type(v) is int and 0 <= v < q):
            raise ValueError(
                f"{what} {v!r} is not among the element codes 0..{q - 1} of GF({q})"
            )


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
            check_codes(mod_t, p, "modulus coefficient")
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

    def _build_tables(self):
        """The arithmetic tables, built on one path for every p and k.

        A code is its k base-p digits, low degree first.  Addition and
        negation are digit-wise mod p.  The product a b is the sum over i of
        b_i (a x^i), where a x^(i+1) is a x^i with its digits shifted up and
        the carried top digit times the monic modulus subtracted.  With
        k = 1 there is no shift, and this is arithmetic mod p.

        The inverse search is also the irreducibility test: modulo m = f g
        with f, g of positive degree, f is a nonzero zero divisor and has no
        inverse, while modulo an irreducible m every nonzero element has
        one."""
        p, k, q, m = self.p, self.k, self.q, self.modulus
        weights = [p**i for i in range(k)]
        digits = [[n // w % p for w in weights] for n in range(q)]

        def code(ds):
            return sum([d % p * w for d, w in zip(ds, weights)])

        add = [code([x + y for x, y in zip(da, db)]) for da in digits for db in digits]
        neg = [code([-x for x in da]) for da in digits]
        mul = []
        for da in digits:
            shifts = [da]  # the digits of a x^i, i = 0 .. k-1
            for _ in range(1, k):
                s = shifts[-1]
                shifts.append([(y - s[-1] * c) % p for y, c in zip([0] + s[:-1], m)])
            cols = list(zip(*shifts))
            mul += [code([sum(map(operator.mul, db, col)) for col in cols]) for db in digits]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a * q + b] == 1:
                    inv[a] = b
                    break
            else:
                raise ValueError(f"modulus {m} is reducible over GF({p})")
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
    """The power-th power of the Frobenius map x -> x^p, stored as the code
    permutation c -> c^(p^power).  The Frobenius has order k, so the power
    is kept mod k."""

    __slots__ = ("field", "power", "table")

    def __init__(self, field: Field, power: int):
        self.field = field
        self.power = power % field.k
        e = field.p**self.power
        self.table = tuple([field.pow(c, e) for c in field.codes()])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.power) == (other.field, other.power)

    def __hash__(self):
        return hash((self.field, self.power))

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
def automorphisms(field: Field) -> tuple:
    """All field automorphisms, identity first, then ascending Frobenius powers."""
    return tuple(FieldAutomorphism(field, e) for e in range(field.k))


@lru_cache(maxsize=None)
def _field_cached(p, k, modulus):
    return Field(p, k, modulus)


def make_field(p: int, k: int = 1, modulus: Optional[Sequence[int]] = None) -> Field:
    """Construct (or fetch the cached) GF(p^k); the modulus coefficients,
    constant term first, must be element codes of GF(p).  They are checked
    before the cache lookup too, which takes 1.0 or True for 1."""
    if modulus is not None:
        modulus = tuple(modulus)
        check_codes(modulus, p, "modulus coefficient")
    return _field_cached(p, k, modulus)


def field_of_order(q: int, modulus: Optional[Sequence[int]] = None) -> Field:
    """Resolve q = p^k and construct the field."""
    if q < 2:
        raise ValueError("field order must be at least 2")
    if q > MAX_ORDER:
        raise ValueError(f"order {q} exceeds the supported maximum {MAX_ORDER}")
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
