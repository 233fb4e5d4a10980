"""The ring of upper-triangular 2x2 matrices over GF(q) and its 2x2
matrix ring.

An element [[x, y], [0, z]] is stored as the coordinate triple (x, y, z);
the structural zero is never stored.  Multiplication follows the matrix
product: (x,y,z)*(x',y',z') = (xx', xy'+yz', zz').  A triple is a unit
exactly when x != 0 and z != 0, and the center consists of the scalar
matrices (x, 0, x).

2x2 matrices over this ring act on generator pairs from the right; their
invertibility is decided by the two 2x2 determinant factors of the induced
4x4 matrix over the base field (corner entries and diagonal entries
separately).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Tuple

from .gf import Field


@dataclass(frozen=True)
class Ternion:
    """One upper-triangular 2x2 matrix, stored as its coordinate triple."""

    field: Field
    x: int
    y: int
    z: int

    def _check(self, other):
        if not isinstance(other, Ternion):
            return None
        if self.field != other.field:
            raise ValueError("ternions over different fields")
        return other

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Ternion(f, f.add(self.x, o.x), f.add(self.y, o.y), f.add(self.z, o.z))

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Ternion(f, f.sub(self.x, o.x), f.sub(self.y, o.y), f.sub(self.z, o.z))

    def __neg__(self):
        f = self.field
        return Ternion(f, f.neg(self.x), f.neg(self.y), f.neg(self.z))

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Ternion(
            f,
            f.mul(self.x, o.x),
            f.add(f.mul(self.x, o.y), f.mul(self.y, o.z)),
            f.mul(self.z, o.z),
        )

    @property
    def is_unit(self) -> bool:
        return self.x != 0 and self.z != 0

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0

    def triple(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __repr__(self):
        return f"T{(self.x, self.y, self.z)}"


def t_zero(field: Field) -> Ternion:
    return Ternion(field, 0, 0, 0)


def t_one(field: Field) -> Ternion:
    return Ternion(field, 1, 0, 1)


def e11(field: Field) -> Ternion:
    return Ternion(field, 1, 0, 0)


def e12(field: Field) -> Ternion:
    return Ternion(field, 0, 1, 0)


def e22(field: Field) -> Ternion:
    return Ternion(field, 0, 0, 1)


def enumerate_ternions(field: Field) -> Iterator[Ternion]:
    """All q^3 elements in lexicographic (x, y, z) code order."""
    for x, y, z in product(field.codes(), repeat=3):
        yield Ternion(field, x, y, z)


def random_ternion(field: Field, rng: random.Random) -> Ternion:
    q = field.q
    return Ternion(field, rng.randrange(q), rng.randrange(q), rng.randrange(q))


def iota(t: Ternion) -> Ternion:
    """The coordinate-swap antiautomorphism (x, y, z) -> (z, y, x)."""
    return Ternion(t.field, t.z, t.y, t.x)


# -- pairs and 2x2 matrices ------------------------------------------------------

TernionPair = Tuple[Ternion, Ternion]


def scale_left(t: Ternion, v: TernionPair) -> TernionPair:
    """Left scalar action t.(a, b) = (t a, t b) of the span builder."""
    return (t * v[0], t * v[1])


def enumerate_pairs(field: Field) -> Iterator[TernionPair]:
    """All q^6 generator pairs, lexicographic in the six coordinates."""
    for ax, ay, az, bx, by, bz in product(field.codes(), repeat=6):
        yield (Ternion(field, ax, ay, az), Ternion(field, bx, by, bz))


@dataclass(frozen=True)
class TernionMatrix:
    """A 2x2 matrix [[a, b], [c, d]] over the ternion ring."""

    a: Ternion
    b: Ternion
    c: Ternion
    d: Ternion

    def __post_init__(self):
        f = self.a.field
        if not (self.b.field == f and self.c.field == f and self.d.field == f):
            raise ValueError("matrix entries over different fields")

    @property
    def field(self) -> Field:
        return self.a.field

    def __mul__(self, other):
        if not isinstance(other, TernionMatrix):
            return NotImplemented
        a, b, c, d = self.a, self.b, self.c, self.d
        return TernionMatrix(
            a * other.a + b * other.c,
            a * other.b + b * other.d,
            c * other.a + d * other.c,
            c * other.b + d * other.d,
        )

    def det_factors(self) -> Tuple[int, int]:
        """The two determinant factors of the induced 4x4 matrix:
        (a22 d22 - b22 c22, a11 d11 - b11 c11)."""
        f = self.field
        lower = f.sub(f.mul(self.a.z, self.d.z), f.mul(self.b.z, self.c.z))
        upper = f.sub(f.mul(self.a.x, self.d.x), f.mul(self.b.x, self.c.x))
        return (lower, upper)

    @property
    def is_invertible(self) -> bool:
        lower, upper = self.det_factors()
        return lower != 0 and upper != 0

    def __repr__(self):
        return f"TM[{self.a!r},{self.b!r};{self.c!r},{self.d!r}]"


def matrix_identity(field: Field) -> TernionMatrix:
    return TernionMatrix(t_one(field), t_zero(field), t_zero(field), t_one(field))


def act_right(v: TernionPair, s: TernionMatrix) -> TernionPair:
    """(a, b) . [[a',b'],[c',d']] = (a a' + b c', a b' + b d')."""
    a, b = v
    return (a * s.a + b * s.c, a * s.b + b * s.d)


def random_invertible(field: Field, rng: random.Random) -> TernionMatrix:
    """Uniform invertible matrix by rejection on the two determinant factors."""
    q = field.q
    while True:
        codes = [rng.randrange(q) for _ in range(12)]
        m = TernionMatrix(
            Ternion(field, *codes[0:3]),
            Ternion(field, *codes[3:6]),
            Ternion(field, *codes[6:9]),
            Ternion(field, *codes[9:12]),
        )
        if m.is_invertible:
            return m
