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
from itertools import product
from typing import Iterator, Tuple

from .gf import Field, check_codes, primitive_element


class Ternion:
    """One upper-triangular 2x2 matrix, stored as its coordinate triple."""

    __slots__ = ("field", "x", "y", "z")

    def __init__(self, field: Field, x: int, y: int, z: int):
        self.field = field
        self.x = x
        self.y = y
        self.z = z
        check_codes((x, y, z), field.q, "ternion entry")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.x == other.x and self.y == other.y and self.z == other.z
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.field, self.x, self.y, self.z))

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
        return _ternion(f, f.add(self.x, o.x), f.add(self.y, o.y), f.add(self.z, o.z))

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        f = self.field
        return _ternion(
            f,
            f.mul(self.x, o.x),
            f.add(f.mul(self.x, o.y), f.mul(self.y, o.z)),
            f.mul(self.z, o.z),
        )

    def triple(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __repr__(self):
        return f"T{(self.x, self.y, self.z)}"


def _ternion(field: Field, x: int, y: int, z: int) -> Ternion:
    """A Ternion whose codes the package made (read off the field's tables,
    or already checked), built without `check_codes`."""
    t = object.__new__(Ternion)
    t.field = field
    t.x = x
    t.y = y
    t.z = z
    return t


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
    """All q^3 elements in lexicographic (x, y, z) code order, unchecked."""
    for x, y, z in product(field.codes(), repeat=3):
        yield _ternion(field, x, y, z)


def unit_generators(field: Field) -> Tuple[Ternion, Ternion, Ternion]:
    """(g, 0, 1), (1, 0, g) and (1, 1, 1), g the primitive element, which
    generate the unit group: the first two give the diagonal units, and
    conjugating (1, 1, 1) by powers of (g, 0, 1) gives every (1, g^i, 1),
    whose products are all (1, y, 1), since the powers of g span GF(q)
    over GF(p).  `model.unit_invariance` checks this per field: their
    closure under products has (q-1)^2 q elements, the order of the unit
    group."""
    g = primitive_element(field)
    return (Ternion(field, g, 0, 1), Ternion(field, 1, 0, g), Ternion(field, 1, 1, 1))


def iota(t: Ternion) -> Ternion:
    """The coordinate-swap antiautomorphism (x, y, z) -> (z, y, x), unchecked."""
    return _ternion(t.field, t.z, t.y, t.x)


# -- pairs and 2x2 matrices ------------------------------------------------------

TernionPair = Tuple[Ternion, Ternion]


def scale_left(t: Ternion, v: TernionPair) -> TernionPair:
    """Left scalar action t.(a, b) = (t a, t b) of the span builder."""
    return (t * v[0], t * v[1])


def enumerate_pairs(field: Field) -> Iterator[TernionPair]:
    """All q^6 generator pairs, lexicographic in the six coordinates."""
    for ax, ay, az, bx, by, bz in product(field.codes(), repeat=6):
        yield (Ternion(field, ax, ay, az), Ternion(field, bx, by, bz))


class TernionMatrix:
    """A 2x2 matrix [[a, b], [c, d]] over the ternion ring."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Ternion, b: Ternion, c: Ternion, d: Ternion):
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        f = self.a.field
        if not (self.b.field == f and self.c.field == f and self.d.field == f):
            raise ValueError("matrix entries over different fields")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    @property
    def field(self) -> Field:
        return self.a.field

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


def act_right(v: TernionPair, s: TernionMatrix) -> TernionPair:
    """(a, b) . [[a',b'],[c',d']] = (a a' + b c', a b' + b d')."""
    a, b = v
    return (a * s.a + b * s.c, a * s.b + b * s.d)


def random_invertible(field: Field, rng: random.Random) -> TernionMatrix:
    """Uniform invertible matrix by rejection: 12 codes a candidate, drawn
    with `rng.randrange(q)`, kept when `TernionMatrix.is_invertible`."""
    q = field.q
    while True:
        c = [rng.randrange(q) for _ in range(12)]
        s = TernionMatrix(*(Ternion(field, *c[i:i + 3]) for i in range(0, 12, 3)))
        if s.is_invertible:
            return s
