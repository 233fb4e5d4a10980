"""Field layer: table correctness, ring laws, automorphisms, conventions."""

import hashlib
import re
from itertools import product

import pytest

from ternions import gf
from ternions.gf import (
    DEFAULT_MODULI,
    MAX_ORDER,
    Field,
    FieldAutomorphism,
    automorphisms,
    field_of_order,
    is_prime,
    make_field,
)


def test_is_prime_small():
    primes = [n for n in range(2, 30) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)


# sha256 of `table_digest()`, which pins the code-to-element encoding of
# every field; see tests/golden/README.md for the command
TABLES_SHA256 = "c2dae0465052450ea2ddeb2221a788bdf8cf63b87e2c368692092b94e6bb0971"


def table_digest():
    """The sha256 over every (p, k, monic modulus) with q = p^k <= 27 (98
    cases) of the field's add, mul, neg and inv tables, read through the
    public arithmetic, or of the ValueError text where the modulus is
    reducible.  A prime field (k = 1) takes no modulus."""
    top = 27  # not MAX_ORDER: the digest stays put when the cap moves
    h = hashlib.sha256()
    for p in filter(is_prime, range(2, top + 1)):
        k = 1
        while p**k <= top:
            moduli = [None] if k == 1 else [c + (1,) for c in product(range(p), repeat=k)]
            for m in moduli:
                try:
                    f = make_field(p, k, m)
                except ValueError as e:
                    h.update(f"{p} {k} {m} ValueError: {e}\n".encode())
                    continue
                els = f.codes()
                add = [f.add(a, b) for a in els for b in els]
                mul = [f.mul(a, b) for a in els for b in els]
                neg = [f.neg(a) for a in els]
                inv = [f.inv(a) for a in els if a]
                h.update(f"{p} {k} {m} {add} {mul} {neg} {inv}\n".encode())
            k += 1
    return h.hexdigest()


def test_tables_of_every_modulus_are_pinned():
    assert table_digest() == TABLES_SHA256


def test_irreducibility():
    # x^2 + x + 1 is irreducible over GF(2), and x^2 + 1 over GF(3) has no
    # roots; x^2 + 1 = (x + 1)^2 over GF(2)
    assert make_field(2, 2, (1, 1, 1)).modulus == (1, 1, 1)
    assert make_field(3, 2, (1, 0, 1)).modulus == (1, 0, 1)
    with pytest.raises(ValueError, match="reducible"):
        make_field(2, 2, (1, 0, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27])
def test_field_laws(q):
    f = field_of_order(q)
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    # associativity and distributivity on a full triple sweep
    for a in els:
        for b in els:
            ab_a = f.add(a, b)
            ab_m = f.mul(a, b)
            for c in els:
                assert f.add(ab_a, c) == f.add(a, f.add(b, c))
                assert f.mul(ab_m, c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(ab_m, f.mul(a, c))


def test_gf4_table():
    f = make_field(2, 2)
    # codes: 0, 1, x, x+1 with x^2 = x + 1
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.add(2, 3) == 1
    assert f.inv(2) == 3


def test_gf9_table():
    f = make_field(3, 2)
    # modulus x^2 + 2x + 2: x^2 = x + 1, so code 3*3 = code 4
    assert f.mul(3, 3) == 4
    x_cubed = f.mul(3, 4)
    assert f.mul(3, x_cubed) == f.pow(3, 4)


# every field the package builds, with its default modulus
ORDERS = [q for q in range(2, MAX_ORDER + 1) if q in DEFAULT_MODULI or is_prime(q)]


def _digits(f, c):
    """The k base-p digits of code c, least significant first."""
    return [c // f.p**i % f.p for i in range(f.k)]


def test_scalar_rep_and_order():
    # code p is x, and the digits of a code, low first, are its coefficients
    # of 1, x, ..., x^(k-1); the codes below p are the prime field, on which
    # the arithmetic is mod p (for k = 1 the code is the residue itself)
    for q in ORDERS:
        f = field_of_order(q)
        p = f.p
        for i in range(1, f.k):
            assert f.pow(p, i) == p**i
        for c in f.codes():
            total = 0
            for i, d in enumerate(_digits(f, c)):
                total = f.add(total, f.mul(d, f.pow(p, i)))
            assert total == c
        for a, b in product(range(p), repeat=2):
            assert f.mul(a, b) == a * b % p


def test_coeff_round_trip():
    # addition and negation are digit-wise mod p on every code
    for q in ORDERS:
        f = field_of_order(q)
        for a in f.codes():
            da = _digits(f, a)
            assert _digits(f, f.neg(a)) == [-x % f.p for x in da]
            for b in f.codes():
                assert _digits(f, f.add(a, b)) == [
                    (x + y) % f.p for x, y in zip(da, _digits(f, b))
                ]


def test_automorphism_group():
    f = make_field(2, 2)
    autos = automorphisms(f)
    assert len(autos) == 2
    assert autos[0].is_identity
    frob = autos[1]
    for c in f.codes():
        assert frob.table[c] == f.mul(c, c)
    # fixed field of Frobenius is the prime subfield
    fixed = [c for c in f.codes() if frob.table[c] == c]
    assert fixed == [0, 1]
    assert all(frob.table[frob.table[c]] == c for c in f.codes())


def test_automorphism_compose_order():
    f = make_field(2, 4)
    autos = automorphisms(f)
    assert len(autos) == 4
    a, b = autos[1], autos[2]
    for c in f.codes():
        assert autos[3].table[c] == a.table[b.table[c]]
        assert all(autos[e].table[c] == f.pow(c, 2**e) for e in range(4))


def test_automorphism_power_is_taken_mod_k():
    # the Frobenius of GF(p^k) has order k
    f4, f8 = make_field(2, 2), make_field(2, 3)
    square = FieldAutomorphism(f4, 2)
    assert square == automorphisms(f4)[0]
    assert square.is_identity
    assert FieldAutomorphism(f8, -1) == automorphisms(f8)[2]


@pytest.mark.parametrize("q", [2, 4, 8, 9, 27])
def test_automorphism_apply_is_entrywise(q):
    f = field_of_order(q)
    rows = (tuple(f.codes()), tuple(reversed(f.codes())), ())
    autos = automorphisms(f)
    for sigma in autos:
        assert sigma.apply(rows) == tuple(tuple(sigma.table[c] for c in r) for r in rows)
    assert autos[0].apply(rows) is rows


def test_field_identity_and_cache():
    assert make_field(2, 2) is make_field(2, 2)
    assert field_of_order(4) == make_field(2, 2)
    assert field_of_order(9).p == 3
    assert make_field(7) != make_field(5)


def test_order_beyond_the_maximum_is_refused_before_factoring(monkeypatch):
    # a large prime would take trial division up to q to factor
    calls = []

    def counted(n):
        calls.append(n)
        if len(calls) > 5:
            raise AssertionError("field_of_order factored an order beyond MAX_ORDER")
        return is_prime(n)

    monkeypatch.setattr(gf, "is_prime", counted)
    with pytest.raises(ValueError, match=f"exceeds the supported maximum {MAX_ORDER}"):
        field_of_order(10**9 + 7)


def test_default_moduli_are_irreducible():
    for q, mod in DEFAULT_MODULI.items():
        f = field_of_order(q)
        assert f.modulus == tuple(mod)


def test_construction_errors():
    with pytest.raises(ValueError):
        make_field(4, 1)  # composite characteristic
    with pytest.raises(ValueError):
        make_field(2, 1, modulus=(1, 1))  # modulus on a prime field
    with pytest.raises(ValueError):
        make_field(2, 2, modulus=(1, 0, 1))  # reducible
    with pytest.raises(ValueError):
        make_field(2, 2, modulus=(1, 1, 1, 1))  # wrong degree
    with pytest.raises(ValueError):
        make_field(2, 6)  # beyond the supported order
    with pytest.raises(ValueError):
        field_of_order(6)
    with pytest.raises(ValueError):
        field_of_order(1)


@pytest.mark.parametrize("bad", [1.5, 3, -1, 1.0, True])
def test_modulus_coefficients_are_codes(bad):
    # int() or the reduction mod 2 reads each as x^2 + x + 1, and each was
    # once built as that field; `Field` refuses each itself, and make_field
    # before its cache lookup, which takes 1.0 or True for 1
    make_field(2, 2, (1, 1, 1))
    msg = f"modulus coefficient {bad!r} is not among the element codes 0..1 of GF(2)"
    for build in (make_field, Field):
        with pytest.raises(ValueError, match=re.escape(msg)):
            build(2, 2, (1, bad, 1))


def test_custom_modulus_still_a_field():
    # x^3 + x^2 + 1 is the other irreducible cubic over GF(2)
    f = make_field(2, 3, modulus=(1, 0, 1, 1))
    for a in f.codes():
        if a:
            assert f.mul(a, f.inv(a)) == 1
    assert f != make_field(2, 3)


def test_gf9_moduli_compare_by_key():
    # x^2 + 1 and the default x^2 + 2x + 2 are both irreducible over GF(3)
    default = make_field(3, 2)
    other = make_field(3, 2, modulus=(1, 0, 1))
    assert default == default and other == other
    assert default != other and other != default
    rebuilt = make_field(3, 2, modulus=(2, 2, 1))  # the default, spelled out
    assert rebuilt is not default
    assert rebuilt == default and hash(rebuilt) == hash(default)


@pytest.mark.parametrize("q", [3, 4, 9])
def test_normalize_matches_one_row_rref(q):
    f = field_of_order(q)
    for vec in product(range(q), repeat=3):
        if any(vec):
            assert f.normalize(vec) == f.kernel.rref((vec,))[0]
