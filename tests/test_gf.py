"""Field layer: table correctness, ring laws, automorphisms, conventions."""

import re
from itertools import product

import pytest

from ternions.gf import (
    DEFAULT_MODULI,
    Field,
    automorphisms,
    field_of_order,
    is_prime,
    make_field,
)


def test_is_prime_small():
    primes = [n for n in range(2, 30) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)


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


def test_scalar_rep_and_order():
    f9 = make_field(3, 2)
    reps = [tuple(reversed(f9._code_coeffs(c))) for c in f9.codes()]
    # ascending code order is lexicographic on the high-first coefficients
    assert reps == sorted(reps)
    assert reps[0] == (0, 0)
    assert reps[1] == (0, 1)
    assert reps[3] == (1, 0)
    assert make_field(5, 1)._code_coeffs(4) == [4]


def test_coeff_round_trip():
    f = make_field(2, 4)
    for c in f.codes():
        assert f._coeffs_code(f._code_coeffs(c)) == c


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


@pytest.mark.parametrize("bad", [1.5, 3, -1, 1.0])
def test_modulus_coefficients_are_codes(bad):
    # int() or the reduction mod 2 reads each as x^2 + x + 1, and each was
    # once built as that field
    make_field(2, 2, (1, 1, 1))
    msg = f"modulus coefficient {bad!r} is not among the element codes 0..1 of GF(2)"
    with pytest.raises(ValueError, match=re.escape(msg)):
        make_field(2, 2, (1, bad, 1))


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
