"""The package's value classes: their constructors, the checks those run,
and which of them compare by value.

A class that `src` or the tests compare or hash compares field-wise: two
instances are equal exactly when they have the same class and the same
fields.  The others (SemilinearMap, QuadricGeometry, Catalog,
AdjacencyGraph, ModuleMap, VerifyContext) compare by identity."""

import inspect

import pytest

from ternions.geometry import AdjacencyGraph, ModuleMap
from ternions.gf import FieldAutomorphism, automorphisms, make_field
from ternions.linalg import SemilinearMap, Subspace
from ternions.model import Catalog, QuadricGeometry
from ternions.suites import VerifyContext
from ternions.ternion import Ternion, TernionMatrix

# each constructor's parameters, in positional order, with their defaults
CONSTRUCTORS = {
    FieldAutomorphism: "field power table",
    Subspace: "field n basis",
    SemilinearMap: "field n matrix sigma",
    Ternion: "field x y z",
    TernionMatrix: "a b c d",
    QuadricGeometry: "regulus_alpha regulus_opposite point_vectors",
    Catalog: "field g_x g_y g_alpha g_beta g_gamma witness j_solid k_solid l_line quadric "
    "budget=None",
    AdjacencyGraph: "catalog vertices types vindex groups vertex_groups",
    ModuleMap: "sigma unit matrix",
    VerifyContext: "field seed=0 budget=None",
}


@pytest.mark.parametrize("cls", list(CONSTRUCTORS), ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    spelled = [p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params]
    assert spelled == CONSTRUCTORS[cls].split()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def _value_cases():
    """Per compared class: its constructor arguments, and per argument a
    different value."""
    f4 = make_field(2, 2)
    ident, frob = automorphisms(f4)
    t = [Ternion(f4, *c) for c in ((1, 0, 1), (0, 1, 0), (1, 1, 1), (0, 0, 1))]
    return {
        "FieldAutomorphism": (
            FieldAutomorphism,
            (f4, 1, frob.table),
            (make_field(2, 1), 0, ident.table),
        ),
        "Subspace": (Subspace, (f4, 2, ((1, 2),)), (make_field(5, 1), 3, ((1, 3),))),
        "Ternion": (Ternion, (f4, 1, 2, 3), (make_field(5, 1), 0, 3, 2)),
        "TernionMatrix": (TernionMatrix, tuple(t), (t[1], t[2], t[3], t[0])),
    }


VALUE_CASES = _value_cases()


@pytest.mark.parametrize("name", list(VALUE_CASES))
def test_equal_exactly_on_same_class_and_fields(name):
    cls, args, others = VALUE_CASES[name]
    a = cls(*args)
    assert a == cls(*args) and not a != cls(*args)
    for i, other in enumerate(others):
        changed = cls(*args[:i], other, *args[i + 1:])
        assert a != changed and not a == changed
    lookalike = type("Lookalike", (cls,), {"__slots__": ()})(*args)
    assert a != lookalike and lookalike != a
    assert a != args


@pytest.mark.parametrize("name", ["FieldAutomorphism", "Subspace", "Ternion"])
def test_equal_values_hash_equally(name):
    cls, args, _ = VALUE_CASES[name]
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args)}) == 1


def test_subspace_hash_leaves_out_the_field(f2, f3):
    basis = ((1, 0, 1),)
    a, b = Subspace(f2, 3, basis), Subspace(f3, 3, basis)
    assert a != b and hash(a) == hash(b) == hash((3, basis))
    assert len({a, b}) == 2


def test_ternions_over_different_fields_are_unequal(f2, f3):
    assert Ternion(f2, 1, 0, 1) != Ternion(f3, 1, 0, 1)
    assert Ternion(f2, 1, 0, 1) == Ternion(make_field(2, 1), 1, 0, 1)


def test_ternion_matrix_rejects_mixed_fields(f2, f3):
    one2, one3 = Ternion(f2, 1, 0, 1), Ternion(f3, 1, 0, 1)
    for pos in range(1, 4):
        entries = [one2] * 4
        entries[pos] = one3
        with pytest.raises(ValueError, match="^matrix entries over different fields$"):
            TernionMatrix(*entries)


@pytest.mark.parametrize(
    "matrix,message",
    [
        (((1, 0),), "^matrix must be n x n$"),
        (((1, 0), (0, 1, 0)), "^matrix must be n x n$"),
        (((1, 0), (0, 2)), "^matrix entry 2 is not among the element codes 0..1 of GF"),
        (((1, 1), (1, 1)), "^singular matrix does not define a collineation$"),
    ],
)
def test_semilinear_map_checks(f2, matrix, message):
    with pytest.raises(ValueError, match=message):
        SemilinearMap(f2, 2, matrix, automorphisms(f2)[0])


def test_semilinear_map_rejects_another_fields_automorphism(f2, f3):
    with pytest.raises(ValueError, match="^automorphism field mismatch$"):
        SemilinearMap(f2, 2, ((1, 0), (0, 1)), automorphisms(f3)[0])
