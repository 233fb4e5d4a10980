"""Exact geometry of free cyclic submodules over upper-triangular 2x2
matrices, realized as a plane set in PG(5,q), with a verification CLI."""

__version__ = "0.1.0"

from .gf import Field, FieldAutomorphism, automorphisms, make_field, field_of_order

__all__ = [
    "Field",
    "FieldAutomorphism",
    "automorphisms",
    "make_field",
    "field_of_order",
    "__version__",
]
