"""Products of linear factors over a finite field.

``root_product`` multiplies out prod (x - r) on reps for
``symm.complete_series``, and so for the r gate.  ``Poly.from_roots`` wraps
it for the point-set context and hands back the coefficients as
``FieldElement`` values.
"""

from __future__ import annotations

from typing import Sequence

from .gf import Field, FieldElement


def root_product(field: Field, roots: Sequence[int]) -> list[int]:
    """Reps of prod (x - r) over the root reps, low degree first; monic."""
    add, mul = field._add, field._mul
    out = [1]
    for r in roots:
        m = field._neg(r)
        # x * out - r * out: coefficient i gains out[i-1] and -r out[i]
        out = [add(a, mul(m, b)) for a, b in zip([0] + out, out + [0])]
    return out


class Poly:
    """A monic product of linear factors: its field and its coefficients,
    low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[FieldElement, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_roots(cls, field: Field, roots: Sequence) -> "Poly":
        """Monic polynomial vanishing exactly on the given root multiset."""
        reps = root_product(field, [field.element(r).rep for r in roots])
        return cls(field, tuple(FieldElement(field, c) for c in reps))
