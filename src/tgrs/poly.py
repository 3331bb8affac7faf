"""Products of linear factors over a finite field, on reps.

``linear_step`` multiplies a product by one factor x - a.  ``root_product``
folds it over a root set for ``symm.criterion_row``, and so for the r gate;
``classify.PhiWorkspace`` extends its carried prefixes by it.
``Poly.from_roots`` wraps ``root_product`` for the point-set context and
hands back the coefficients as ``FieldElement`` values.
"""

from __future__ import annotations

from typing import Sequence

from .gf import Field, FieldElement


def linear_step(field: Field, c: list[int], a: int) -> list[int]:
    """Reps of c(x) (x - a), for reps c and a; coefficients leading first."""
    add, mul, m = field._add, field._mul, field._neg(a)
    # x c - a c: coefficient j gains c_j and -a c_(j-1)
    return [add(x, mul(m, y)) for x, y in zip(c + [0], [0] + c)]


def root_product(field: Field, roots: Sequence[int]) -> list[int]:
    """Reps of prod (x - r) over the root reps, low degree first; monic."""
    c = [1]
    for r in roots:
        c = linear_step(field, c, r)
    return c[::-1]


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
