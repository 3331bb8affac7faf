"""Dense univariate polynomials over a finite field.

Coefficients are stored low degree first with no trailing zeros; the zero
polynomial stores nothing and reports degree NEG_INF so that degree
comparisons in Euclidean division work without a -1 sentinel.

``Poly`` is a public utility and test oracle that no internal path uses per
subset: the twist-criterion rows, and the r gate among them, take products on
reps from ``root_product``, which ``Poly.from_roots`` wraps.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ValidationError
from .gf import Field, FieldElement, element_to_json

NEG_INF = float("-inf")


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
    """Immutable dense polynomial; arithmetic stays in one field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        cs = [field.element(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return (Poly, (self.field, self.coeffs))

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field)

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def monomial(cls, field: Field, degree: int, coeff=1) -> "Poly":
        if degree < 0:
            raise ValidationError("monomial degree must be >= 0")
        return cls(field, (0,) * degree + (coeff,))

    @classmethod
    def from_roots(cls, field: Field, roots: Sequence) -> "Poly":
        """Monic polynomial vanishing exactly on the given root multiset."""
        reps = root_product(field, [field.element(r).rep for r in roots])
        return cls(field, (FieldElement(field, c) for c in reps))

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> FieldElement:
        """Coefficient of x^j (zero beyond the degree)."""
        if j < 0:
            raise ValidationError("coefficient index must be >= 0")
        return self.coeffs[j] if j < len(self.coeffs) else self.field.zero()

    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ValidationError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _same_field(self, other: "Poly") -> None:
        if self.field != other.field:
            raise ValidationError("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, (self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, (self.coeff(i) - other.coeff(i) for i in range(n)))

    def __neg__(self) -> "Poly":
        return Poly(self.field, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return Poly(self.field, (c * other for c in self.coeffs))
        self._same_field(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, den: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder with deg(remainder) < deg(den)."""
        self._same_field(den)
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = len(den.coeffs) - 1
        if len(rem) <= d:
            return Poly.zero(self.field), self
        lead_inv = den.leading().inverse()
        quot = [self.field.zero()] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c.is_zero():
                continue
            f = c * lead_inv
            quot[i - d] = f
            for j, dc in enumerate(den.coeffs):
                rem[i - d + j] = rem[i - d + j] - f * dc
        return Poly(self.field, quot), Poly(self.field, rem[:d])

    def __floordiv__(self, den: "Poly") -> "Poly":
        return divmod(self, den)[0]

    def __mod__(self, den: "Poly") -> "Poly":
        return divmod(self, den)[1]

    def __call__(self, x) -> FieldElement:
        """Horner evaluation."""
        x = self.field.element(x)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{element_to_json(c)}*x^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return "Poly(" + " + ".join(terms) + ")"

    def to_json(self) -> list:
        return [element_to_json(c) for c in self.coeffs]
