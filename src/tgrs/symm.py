"""Symmetric-function values over a fixed tuple of distinct evaluation points.

Everything is read off one product polynomial P(x) = prod_i (x - x_i): the
complete symmetric values S_t are the power series of 1 / prod_i (1 - x_i z),
whose denominator is P with its coefficients reversed; the leave-one-out
quotients q_i = P / (x - x_i) give the elementary symmetric values
sigma_r(i), the Lagrange dual coefficients u_i = 1 / q_i(x_i) and the hook
weights w-tilde; the twist tail sums Psi_s combine S_t with a twist vector.
The same series helper gives the twist-criterion rows of the classifier.

Convention: S_0 = 1 and S_t = 0 for t < 0, matching the generating function
prod_i 1/(1 - x_i z).  All positions are 0-based.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import ValidationError, VerificationError
from .gf import FieldElement
from .poly import Poly


def distinct_points(points: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """The points as a tuple, checked nonempty, in one field and pairwise distinct."""
    pts = tuple(points)
    if not pts:
        raise ValidationError("need at least one evaluation point")
    if any(p.field != pts[0].field for p in pts):
        raise ValidationError("points must share one field")
    seen: dict[FieldElement, int] = {}
    for i, p in enumerate(pts):
        first = seen.setdefault(p, i)
        if first != i:
            raise ValidationError(
                f"evaluation points must be distinct: positions {first} and {i} coincide")
    return pts


def series_inverse(c: Sequence[FieldElement], length: int) -> tuple[FieldElement, ...]:
    """e_0..e_{length-1} of the power series 1 / sum_j c_j z^j, for c_0 = 1."""
    field = c[0].field
    tail = [x.rep for x in c[1:]]
    e = [c[0].rep]
    for _ in range(1, length):
        # e_j = -sum_{i >= 1} c_i e_{j-i}: the tail against e read backwards
        e.append(field._neg(field._dot(tail, e[::-1])))
    return tuple(FieldElement(field, x) for x in e[:length])


def context_for(points: Sequence[FieldElement], context: Optional["SymContext"] = None
                ) -> "SymContext":
    """``context`` checked to be built for exactly these points, or a fresh one."""
    if context is None:
        return SymContext(points)
    if context.points != tuple(points):
        raise ValidationError("symmetric-function context was built for other points")
    return context


class SymContext:
    """Symmetric-function values of one point set.

    The leave-one-out quotients and dual coefficients are computed at
    construction; the series S_t is computed on first use and recomputed to
    a longer length only when a caller asks past its end.
    """

    def __init__(self, points: Sequence[FieldElement]):
        pts = distinct_points(points)
        self.field = pts[0].field
        self.points = pts
        self.n = len(pts)
        self._zero = self.field.zero()
        product = Poly.from_roots(self.field, pts)
        self._reversed = product.coeffs[::-1]  # c_j of prod_i (1 - x_i z)
        self._s: tuple[FieldElement, ...] = ()
        quotients = []
        for i, a in enumerate(pts):
            q, r = divmod(product, Poly(self.field, (-a, self.field.one())))
            if not r.is_zero():
                raise VerificationError(f"point {i} is not a root of the full product")
            quotients.append(q)
        self._q = tuple(quotients)
        self._u = tuple(q(a).inverse() for q, a in zip(quotients, pts))

    def _series(self, length: int) -> tuple[FieldElement, ...]:
        if len(self._s) < length:
            self._s = series_inverse(self._reversed, length)
        return self._s

    # -- queries ---------------------------------------------------------------

    def complete_symmetric(self, t: int) -> FieldElement:
        """S_t of all points; zero for t < 0, one for t = 0."""
        return self._zero if t < 0 else self._series(t + 1)[t]

    def dual_coeffs(self) -> tuple[FieldElement, ...]:
        """u_i = prod_{j != i} (points_i - points_j)^{-1}."""
        return self._u

    def sigma_excluding(self, r: int, i: int) -> FieldElement:
        """Elementary symmetric value of degree r over all points but points[i].

        Read off the coefficients of q_i = prod_{j != i} (x - points_j): the
        x^(n-1-r) coefficient equals (-1)^r sigma_r(i).
        """
        if not 0 <= i < self.n:
            raise ValidationError(f"point index {i} out of range 0..{self.n - 1}")
        if not 0 <= r <= self.n - 1:
            raise ValidationError(f"degree {r} out of range 0..{self.n - 1}")
        c = self._q[i].coeff(self.n - 1 - r)
        return c if r % 2 == 0 else -c

    def hook_weights(self, h: int) -> tuple[tuple[FieldElement, ...], tuple[FieldElement, ...]]:
        """Weight vectors (w, w_tilde) for unit-vector index h.

        w solves the full Vandermonde system V w^T = e_{h+1} via the closed
        form w_i = (-1)^(n+h+1) u_i sigma_{n-1-h}(i); w_tilde_i = w_i / u_i.
        The two signs cancel, (n+h+1) + (n-1-h) = 2n, so w_tilde_i is the
        x^h coefficient of q_i.
        """
        if not 0 <= h <= self.n - 1:
            raise ValidationError(f"unit index {h} out of range 0..{self.n - 1}")
        wt = tuple(q.coeff(h) for q in self._q)
        return tuple(u * t for u, t in zip(self._u, wt)), wt

    def psi_values(self, eta: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """Tail sums Psi_s = sum_{t >= s} eta_t S_{t-s}, s = 0..len(eta)-1."""
        eta = [self.field.element(e) for e in eta]
        l = len(eta) - 1
        s_vals = self._series(l + 1)
        out = []
        for s in range(l + 1):
            acc = self._zero
            for t in range(s, l + 1):
                acc = acc + eta[t] * s_vals[t - s]
            out.append(acc)
        return tuple(out)
