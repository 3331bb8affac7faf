"""Symmetric-function tables over a fixed tuple of distinct evaluation points.

Covers the numeric apparatus behind the parity-check construction: complete
symmetric values S_t, leave-one-out elementary symmetric values sigma_r(i),
Lagrange dual coefficients u_i, the hook weight vectors w / w-tilde, and the
twist tail sums Psi_s.

Convention: S_0 = 1 and S_t = 0 for t < 0, matching the generating function
prod_i 1/(1 - x_i z).  All positions are 0-based.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ValidationError, VerificationError
from .gf import FieldElement
from .poly import Poly


class SymContext:
    """Eagerly cached symmetric-function values for one point set.

    The complete symmetric table is filled by the prefix recurrence
    S_t(x_1..x_j) = S_t(x_1..x_{j-1}) + x_j S_{t-1}(x_1..x_j) and extended on
    demand; dual coefficients are cached at construction.
    """

    def __init__(self, points: Sequence[FieldElement], t_max: int | None = None):
        pts = tuple(points)
        if not pts:
            raise ValidationError("need at least one evaluation point")
        self.field = pts[0].field
        if any(p.field != self.field for p in pts):
            raise ValidationError("points must share one field")
        if len(set(pts)) != len(pts):
            raise ValidationError("evaluation points must be pairwise distinct")
        self.points = pts
        self.n = len(pts)
        self._zero = self.field.zero()
        # DP rows over prefix sizes; row t, entry j = S_t(points[:j])
        self._s_rows: list[list[FieldElement]] = [[self.field.one()] * (self.n + 1)]
        self._grow_s_table(self.n if t_max is None else max(t_max, 0))
        self._sigma_polys: dict[int, Poly] = {}
        self._full_product: Poly | None = None
        self._eager_u()

    def _grow_s_table(self, t_max: int) -> None:
        while len(self._s_rows) <= t_max:
            prev = self._s_rows[-1]
            row = [self._zero]  # S_t of the empty prefix, t >= 1
            for j in range(1, self.n + 1):
                row.append(row[j - 1] + self.points[j - 1] * prev[j])
            self._s_rows.append(row)

    def _eager_u(self) -> None:
        us = []
        for i, a in enumerate(self.points):
            prod = self.field.one()
            for j, b in enumerate(self.points):
                if i != j:
                    prod = prod * (a - b)
            us.append(prod.inverse())
        self._u = tuple(us)

    # -- queries ---------------------------------------------------------------

    def complete_symmetric(self, t: int) -> FieldElement:
        """S_t of all points; zero for t < 0, one for t = 0."""
        if t < 0:
            return self._zero
        self._grow_s_table(t)
        return self._s_rows[t][self.n]

    def dual_coeffs(self) -> tuple[FieldElement, ...]:
        """u_i = prod_{j != i} (points_i - points_j)^{-1}."""
        return self._u

    def _poly_excluding(self, i: int) -> Poly:
        if i not in self._sigma_polys:
            if self._full_product is None:
                self._full_product = Poly.from_roots(self.field, self.points)
            linear = Poly(self.field, (-self.points[i], self.field.one()))
            q, r = divmod(self._full_product, linear)
            if not r.is_zero():
                raise VerificationError(f"point {i} is not a root of the full product")
            self._sigma_polys[i] = q
        return self._sigma_polys[i]

    def sigma_excluding(self, r: int, i: int) -> FieldElement:
        """Elementary symmetric value of degree r over all points but points[i].

        Read off the coefficients of prod_{j != i} (x - points_j): the x^(n-1-r)
        coefficient equals (-1)^r sigma_r(i).
        """
        if not 0 <= i < self.n:
            raise ValidationError(f"point index {i} out of range 0..{self.n - 1}")
        if not 0 <= r <= self.n - 1:
            raise ValidationError(f"degree {r} out of range 0..{self.n - 1}")
        c = self._poly_excluding(i).coeff(self.n - 1 - r)
        return c if r % 2 == 0 else -c

    def hook_weights(self, h: int) -> tuple[tuple[FieldElement, ...], tuple[FieldElement, ...]]:
        """Weight vectors (w, w_tilde) for unit-vector index h.

        w solves the full Vandermonde system V w^T = e_{h+1} via the closed
        form w_i = (-1)^(n+h+1) u_i sigma_{n-1-h}(i); w_tilde_i = w_i / u_i.
        """
        if not 0 <= h <= self.n - 1:
            raise ValidationError(f"unit index {h} out of range 0..{self.n - 1}")
        negate = (self.n + h + 1) % 2 == 1
        wt = []
        for i in range(self.n):
            s = self.sigma_excluding(self.n - 1 - h, i)
            wt.append(-s if negate else s)
        w = tuple(u * t for u, t in zip(self._u, wt))
        return w, tuple(wt)

    def psi_values(self, eta: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """Tail sums Psi_s = sum_{t >= s} eta_t S_{t-s}, s = 0..len(eta)-1."""
        eta = [self.field.element(e) for e in eta]
        l = len(eta) - 1
        out = []
        for s in range(l + 1):
            acc = self._zero
            for t in range(s, l + 1):
                acc = acc + eta[t] * self.complete_symmetric(t - s)
            out.append(acc)
        return tuple(out)
