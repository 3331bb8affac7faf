"""Symmetric-function values over a fixed tuple of distinct evaluation points.

One product P(x) = prod_i (x - x_i) gives the leave-one-out quotients
q_i = P / (x - x_i), and they the elementary symmetric values sigma_r(i),
the Lagrange dual coefficients u_i = 1 / q_i(x_i) and the hook weights
w-tilde.  The complete symmetric values S_t, the series of
1 / prod_i (1 - x_i z), grow one point at a time by ``series_step``,
h_t(P + a) = h_t(P) + a h_(t-1)(P + a) (Macdonald, Symmetric Functions and
Hall Polynomials, I.2), which ``complete_series`` folds over a root set and
``classify.PhiWorkspace`` applies to its carried prefix; the tail sums
Psi_s combine S_t with a twist vector.  ``SymContext`` keeps these on reps
for one point set, with the power rows alpha_i^j that the generator, the
parity check and the GRS floor certificate read, each built on first use,
and FieldElements only in its public getters.
``criterion_row`` reads one twist-criterion row of a root set from scratch:
the r gate (the k-1 head points, hook h-1) and the tests' oracle for the
table's rows.

Convention: S_0 = 1 and S_t = 0 for t < 0, matching the generating function
prod_i 1/(1 - x_i z).  All positions are 0-based.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .errors import ValidationError, VerificationError
from .gf import Field, FieldElement, check_int_fields
from .poly import Poly, root_product


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


def series_step(field: Field, series: Sequence[int], a: int) -> list[int]:
    """Reps h_0..h_(m-1) of the root set P + a from those of P, for the rep a."""
    add, mul = field._add, field._mul
    out = [1]
    for s in series[1:]:
        out.append(add(s, mul(a, out[-1])))  # h_t(P) + a h_(t-1)(P + a)
    return out


def complete_series(field: Field, roots: Sequence[int], length: int) -> list[int]:
    """Reps h_0..h_(length-1) of the root reps, for length >= 1: the power
    series 1 / prod (1 - root z), whose terms are their complete symmetric values."""
    series = [1] + [0] * (length - 1)
    for r in roots:
        series = series_step(field, series, r)
    return series


def tail_sums(field: Field, eta: Sequence[int], series: Sequence[int]) -> list[int]:
    """Reps of Psi_s = sum_{t >= s} eta_t S_{t-s}, s = 0..len(eta)-1, for reps eta and S."""
    return [field._dot(eta[s:], series) for s in range(len(eta))]


def criterion_row(field: Field, roots: Sequence[int], h: int, length: int) -> tuple[int, ...]:
    """Reps d_0..d_{length-1} of the twist criterion of the root reps with hook h.

    Write g(x) = prod (x - root) = sum_j c_j x^(k-j), k = len(roots), so
    c_0 = 1, and let e_0, e_1, .. be the complete symmetric values of the
    roots, the power-series inverse of sum_j c_j z^j:

        d_t = sum_{i <= min(t, h)} e_{t-i} c_{k-h+i} = -[x^h] (x^(k+t) mod g),

    i.e. e^T A_t^{-1} c_t^(h) with A_t the unit lower-triangular Toeplitz
    matrix of (c_0..c_t) and c_t^(h) the window (c_{k-h}, .., c_{k-h+t}),
    entries beyond c_k read as zero.
    """
    window = root_product(field, roots)[h::-1]  # c_(k-h)..c_k, leading first
    e = complete_series(field, roots, length)
    return tuple(field._dot(e[t::-1], window) for t in range(length))  # e read back from t


class SymContext:
    """Symmetric-function values and point powers of one point set: the one
    cache of what its points fix, on reps.

    Each part is built on first use and kept: the leave-one-out quotients
    and dual coefficients from one ``Poly.from_roots`` product, the series
    S_t, recomputed to a longer length only when a caller asks past its
    end, and the power rows alpha_i^j, grown a row at a time.
    """

    def __init__(self, points: Sequence[FieldElement]):
        pts = distinct_points(points)
        self.field = pts[0].field
        self.points = pts
        self.n = len(pts)
        self._s: list[int] = []
        self._powers: list[tuple[int, ...]] = [(1,) * self.n]  # row j: alpha_i^j

    @functools.cached_property
    def _quotients(self) -> tuple[list[list[int]], list[int]]:
        """Reps of the q_i, low degree first, and of the u_i = 1 / q_i(points_i)."""
        field, pts = self.field, self.points
        product = [c.rep for c in Poly.from_roots(field, pts).coeffs]
        add, mul = field._add, field._mul
        qs, us = [], []
        for i, a in enumerate(pts):
            a = a.rep
            # synthetic division by x - a, high degree first, and Horner's q(a)
            q = [product[-1]]
            acc = q[0]
            for c in product[-2:0:-1]:
                q.append(add(c, mul(a, q[-1])))
                acc = add(mul(acc, a), q[-1])
            if add(product[0], mul(a, q[-1])) != 0:
                raise VerificationError(f"point {i} is not a root of the full product")
            qs.append(q[::-1])
            us.append(field._inv(acc))
        return qs, us

    def _power_rows(self, nrows: int) -> list[tuple[int, ...]]:
        """Reps of the rows alpha_i^j, j = 0..nrows-1, the Vandermonde rows."""
        rows = self._powers
        if len(rows) < nrows:
            mul, pts = self.field._mul, [p.rep for p in self.points]
            while len(rows) < nrows:
                rows.append(tuple(map(mul, rows[-1], pts)))
        return rows[:nrows]

    def _series(self, length: int) -> list[int]:
        if len(self._s) < length:
            self._s = complete_series(self.field, [p.rep for p in self.points], length)
        return self._s

    def _hook_reps(self, h: int) -> list[int]:
        """Reps of w_tilde_i = [x^h] q_i, for 0 <= h <= n-1."""
        return [q[h] for q in self._quotients[0]]

    def _psi_reps(self, eta: Sequence[int]) -> list[int]:
        """Reps of Psi_0..Psi_{len(eta)-1}, for eta given as reps."""
        return tail_sums(self.field, eta, self._series(len(eta)))

    # -- queries ---------------------------------------------------------------

    def complete_symmetric(self, t: int) -> FieldElement:
        """S_t of all points; zero for t < 0, one for t = 0."""
        check_int_fields({"t": t}, ("t",))
        return FieldElement(self.field, 0 if t < 0 else self._series(t + 1)[t])

    def dual_coeffs(self) -> tuple[FieldElement, ...]:
        """u_i = prod_{j != i} (points_i - points_j)^{-1}."""
        return tuple(FieldElement(self.field, u) for u in self._quotients[1])

    def sigma_excluding(self, r: int, i: int) -> FieldElement:
        """Elementary symmetric value of degree r over all points but points[i].

        Read off the coefficients of q_i = prod_{j != i} (x - points_j): the
        x^(n-1-r) coefficient equals (-1)^r sigma_r(i).
        """
        check_int_fields({"r": r, "i": i}, ("r", "i"))
        if not 0 <= i < self.n:
            raise ValidationError(f"point index {i} out of range 0..{self.n - 1}")
        if not 0 <= r <= self.n - 1:
            raise ValidationError(f"degree {r} out of range 0..{self.n - 1}")
        c = self._quotients[0][i][self.n - 1 - r]
        return FieldElement(self.field, c if r % 2 == 0 else self.field._neg(c))

    def hook_weights(self, h: int) -> tuple[tuple[FieldElement, ...], tuple[FieldElement, ...]]:
        """Weight vectors (w, w_tilde) for unit-vector index h.

        w solves the full Vandermonde system V w^T = e_{h+1} via the closed
        form w_i = (-1)^(n+h+1) u_i sigma_{n-1-h}(i); w_tilde_i = w_i / u_i.
        The two signs cancel, (n+h+1) + (n-1-h) = 2n, so w_tilde_i is the
        x^h coefficient of q_i.
        """
        check_int_fields({"h": h}, ("h",))
        if not 0 <= h <= self.n - 1:
            raise ValidationError(f"unit index {h} out of range 0..{self.n - 1}")
        f = self.field
        wt = self._hook_reps(h)
        return (tuple(FieldElement(f, f._mul(u, t)) for u, t in zip(self._quotients[1], wt)),
                tuple(FieldElement(f, t) for t in wt))

    def psi_values(self, eta: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """Tail sums Psi_s = sum_{t >= s} eta_t S_{t-s}, s = 0..len(eta)-1."""
        f = self.field
        eta = [f.element(e).rep for e in eta]
        if not eta:
            raise ValidationError("eta must have length l+1 >= 1, got 0")
        return tuple(FieldElement(f, x) for x in self._psi_reps(eta))
