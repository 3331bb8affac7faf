"""MDS / AMDS / LCD classification of twisted GRS codes.

Two independent routes decide MDS-ness: the per-subset twist criterion
(PhiWorkspace) and exhaustive k x k minors of the generator matrix; the test
suite keeps them in agreement.  Minimum distance is found as the smallest
number of linearly dependent parity-check columns, and LCD status comes from
the rank of the generator stacked on the parity check.

Subset enumeration is lexicographic and the first violation is always the
reported certificate, so reruns are reproducible.  Certificates use 1-based
positions in serialized form; the in-process API is 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .codes import TgrsSpec, generator_matrix, parity_check_matrix
from .errors import ResourceLimitError, ValidationError, VerificationError
from .gf import FieldElement, element_to_json
from .linalg import MatGF, det, rank
from .poly import Poly

DEFAULT_DISTANCE_CAP = 24


class PhiWorkspace:
    """Per-subset data for the twist MDS criterion.

    For a k-subset I of the evaluation points let g(x) = prod (x - alpha_i)
    over I and write g(x) = sum_j c_j x^(k-j), so c_0 = 1.  The criterion
    quantity is 1 - sum_t eta_t e^T A_t^{-1} c_t^(h), where A_t is the unit
    lower-triangular Toeplitz matrix of (c_0..c_t) and c_t^(r) the window
    (c_{k-r}, .., c_{k-r+t}) with out-of-range entries read as zero.
    """

    def __init__(self, alpha: Sequence[FieldElement], indices: Sequence[int]):
        pts = [alpha[i] for i in indices]
        if not pts:
            raise ValidationError("subset must be nonempty")
        self.field = pts[0].field
        self.n = len(alpha)
        self.k = len(pts)
        self.indices = tuple(indices)
        g = Poly.from_roots(self.field, pts)
        # c_j = coefficient of x^(k-j); descending window over the monic g
        self.c = tuple(g.coeff(self.k - j) for j in range(self.k + 1))
        self._zero = self.field.zero()
        self._e_cache: list[FieldElement] = [self.field.one()]

    def _c_at(self, idx: int) -> FieldElement:
        return self.c[idx] if 0 <= idx <= self.k else self._zero

    def _solve_toeplitz(self, t: int, rhs: list[FieldElement]) -> list[FieldElement]:
        # forward substitution; the diagonal is c_0 = 1 and band entries
        # beyond c_k read as zero
        y: list[FieldElement] = []
        for i in range(t + 1):
            acc = rhs[i]
            for j in range(max(0, i - self.k), i):
                acc = acc - self.c[i - j] * y[j]
            y.append(acc)
        return y

    def ftr(self, t: int, r: int) -> FieldElement:
        """Expansion coefficient f_{t,r} of the power k+t over the I-Vandermonde rows."""
        if not 0 <= t <= self.n - self.k - 1:
            raise ValidationError(f"twist exponent {t} out of range 0..{self.n - self.k - 1}")
        if not 0 <= r <= self.k - 1:
            raise ValidationError(f"row index {r} out of range 0..{self.k - 1}")
        rhs = [self._c_at(self.k - r + i) for i in range(t + 1)]
        y = self._solve_toeplitz(t, rhs)
        return -y[t]

    def _e_seq(self, upto: int) -> list[FieldElement]:
        # power-series inverse of sum_j c_j z^j (the last row of A_t^{-1})
        e = self._e_cache
        while len(e) <= upto:
            j = len(e)
            acc = self._zero
            for i in range(1, min(j, self.k) + 1):
                acc = acc + self.c[i] * e[j - i]
            e.append(-acc)
        return e

    def criterion_coeffs(self, h: int, upto_t: int) -> tuple[FieldElement, ...]:
        """The values e^T A_t^{-1} c_t^(h) for t = 0..upto_t (linear in eta later)."""
        e = self._e_seq(upto_t)
        out = []
        for t in range(upto_t + 1):
            acc = self._zero
            for i in range(t + 1):
                acc = acc + e[t - i] * self._c_at(self.k - h + i)
            out.append(acc)
        return tuple(out)

    def phi_quantity(self, eta: Sequence[FieldElement], h: int) -> FieldElement:
        """1 - sum_t eta_t e^T A_t^{-1} c_t^(h); zero exactly on singular minors."""
        d = self.criterion_coeffs(h, len(eta) - 1)
        total = self._zero
        for e, c in zip(eta, d):
            total = total + e * c
        return self.field.one() - total


def ftr_coefficient(ws: PhiWorkspace, t: int, r: int) -> FieldElement:
    return ws.ftr(t, r)


def is_mds_phi(spec: TgrsSpec) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Twist-criterion MDS test; on failure returns the first bad k-subset."""
    for I in itertools.combinations(range(spec.n), spec.k):
        ws = PhiWorkspace(spec.alpha, I)
        if ws.phi_quantity(spec.eta, spec.h).is_zero():
            return False, I
    return True, None


def is_mds_minors(G: MatGF) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exhaustive k x k minor check of a k x n generator matrix."""
    k, n = G.rows, G.cols
    if k > n:
        raise ValidationError("generator must have at least as many columns as rows")
    row_idx = tuple(range(k))
    for I in itertools.combinations(range(n), k):
        if det(G.submatrix(row_idx, I)).is_zero():
            return False, I
    return True, None


def is_amds(spec: TgrsSpec) -> tuple[bool, dict]:
    """Distance-exactly-n-k test via the two subset conditions.

    Needs (a) some singular k-subset and (b) every (k+1)-subset containing a
    nonsingular k-subset; certificates carry the discovered witnesses.
    """
    phi_zero: dict[tuple[int, ...], bool] = {}

    def quantity_is_zero(I: tuple[int, ...]) -> bool:
        if I not in phi_zero:
            ws = PhiWorkspace(spec.alpha, I)
            phi_zero[I] = ws.phi_quantity(spec.eta, spec.h).is_zero()
        return phi_zero[I]

    dependent: Optional[tuple[int, ...]] = None
    for I in itertools.combinations(range(spec.n), spec.k):
        if quantity_is_zero(I):
            dependent = I
            break
    if dependent is None:
        return False, {"reason": "code is MDS", "dependent_subset": None}
    for J in itertools.combinations(range(spec.n), spec.k + 1):
        if all(quantity_is_zero(I) for I in itertools.combinations(J, spec.k)):
            return False, {
                "reason": "a k+1 column set has rank below k",
                "dependent_subset": dependent,
                "deficient_superset": J,
            }
    return True, {"dependent_subset": dependent, "deficient_superset": None}


def min_distance(H: MatGF, cap_n: int = DEFAULT_DISTANCE_CAP) -> int:
    """Smallest number of linearly dependent parity-check columns.

    Ascending-size lexicographic search; the parity-check matrix must have
    full row rank so the search is guaranteed to stop by size rows+1.
    """
    n = H.cols
    if n > cap_n:
        raise ResourceLimitError(
            f"minimum-distance search over {n} columns exceeds the cap {cap_n}")
    if rank(H) != H.rows:
        raise ValidationError("parity-check matrix must have full row rank")
    row_idx = tuple(range(H.rows))
    for w in range(1, H.rows + 2):
        for cols in itertools.combinations(range(n), w):
            if rank(H.submatrix(row_idx, cols)) < w:
                return w
    raise VerificationError("unreachable: rows+1 columns are always dependent")


def hull_dimension(G: MatGF, H: MatGF) -> int:
    """dim of the code/dual intersection: n - rank of the stacked matrices."""
    n = G.cols
    if H.cols != n:
        raise ValidationError("generator and parity check must share the length n")
    if rank(G) != G.rows:
        raise ValidationError("generator matrix must have full row rank k")
    if rank(H) != H.rows:
        raise ValidationError("parity-check matrix must have full row rank n-k")
    if G.rows + H.rows != n:
        raise ValidationError("row counts must satisfy k + (n-k) = n")
    if not (G @ H.transpose()).is_zero():
        raise ValidationError("parity check does not annihilate the generator")
    return n - rank(G.stack(H))


@dataclass
class CodeReport:
    """Classification verdicts with reproducible certificates."""

    n: int
    k: int
    is_mds: bool
    is_amds: bool
    is_lcd: bool
    hull_dim: int
    min_distance: Optional[int] = None
    certificates: dict = dc_field(default_factory=dict)
    notes: list[str] = dc_field(default_factory=list)

    def params_string(self) -> str:
        if self.min_distance is not None:
            return f"[{self.n},{self.k},{self.min_distance}]"
        return f"[{self.n},{self.k}]"


def _subset_json(subset) -> Optional[list[int]]:
    if subset is None:
        return None
    return [i + 1 for i in subset]  # serialized certificates are 1-based


def report_to_json(report: CodeReport) -> dict:
    certs = {}
    for key, val in report.certificates.items():
        if isinstance(val, tuple) and all(isinstance(x, int) for x in val):
            certs[key] = _subset_json(val)
        elif isinstance(val, FieldElement):
            certs[key] = element_to_json(val)
        else:
            certs[key] = val
    return {
        "n": report.n,
        "k": report.k,
        "params": report.params_string(),
        "is_mds": report.is_mds,
        "is_amds": report.is_amds,
        "is_lcd": report.is_lcd,
        "hull_dim": report.hull_dim,
        "min_distance": report.min_distance,
        "certificates": certs,
        "notes": list(report.notes),
    }


def report_from_json(obj: dict) -> CodeReport:
    return CodeReport(
        n=obj["n"], k=obj["k"], is_mds=obj["is_mds"], is_amds=obj["is_amds"],
        is_lcd=obj["is_lcd"], hull_dim=obj["hull_dim"],
        min_distance=obj.get("min_distance"),
        certificates=dict(obj.get("certificates", {})),
        notes=list(obj.get("notes", [])),
    )


def classify(spec: TgrsSpec, want_distance: bool = False,
             distance_cap: int = DEFAULT_DISTANCE_CAP) -> CodeReport:
    """Full classification of one code spec.

    Distance search runs only when requested and n fits under the cap; when
    it runs, the MDS/AMDS verdicts are cross-checked against it.
    """
    G = generator_matrix(spec)
    H = parity_check_matrix(spec)
    mds, mds_cert = is_mds_phi(spec)
    certificates: dict = {}
    if mds_cert is not None:
        certificates["mds_violating_subset"] = mds_cert
    if mds:
        amds, amds_cert = False, {"reason": "code is MDS"}
    else:
        amds, amds_cert = is_amds(spec)
    if amds_cert.get("dependent_subset") is not None:
        certificates["amds_dependent_subset"] = amds_cert["dependent_subset"]
    if amds_cert.get("deficient_superset") is not None:
        certificates["amds_deficient_superset"] = amds_cert["deficient_superset"]
    hull = hull_dimension(G, H)
    report = CodeReport(
        n=spec.n, k=spec.k, is_mds=mds, is_amds=amds,
        is_lcd=(hull == 0), hull_dim=hull, certificates=certificates,
    )
    if spec.hook_is_boundary():
        report.notes.append("hook at the upper boundary h = k-1")
    if want_distance and spec.n <= distance_cap:
        d = min_distance(H, cap_n=distance_cap)
        report.min_distance = d
        singleton = spec.n - spec.k + 1
        if d > singleton:
            raise VerificationError(f"distance {d} violates the Singleton bound {singleton}")
        if mds != (d == singleton) or amds != (d == singleton - 1):
            raise VerificationError(
                f"classification inconsistency: d={d}, mds={mds}, amds={amds}")
    return report
