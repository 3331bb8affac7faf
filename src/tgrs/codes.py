"""Construction of twisted generalized Reed-Solomon codes.

A TgrsSpec pins down the single-hook code family: length n, dimension k,
twist exponents k+0..k+l fed by hook coefficient h, evaluation points alpha,
column multipliers v, and twist vector eta.  From it we build the generator
matrix, the closed-form parity-check matrix, and the evaluation encoder.
Both matrices read what the points fix (power rows, dual coefficients, hook
weights, series) from one SymContext of spec.alpha, passed in or built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ValidationError
from .gf import (Field, FieldElement, check_int_fields, element_to_json, field_from_json,
                 field_to_json)
from .linalg import MatGF
from .symm import SymContext, distinct_points


def check_shape(n: int, k: int, l: int, h: int) -> None:
    """The shape rule of the family: exact ints, then 2 <= k <= n,
    0 <= l <= n-k-1 and 1 <= h <= k-1, checked in that order."""
    check_int_fields({"n": n, "k": k, "l": l, "h": h}, ("n", "k", "l", "h"))
    if not 2 <= k <= n:
        raise ValidationError(f"need 2 <= k <= n, got k={k}, n={n}")
    if not 0 <= l <= n - k - 1:
        raise ValidationError(
            f"twist degree bound violated: need 0 <= l <= n-k-1 = {n - k - 1}, got l={l}")
    if not 1 <= h <= k - 1:
        raise ValidationError(f"hook must satisfy 1 <= h <= k-1 = {k - 1}, got h={h}")


@dataclass(frozen=True)
class TgrsSpec:
    """Parameters of a single-hook twisted GRS code.

    Constraints: n, k, l and h by ``check_shape``, alpha pairwise distinct,
    v nonzero, eta of length l+1.
    The hook h = 0 is excluded from this family.
    """

    field: Field
    n: int
    k: int
    l: int
    h: int
    alpha: tuple[FieldElement, ...]
    v: tuple[FieldElement, ...]
    eta: tuple[FieldElement, ...]

    def __post_init__(self):
        n, k, l, h = self.n, self.k, self.l, self.h
        check_shape(n, k, l, h)
        f = self.field
        object.__setattr__(self, "alpha", tuple(f.element(a) for a in self.alpha))
        object.__setattr__(self, "v", tuple(f.element(x) for x in self.v))
        object.__setattr__(self, "eta", tuple(f.element(e) for e in self.eta))
        if n > f.q:
            raise ValidationError(f"cannot place {n} distinct points in GF({f.q})")
        if len(self.alpha) != n:
            raise ValidationError(f"alpha must have length n={n}")
        distinct_points(self.alpha)
        if len(self.v) != n:
            raise ValidationError(f"v must have length n={n}")
        for i, x in enumerate(self.v):
            if x.is_zero():
                raise ValidationError(f"column multiplier v[{i}] must be nonzero")
        if len(self.eta) != l + 1:
            raise ValidationError(f"eta must have length l+1 = {l + 1}")

    def hook_is_boundary(self) -> bool:
        """True when the hook sits at its upper bound h = k-1."""
        return self.h == self.k - 1


def _context_for(spec: TgrsSpec, context: Optional[SymContext]) -> SymContext:
    """``context`` when it was built on spec.alpha, in that order (else
    ValidationError), or a fresh SymContext of the points when None."""
    if context is None:
        context = SymContext(spec.alpha)
    elif context.points != spec.alpha:
        raise ValidationError("point-set context was built for other points")
    return context


def generator_matrix(spec: TgrsSpec, context: Optional[SymContext] = None) -> MatGF:
    """k x n generator: monomial rows by ascending degree, twisted at row h.

    The rows alpha_i^j, j <= k + l, are the power rows of ``context``, a
    SymContext of spec.alpha as for ``parity_check_matrix``.
    """
    f, k = spec.field, spec.k
    powers = _context_for(spec, context)._power_rows(k + spec.l + 1)
    eta = [e.rep for e in spec.eta]
    rows = powers[:k]
    # row h gains sum_t eta_t alpha^(k+t), one dot per column
    rows[spec.h] = tuple(map(f._add, rows[spec.h],
                             (f._dot(eta, col) for col in zip(*powers[k:]))))
    v = [x.rep for x in spec.v]
    return MatGF._from_reps(f, tuple(tuple(map(f._mul, v, row)) for row in rows))


def parity_check_matrix(spec: TgrsSpec, context: Optional[SymContext] = None) -> MatGF:
    """Closed-form (n-k) x n parity-check matrix.

    Row j carries (u_i / v_i) alpha_i^j; the last l+1 rows are corrected by
    w_tilde_i Psi_{n-k-1-j} so that every generator row is annihilated.
    u, w_tilde, Psi and the powers are reps read, through the code its
    public getters wrap, from ``context``: a SymContext of spec.alpha, in
    that order (else ValidationError), or one built here when None.
    """
    f, n, k, l = spec.field, spec.n, spec.k, spec.l
    context = _context_for(spec, context)
    wt = context._hook_reps(spec.h)
    psi = context._psi_reps([e.rep for e in spec.eta])
    scale = [f._mul(u, f._inv(v.rep)) for u, v in zip(context._quotients[1], spec.v)]
    rows = []
    for j, row in enumerate(context._power_rows(n - k)):
        if j >= n - k - l - 1:
            c = psi[n - k - 1 - j]
            row = [f._sub(x, f._mul(w, c)) for x, w in zip(row, wt)]
        rows.append(tuple(map(f._mul, scale, row)))
    return MatGF._from_reps(f, tuple(rows))


def encode(spec: TgrsSpec, message: Sequence) -> tuple[FieldElement, ...]:
    """Evaluation encoding of a length-k message; equals message @ generator.

    One Horner pass per point over the k + l + 1 coefficients of
    f(x) = sum_i m_i x^i + m_h sum_t eta_t x^(k+t), scaled by v; the
    generator matrix is never built.
    """
    f = spec.field
    msg = [f.element(x).rep for x in message]
    if len(msg) != spec.k:
        raise ValidationError(f"message must have length k={spec.k}")
    add, mul = f._add, f._mul
    coeffs = msg + [mul(msg[spec.h], e.rep) for e in spec.eta]
    coeffs.reverse()
    out = []
    for a, vi in zip(spec.alpha, spec.v):
        a, acc = a.rep, 0
        for c in coeffs:
            acc = add(mul(acc, a), c)
        out.append(FieldElement(f, mul(vi.rep, acc)))
    return tuple(out)


# -- JSON wire format ----------------------------------------------------------

def tgrs_spec_to_json(spec: TgrsSpec) -> dict:
    return {
        "field": field_to_json(spec.field),
        "n": spec.n,
        "k": spec.k,
        "l": spec.l,
        "h": spec.h,
        "alpha": [element_to_json(a) for a in spec.alpha],
        "v": [element_to_json(x) for x in spec.v],
        "eta": [element_to_json(e) for e in spec.eta],
    }


def element_list(field: Field, obj: dict, name: str) -> tuple[FieldElement, ...]:
    """The elements of the present field ``name``, which must be a JSON list."""
    value = obj[name]
    if not isinstance(value, list):
        raise ValidationError(f"field '{name}' must be a list, got {value!r}")
    return tuple(field.element(x) for x in value)


def tgrs_spec_from_json(obj) -> TgrsSpec:
    if not isinstance(obj, dict):
        raise ValidationError("code spec must be a JSON object")
    missing = [key for key in ("field", "n", "k", "l", "h", "alpha", "v", "eta")
               if key not in obj]
    if missing:
        raise ValidationError(f"code spec missing fields: {', '.join(missing)}")
    f = field_from_json(obj["field"])
    return TgrsSpec(
        field=f, n=obj["n"], k=obj["k"], l=obj["l"], h=obj["h"],
        alpha=element_list(f, obj, "alpha"), v=element_list(f, obj, "v"),
        eta=element_list(f, obj, "eta"),
    )
