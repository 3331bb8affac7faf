"""Exact arithmetic in GF(p^m).

Elements of a prime field GF(p) are stored as integers in [0, p); elements
of an extension field GF(p^m) as length-m coefficient tuples over GF(p),
low degree first, reduced modulo a user-supplied irreducible polynomial.
Everything is immutable and safe to share.

Beyond the ring operations the module provides element enumeration,
multiplicative order, and extraction of all n-th roots of a given lambda
(the point sets used by the cyclic LCD constructions).
"""

from __future__ import annotations

import math
import operator
from typing import Iterator, Optional, Sequence

from .errors import ValidationError

WORD_BUDGET = 2**31  # q below this keeps products inside 64-bit integers


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2^31 field cap."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for n < 2^31."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# -- helpers on raw GF(p) coefficient lists (used for the modulus and m>1 reps)

def _gfp_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    num = num[:]
    dd = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p)
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            f = c * lead_inv % p
            quot[i - dd] = f
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - f * den[j]) % p
    rem = [c % p for c in num[:dd]]
    return quot, rem


def _gfp_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _validate_modulus(p: int, m: int, modulus: Sequence[int]) -> tuple[int, ...]:
    mod = [c % p for c in modulus]
    if len(mod) != m + 1 or mod[-1] != 1:
        raise ValidationError(f"modulus must be monic of degree {m} over GF({p})")
    # linear factors: exhaustive root check
    for x in range(p):
        acc = 0
        for c in reversed(mod):
            acc = (acc * x + c) % p
        if acc == 0:
            raise ValidationError(f"modulus is reducible: root {x} in GF({p})")
    # higher factors: trial division by every monic polynomial of degree <= m//2
    # (at most p^(m//2) <= sqrt(q) candidates, always affordable under the cap)
    for d in range(2, m // 2 + 1):
        for idx in range(p**d):
            cand = []
            t = idx
            for _ in range(d):
                cand.append(t % p)
                t //= p
            cand.append(1)
            _, rem = _gfp_divmod(mod[:], cand, p)
            if not _gfp_trim(rem):
                raise ValidationError(
                    f"modulus is reducible: degree-{d} factor found by trial division")
    return tuple(mod)


def _is_int(x) -> bool:
    return type(x) is int  # bool is an int subclass and never a field value


class Field:
    """The finite field GF(p^m), acting as element factory and spec.

    For m = 1 pass only the prime p.  For m > 1 a monic irreducible
    ``modulus`` of degree m over GF(p) is required (coefficients low degree
    first); irreducibility is verified at construction.
    """

    def __init__(self, p: int, m: int = 1, modulus: Optional[Sequence[int]] = None):
        if not _is_int(p) or not is_prime(p):
            raise ValidationError(f"characteristic {p!r} is not prime")
        if not _is_int(m) or m < 1:
            raise ValidationError(f"extension degree must be >= 1, got {m!r}")
        q = p**m
        if q >= WORD_BUDGET:
            raise ValidationError(f"field size {q} exceeds the 2^31 word budget")
        if m == 1:
            if modulus is not None:
                raise ValidationError("modulus must be absent for a prime field")
            self.modulus: Optional[tuple[int, ...]] = None
        else:
            if modulus is None:
                raise ValidationError(f"GF({p}^{m}) requires an irreducible modulus")
            if not isinstance(modulus, (list, tuple)) or not all(_is_int(c) for c in modulus):
                raise ValidationError(f"modulus must be a list of ints, got {modulus!r}")
            self.modulus = _validate_modulus(p, m, modulus)
        self.p = p
        self.m = m
        self.q = q
        self._fact_qm1: Optional[dict[int, int]] = None
        self._generator: Optional[FieldElement] = None
        if m > 1:
            # reduction table: x^(m+i) mod modulus for i = 0..m-2
            red = [tuple((-c) % p for c in self.modulus[:m])]
            for _ in range(m - 2):
                prev = red[-1]
                shifted = [0] + list(prev[: m - 1])
                carry = prev[m - 1]
                red.append(tuple((shifted[j] + carry * red[0][j]) % p for j in range(m)))
            self._xpow = red

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"Field({self.p})"
        return f"Field({self.p}, {self.m}, modulus={list(self.modulus)})"

    # -- element construction ------------------------------------------------

    def element(self, value) -> FieldElement:
        """Canonicalize an int (any field) or coefficient list or tuple (m > 1).

        Only true ints are accepted, as the value and as coefficients: bools,
        floats and strings are rejected rather than truncated or parsed.
        """
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValidationError("element belongs to a different field")
            return value
        if type(value) is int:  # _is_int, inlined on the hot path
            if self.m == 1:
                return FieldElement(self, value % self.p)
            # ints embed via the prime subfield
            return FieldElement(self, (value % self.p,) + (0,) * (self.m - 1))
        if self.m == 1 or not isinstance(value, (list, tuple)):
            kind = "an int" if self.m == 1 else "an int or a coefficient list"
            raise ValidationError(f"GF({self.q}) element must be {kind}, got {value!r}")
        if not all(_is_int(c) for c in value):
            raise ValidationError(f"GF({self.q}) coefficients must be ints, got {value!r}")
        if len(value) > self.m:
            raise ValidationError(f"coefficient vector longer than degree {self.m}")
        coeffs = [c % self.p for c in value] + [0] * (self.m - len(value))
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> FieldElement:
        return self.element(0)

    def one(self) -> FieldElement:
        return self.element(1)

    def from_index(self, i: int) -> FieldElement:
        """The i-th element in canonical order, 0 <= i < q."""
        if not 0 <= i < self.q:
            raise ValidationError(f"index {i} out of range for field of size {self.q}")
        if self.m == 1:
            return FieldElement(self, i)
        digits = []
        for _ in range(self.m):
            digits.append(i % self.p)
            i //= self.p
        return FieldElement(self, tuple(digits))

    def elements(self) -> Iterator[FieldElement]:
        """All q elements in canonical ascending order."""
        for i in range(self.q):
            yield self.from_index(i)

    def nonzero_elements(self) -> Iterator[FieldElement]:
        for i in range(1, self.q):
            yield self.from_index(i)

    # -- raw rep arithmetic ----------------------------------------------------

    def _add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def _neg(self, a):
        if self.m == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def _mul(self, a, b):
        if self.m == 1:
            return a * b % self.p
        m, p = self.m, self.p
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        out = prod[:m]
        for i in range(m, 2 * m - 1):
            c = prod[i]
            if c:
                row = self._xpow[i - m]
                for j in range(m):
                    out[j] = (out[j] + c * row[j]) % p
        return tuple(out)

    def _dot(self, xs, ys):
        """The rep of sum x_i y_i over the pairs of zip(xs, ys); zero when empty."""
        if self.m == 1:
            return sum(map(operator.mul, xs, ys)) % self.p
        add, mul = self._add, self._mul
        acc = (0,) * self.m
        for x, y in zip(xs, ys):
            acc = add(acc, mul(x, y))
        return acc

    def _eliminate(self, dst, src, c, pinv):
        """Clear dst[c] in place: dst[c:] -= f * src[c:] with f = dst[c] * pinv.

        ``pinv`` is the inverse of the pivot src[c]; the row operation of
        Gaussian elimination, on rep lists whose entries before c are zero.
        """
        if self.m == 1:
            p = self.p
            f = dst[c] * pinv % p
            for j in range(c, len(dst)):
                dst[j] = (dst[j] - f * src[j]) % p
            return
        mul, sub = self._mul, self._sub
        f = mul(dst[c], pinv)
        for j in range(c, len(dst)):
            dst[j] = sub(dst[j], mul(f, src[j]))

    def _inv(self, a):
        if self.m == 1:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.p - 2, self.p)  # Fermat
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid over GF(p)[x]; gcd(modulus, a) is a nonzero constant
        # because the modulus is irreducible and deg(a) < m
        p = self.p

        def sub_scaled(u: list[int], q: list[int], v: list[int]) -> list[int]:
            prod = [0] * (len(q) + len(v) - 1) if q and v else []
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(v):
                        prod[i + j] = (prod[i + j] + x * y) % p
            length = max(len(u), len(prod))
            out = [((u[i] if i < len(u) else 0) - (prod[i] if i < len(prod) else 0)) % p
                   for i in range(length)]
            return _gfp_trim(out)

        r0, r1 = list(self.modulus), _gfp_trim(list(a))
        s0, s1 = [], [1]
        while len(r1) > 1:
            q, r = _gfp_divmod(r0, r1, p)
            r0, r1 = r1, _gfp_trim(r)
            s0, s1 = s1, sub_scaled(s0, q, s1)
        c_inv = pow(r1[0], p - 2, p)
        out = [c * c_inv % p for c in s1]
        out += [0] * (self.m - len(out))
        return tuple(out[: self.m])

    # -- group structure -------------------------------------------------------

    def _unit_group_factorization(self) -> dict[int, int]:
        if self._fact_qm1 is None:
            self._fact_qm1 = factorize(self.q - 1)
        return self._fact_qm1

    def multiplicative_generator(self) -> FieldElement:
        """A fixed primitive element (first in canonical order)."""
        if self._generator is None:
            fact = self._unit_group_factorization()
            one = self.one()
            for g in self.nonzero_elements():
                if all(g ** ((self.q - 1) // f) != one for f in fact):
                    self._generator = g
                    break
            else:  # pragma: no cover - the unit group is always cyclic
                raise RuntimeError("no primitive element found")
        return self._generator

    def _discrete_log(self, target: FieldElement) -> int:
        """Baby-step giant-step index of target w.r.t. the fixed generator."""
        g = self.multiplicative_generator()
        order = self.q - 1
        step = math.isqrt(order) + 1
        baby: dict[FieldElement, int] = {}
        cur = self.one()
        for r in range(step):
            baby.setdefault(cur, r)
            cur = cur * g
        giant = (g ** step).inverse()
        cur = target
        for s in range(step + 1):
            if cur in baby:
                return (s * step + baby[cur]) % order
            cur = cur * giant
        raise ZeroDivisionError("discrete log of zero")  # pragma: no cover

    def roots_of_xn_minus_lambda(self, n: int, lam: FieldElement) -> list[FieldElement]:
        """All n distinct roots of x^n - lambda, canonical ascending order.

        Requires n | q-1 and ord(lambda) | (q-1)/n, which together guarantee
        the full set of n roots lives in this field.
        """
        if not _is_int(n) or n < 1:
            raise ValidationError(f"root count n must be a positive integer, got {n!r}")
        lam = self.element(lam)
        if (self.q - 1) % n != 0:
            raise ValidationError(f"n = {n} does not divide q - 1 = {self.q - 1}")
        if lam.is_zero():
            raise ValidationError("lambda must be nonzero")
        d = lam.order()
        if ((self.q - 1) // n) % d != 0:
            raise ValidationError(
                f"ord(lambda) = {d} does not divide (q-1)/n = {(self.q - 1) // n}")
        g = self.multiplicative_generator()
        j = self._discrete_log(lam)
        # the divisibility conditions force n | j
        base = g ** (j // n)
        zeta = g ** ((self.q - 1) // n)
        roots = []
        cur = base
        for _ in range(n):
            roots.append(cur)
            cur = cur * zeta
        roots.sort(key=lambda e: e.index())
        return roots


class FieldElement:
    """Immutable element of a Field, equal iff the canonical reps match."""

    __slots__ = ("field", "rep")

    def __init__(self, field: Field, rep):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        return (FieldElement, (self.field, self.rep))

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValidationError("elements belong to different fields")
            return other
        if _is_int(other):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.rep, other.rep))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(self.rep, other.rep))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(other.rep, self.rep))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.rep))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.rep, other.rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        if self.field.m == 1:
            return FieldElement(self.field, pow(self.rep, e, self.field.p))
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.rep == other.rep
        if _is_int(other):
            return self == self.field.element(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.m, self.rep))

    def __repr__(self) -> str:
        return f"FieldElement({self.rep!r} in GF({self.field.q}))"

    def is_zero(self) -> bool:
        return self.rep == 0 if self.field.m == 1 else not any(self.rep)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; Fermat for m = 1, extended Euclid above."""
        return FieldElement(self.field, self.field._inv(self.rep))

    def index(self) -> int:
        """Position in the canonical enumeration (also the sort key)."""
        if self.field.m == 1:
            return self.rep
        return sum(c * self.field.p**i for i, c in enumerate(self.rep))

    def order(self) -> int:
        """Least t >= 1 with self^t = 1; always divides q - 1."""
        if self.is_zero():
            raise ValidationError("zero has no multiplicative order")
        t = self.field.q - 1
        one = self.field.one()
        for f in self.field._unit_group_factorization():
            while t % f == 0 and self ** (t // f) == one:
                t //= f
        return t


# -- JSON wire format ----------------------------------------------------------

def field_to_json(field: Field) -> dict:
    out: dict = {"p": field.p, "m": field.m}
    if field.modulus is not None:
        out["modulus"] = list(field.modulus)
    return out


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "p" not in obj:
        raise ValidationError("field description must be an object with 'p'")
    return Field(obj["p"], obj.get("m", 1), obj.get("modulus"))


def rep_to_json(field: Field, rep):
    """A rep as JSON: the int itself for GF(p), a coefficient list for GF(p^m)."""
    return rep if field.m == 1 else list(rep)


def element_to_json(e: FieldElement):
    return rep_to_json(e.field, e.rep)


def element_from_json(field: Field, v) -> FieldElement:
    return field.element(v)
