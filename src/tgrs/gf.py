"""Exact arithmetic in GF(p^m).

Every element is stored as an integer code in [0, q), its position in the
canonical order.  For a prime field GF(p) that is the residue itself.  For an
extension field GF(p^m) it is the base-p number whose digits, least
significant first, are the coefficients of the element's polynomial modulo a
user-supplied irreducible polynomial; the field keeps exp, log and Zech
logarithm tables of its first primitive element (K. Huber, "Some comments on
Zech's logarithms", IEEE Trans. Inf. Theory 36(4), 1990), so that addition,
negation, multiplication and inversion are table lookups.  The search for
that element also proves the polynomial irreducible: GF(p)[x]/(f) is a field
exactly when some element has order q - 1 (Lidl and Niederreiter, "Finite
Fields", ch. 2), so a modulus without one is refused.  In every field the
rep of zero is 0 and the rep of one is 1, and the rest of the package writes
them as those literals.  Everything is immutable and safe to share.

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
TABLE_BUDGET = 2**16  # largest GF(p^m), m > 1: its exp/log/Zech tables are built whole


def is_prime(n: int) -> bool:
    """Primality by trial division; fine for n < 2^31."""
    return n >= 2 and factorize(n) == {n: 1}


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


def _is_int(x) -> bool:
    return type(x) is int  # bool is an int subclass and never a field value


def check_int_fields(obj: dict, names: Sequence[str], optional: Sequence[str] = ()) -> None:
    """Every named field present must be an exact int (no bool, no float).

    ``obj`` is a JSON object or a call's own arguments.  A missing field
    is left to the reader's own message; an ``optional`` field may also be
    null, which reads as absent.
    """
    for name in (*names, *optional):
        if name in obj and not _is_int(obj[name]):
            if obj[name] is None and name in optional:
                continue
            raise ValidationError(f"field '{name}' must be an integer, got {obj[name]!r}")


class Field:
    """The finite field GF(p^m), acting as element factory and spec.

    For m = 1 pass only the prime p.  For m > 1 a monic irreducible
    ``modulus`` of degree m over GF(p) is required (coefficients low degree
    first), and q = p^m may be at most 2^16.  The table build verifies
    irreducibility: its primitive-element search must find an order q - 1.
    """

    def __init__(self, p: int, m: int = 1, modulus: Optional[Sequence[int]] = None):
        if not _is_int(p):
            raise ValidationError(f"characteristic {p!r} is not prime")
        if not _is_int(m) or m < 1:
            raise ValidationError(f"extension degree must be >= 1, got {m!r}")
        # p >= 2 and m >= 31 is over budget: decided without raising p to a huge m
        if p >= 2 and (m >= 31 or p**m >= WORD_BUDGET):
            raise ValidationError(f"field size {p}^{m} exceeds the 2^31 word budget")
        if not is_prime(p):
            raise ValidationError(f"characteristic {p!r} is not prime")
        q = p**m
        if m > 1 and q > TABLE_BUDGET:
            raise ValidationError(
                f"extension field size {q} exceeds the 2^16 bound of its log tables")
        if m == 1:
            if modulus is not None:
                raise ValidationError("modulus must be absent for a prime field")
            self.modulus: Optional[tuple[int, ...]] = None
        else:
            if modulus is None:
                raise ValidationError(f"GF({p}^{m}) requires an irreducible modulus")
            if not isinstance(modulus, (list, tuple)) or not all(_is_int(c) for c in modulus):
                raise ValidationError(f"modulus must be a list of ints, got {modulus!r}")
            self.modulus = tuple(c % p for c in modulus)
            if len(self.modulus) != m + 1 or self.modulus[-1] != 1:
                raise ValidationError(f"modulus must be monic of degree {m} over GF({p})")
        self.p = p
        self.m = m
        self.q = q
        self._fact_qm1: Optional[dict[int, int]] = None
        self._generator: Optional[FieldElement] = None
        self._orders: dict[int, int] = {}  # rep -> multiplicative order, filled by order()
        if m > 1:
            self._build_tables()

    def _build_tables(self) -> None:
        """Exp, log and Zech tables of the first primitive element in canonical order.

        Elements multiply as coefficient lists in GF(p)[x]/(f), f the modulus.
        The search takes the first candidate g with g^((q-1)/r) != 1 for every
        prime r dividing q - 1, and accepts f when also g^(q-1) = 1.  That is
        exactly when f is irreducible:

        - If g^(q-1) = 1 as well, then ord g = q - 1.  So the q - 1 nonzero
          residues are all powers of g and hence units, and the ring is a field.
        - If f is irreducible, the first g that passes is primitive, so
          g^(q-1) = 1.
        - The search always stops.  A non-unit passes the test, because no
          power of it is 1.  A monic factor of f of degree d <= m/2 is a
          non-unit with a code below p^(d+1), so a reducible f is refused
          within p^(m/2+1) candidates.

        Only the generator is walked through its q - 1 powers.
        ``_exp`` holds g^0 .. g^(q-2) twice, so a sum of two logs indexes it
        without a reduction; ``_zech[j]`` is log(1 + g^j), None where
        g^j = -1; ``_neg_log`` is log(-1).
        """
        p, m, q = self.p, self.m, self.q
        weights = [p**i for i in range(m)]
        red = [(-c) % p for c in self.modulus[:m]]  # x^m = sum red[j] x^j
        one = [1] + [0] * (m - 1)

        def nonzero(digits: list[int]) -> list[tuple[int, int]]:
            return [(i, c) for i, c in enumerate(digits) if c]

        def times(cur: list[int], terms: list[tuple[int, int]]) -> list[int]:  # cur * terms
            if not terms:  # zero: the powers of a zero divisor can vanish
                return [0] * m
            prod = [0] * (m + terms[-1][0])
            for i, c in terms:
                for j, x in enumerate(cur):
                    prod[i + j] += c * x
            for k in range(len(prod) - 1, m - 1, -1):
                t = prod[k] % p
                if t:
                    for j in range(m):
                        prod[k - m + j] += t * red[j]
            return [c % p for c in prod[:m]]

        def power(g: list[tuple[int, int]], e: int) -> list[int]:  # square-and-multiply
            acc = one
            for bit in bin(e)[2:]:
                acc = times(acc, nonzero(acc))
                if bit == "1":
                    acc = times(acc, g)
            return acc

        for code in range(p, q):  # codes below p are GF(p) constants, of order dividing p - 1
            g = nonzero([code // w % p for w in weights])
            if all(power(g, (q - 1) // f) != one for f in self._unit_group_factorization()):
                break
        if power(g, q - 1) != one:
            roots = [r for r in range(p)
                     if not sum(c * r**i for i, c in enumerate(self.modulus)) % p]
            raise ValidationError(f"modulus is reducible: root {roots[0]} in GF({p})" if roots else
                                  f"modulus is reducible: no root in GF({p}), so it has a factor"
                                  f" of degree at most {m // 2}")
        cur, exp = one, [1]
        for _ in range(q - 2):
            cur = times(cur, g)
            exp.append(sum(map(operator.mul, cur, weights)))
        log = [0] * q  # log[0] is never read
        for j, c in enumerate(exp):
            log[c] = j
        # 1 + c adds one to the constant digit, with no carry into the next
        plus_one = [c + 1 if c % p != p - 1 else c + 1 - p for c in exp]
        self._exp = exp + exp
        self._log = log
        self._generator = FieldElement(self, exp[1])
        self._zech = [log[c] if c else None for c in plus_one]
        self._neg_log = 0 if p == 2 else (q - 1) // 2

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Field) and (self.p, self.m, self.modulus)
                                 == (other.p, other.m, other.modulus))

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
        floats and strings are rejected rather than truncated or parsed.  An
        int embeds via the prime subfield, where the code of c is c itself.
        """
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise ValidationError("element belongs to a different field")
            return value
        if type(value) is int:  # _is_int, inlined on the hot path
            return FieldElement(self, value % self.p)
        if self.m == 1 or not isinstance(value, (list, tuple)):
            kind = "an int" if self.m == 1 else "an int or a coefficient list"
            raise ValidationError(f"GF({self.q}) element must be {kind}, got {value!r}")
        if not all(_is_int(c) for c in value):
            raise ValidationError(f"GF({self.q}) coefficients must be ints, got {value!r}")
        if len(value) > self.m:
            raise ValidationError(f"coefficient vector longer than degree {self.m}")
        code = 0
        for c in reversed(value):
            code = code * self.p + c % self.p
        return FieldElement(self, code)

    def zero(self) -> FieldElement:
        return self.element(0)

    def one(self) -> FieldElement:
        return self.element(1)

    def from_index(self, i: int) -> FieldElement:
        """The i-th element in canonical order, for an int 0 <= i < q."""
        if not (_is_int(i) and 0 <= i < self.q):
            raise ValidationError(f"index {i!r} is not an int in 0..{self.q - 1}")
        return FieldElement(self, i)

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
        if not a:
            return b
        if not b:
            return a
        # g^i + g^j = g^i (1 + g^(j-i)); a negative j - i indexes from the end,
        # which is j - i mod q - 1
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def _sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return self._add(a, self._neg(b))

    def _neg(self, a):
        if self.m == 1:
            return (-a) % self.p
        return self._exp[self._log[a] + self._neg_log] if a else 0

    def _mul(self, a, b):
        if self.m == 1:
            return a * b % self.p
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def _dot(self, xs, ys):
        """The rep of sum x_i y_i over the pairs of zip(xs, ys); zero when empty."""
        if self.m == 1:
            return sum(map(operator.mul, xs, ys)) % self.p
        add, mul = self._add, self._mul
        acc = 0
        for x, y in zip(xs, ys):
            acc = add(acc, mul(x, y))
        return acc

    def _dots(self, xs, columns) -> Iterator[int]:
        """The reps ``_dot(xs, ys)`` for ys the entries at each position of the
        equal-length ``columns``, in order: zeros when xs is empty, and the
        columns past len(xs) unread.  Prime fields run it as C-level maps."""
        if self.m == 1:
            terms = [map(x.__mul__, col) for x, col in zip(xs, columns)]
            if not terms:
                return iter([0] * len(columns[0]))
            return map(self.p.__rmod__, map(sum, zip(*terms)))
        dot = self._dot
        return (dot(xs, ys) for ys in zip(*columns))

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
        add, mul = self._add, self._mul
        f = self._neg(mul(dst[c], pinv))
        for j in range(c, len(dst)):
            dst[j] = add(dst[j], mul(f, src[j]))

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)  # Fermat
        return self._exp[self.q - 1 - self._log[a]]

    def _solve(self, a, b) -> Optional[tuple]:
        """The reps x with a = b x: (a / b,) when b != 0; otherwise None, for
        every x, when a = 0 too, and () when a != 0."""
        if b:
            return (self._mul(a, self._inv(b)),)
        return None if a == 0 else ()

    # -- group structure -------------------------------------------------------

    def _unit_group_factorization(self) -> dict[int, int]:
        if self._fact_qm1 is None:
            self._fact_qm1 = factorize(self.q - 1)
        return self._fact_qm1

    def multiplicative_generator(self) -> FieldElement:
        """A fixed primitive element (first in canonical order).

        For m > 1 the table build sets it to the log tables' generator exp[1];
        a prime field takes its first nonzero element of order q - 1.
        """
        if self._generator is None:
            self._generator = next(g for g in self.nonzero_elements() if g.order() == self.q - 1)
        return self._generator

    def _discrete_log(self, target: FieldElement) -> int:
        """Index of target w.r.t. the fixed generator.

        A log-table read for m > 1; baby-step giant-step in a prime field.
        """
        if target.is_zero():
            raise ZeroDivisionError("discrete log of zero")
        if self.m > 1:
            return self._log[target.rep]
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
        raise AssertionError("unreachable: every unit is a power of the generator")  # pragma: no cover

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


def _binary(op):
    """The FieldElement operator op(field, self.rep, other.rep); an int other embeds."""
    def method(self, other):
        f = self.field
        if isinstance(other, FieldElement):
            if other.field != f:
                raise ValidationError("elements belong to different fields")
            b = other.rep
        elif _is_int(other):
            b = f.element(other).rep
        else:
            return NotImplemented
        return FieldElement(f, op(f, self.rep, b))
    return method


class FieldElement:
    """Immutable element of a Field, equal iff the canonical reps match.

    ``rep`` is the element's int code in [0, q), equal to ``index()``; for
    GF(p^m) its base-p digits are the coefficients, read by ``element_to_json``.
    """

    __slots__ = ("field", "rep")

    def __init__(self, field: Field, rep):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        return (FieldElement, (self.field, self.rep))

    __add__ = __radd__ = _binary(Field._add)
    __sub__ = _binary(Field._sub)
    __rsub__ = _binary(lambda f, a, b: f._sub(b, a))
    __mul__ = __rmul__ = _binary(Field._mul)
    __truediv__ = _binary(lambda f, a, b: f._mul(a, f._inv(b)))
    __rtruediv__ = _binary(lambda f, a, b: f._mul(b, f._inv(a)))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.rep))

    def __pow__(self, e: int):
        if not _is_int(e):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        f = self.field
        if f.m == 1:
            return FieldElement(f, pow(self.rep, e, f.p))
        if self.rep == 0:
            return f.one() if e == 0 else f.zero()
        return FieldElement(f, f._exp[f._log[self.rep] * e % (f.q - 1)])

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.rep == other.rep and (self.field is other.field
                                              or self.field == other.field)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.m, self.rep))

    def __repr__(self) -> str:
        return f"FieldElement({element_to_json(self)!r} in GF({self.field.q}))"

    def is_zero(self) -> bool:
        return self.rep == 0

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; Fermat for m = 1, a log-table lookup above."""
        return FieldElement(self.field, self.field._inv(self.rep))

    def index(self) -> int:
        """Position in the canonical enumeration (also the sort key)."""
        return self.rep

    def order(self) -> int:
        """Least t >= 1 with self^t = 1; always divides q - 1.  Kept per field."""
        if self.is_zero():
            raise ValidationError("zero has no multiplicative order")
        orders = self.field._orders
        t = orders.get(self.rep)
        if t is None:
            t = self.field.q - 1
            one = self.field.one()
            for f in self.field._unit_group_factorization():
                while t % f == 0 and self ** (t // f) == one:
                    t //= f
            orders[self.rep] = t
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
    if field.m == 1:
        return rep
    return [rep // field.p**i % field.p for i in range(field.m)]


def element_to_json(e: FieldElement):
    return rep_to_json(e.field, e.rep)
