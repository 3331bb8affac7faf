"""Shared helpers: reusable fields, a randomized code-spec generator, and the
polynomial and matrix oracles that several test modules check against."""

import math
import random

import pytest

from tgrs import Field, MatGF, TgrsSpec, rank

_FIELDS: dict[tuple, Field] = {}


def get_field(p, m=1, modulus=None):
    key = (p, m, tuple(modulus) if modulus else None)
    if key not in _FIELDS:
        _FIELDS[key] = Field(p, m, modulus)
    return _FIELDS[key]


@pytest.fixture
def gf7():
    return get_field(7)


@pytest.fixture
def gf31():
    return get_field(31)


@pytest.fixture
def gf37():
    return get_field(37)


# (p, m, modulus low degree first) of GF(8), GF(9), GF(16) and GF(25):
# x^3+x+1, x^2+1, x^4+x+1 and x^2+2.
GF8 = (2, 3, (1, 1, 0, 1))
GF9 = (3, 2, (1, 0, 1))
GF16 = (2, 4, (1, 1, 0, 0, 1))
GF25 = (5, 2, (2, 0, 1))
EXTENSION_FIELDS = (GF8, GF9, GF16, GF25)
RANDOM_SPEC_TRIES = 1000


def random_spec(rng: random.Random, qs=(7, 31, 37) + EXTENSION_FIELDS, n_min=3, n_max=14,
                comb_cap=None) -> TgrsSpec:
    """A uniformly messy but valid single-hook spec for property tests.

    ``qs`` holds primes and (p, m, modulus) triples for extension fields.
    """
    for _ in range(RANDOM_SPEC_TRIES):
        q = rng.choice(qs)
        f = get_field(q) if isinstance(q, int) else get_field(*q)
        hi = min(n_max, f.q)
        if hi < n_min:
            continue
        n = rng.randint(n_min, hi)
        if n < 3:
            continue
        k = rng.randint(2, n - 1)
        if comb_cap is not None and math.comb(n, k) > comb_cap:
            continue
        l = rng.randint(0, n - k - 1)
        h = rng.randint(1, k - 1)
        alpha = [f.from_index(a) for a in rng.sample(range(f.q), n)]
        v = [f.from_index(rng.randint(1, f.q - 1)) for _ in range(n)]
        eta = [f.from_index(rng.randint(0, f.q - 1)) for _ in range(l + 1)]
        return TgrsSpec(field=f, n=n, k=k, l=l, h=h,
                        alpha=tuple(alpha), v=tuple(v), eta=tuple(eta))
    raise RuntimeError(f"no spec drawn within {RANDOM_SPEC_TRIES} tries")


def linear_product(f: Field, roots) -> list:
    """Oracle: prod (x - r) as elements, low degree first, one factor at a time."""
    out = [f.one()]
    for r in roots:
        out = [a - r * b for a, b in zip([f.zero()] + out, out + [f.zero()])]
    return out


def poly_mod(num, den) -> list:
    """Oracle: the remainder of num by the monic den by long division.

    Both are element lists, low degree first; the remainder has len(den) - 1
    entries, zero-padded.
    """
    d = len(den) - 1
    rem = list(num) + [den[0].field.zero()] * max(0, d - len(num))
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        for j, dc in enumerate(den):
            rem[i - d + j] = rem[i - d + j] - c * dc
    return rem[:d]


def vandermonde(points, nrows: int) -> MatGF:
    """Oracle: row j holds the j-th powers of the points, by element powers."""
    return MatGF(points[0].field, [[a**j for a in points] for j in range(nrows)])


def identity(f: Field, n: int) -> MatGF:
    return MatGF(f, [[int(i == j) for j in range(n)] for i in range(n)])


def column(f: Field, xs) -> MatGF:
    """The entries as an n x 1 matrix, for checking a system by product."""
    return MatGF(f, [[x] for x in xs])


def same_row_space(A: MatGF, B: MatGF) -> bool:
    """Oracle: rank(A) = rank(B) = rank(A stacked on B)."""
    return rank(A) == rank(B) == rank(A.stack(B))
