"""Embedded reference codes: four published example instances of the two
LCD recipes, every entry exactly as printed.  The spec and recipe constructors
normalize the signed entries of v; the generator is normalized when compared.

These drive the `paper-examples` command and the golden regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .codes import TgrsSpec
from .gf import Field
from .lcdgen import Class1Params, Class2Params


@dataclass(frozen=True)
class GoldenCode:
    name: str
    klass: int  # which recipe produced it
    q: int
    n: int
    k: int
    h: int
    l: int
    m_gap: Optional[int]
    lam: int
    alpha: tuple[int, ...]
    v: tuple[int, ...]  # signed, as printed
    eta: tuple[int, ...]
    expected_generator: tuple[tuple[int, ...], ...]  # signed, as printed
    expected_r: int
    expect_mds: bool
    expected_distance: Optional[int]

    def field(self) -> Field:
        return Field(self.q)

    def spec(self) -> TgrsSpec:
        return TgrsSpec(field=self.field(), n=self.n, k=self.k, l=self.l, h=self.h,
                        alpha=self.alpha, v=self.v, eta=self.eta)

    def params(self):
        common = dict(field=self.field(), n=self.n, h=self.h, l=self.l, lam=self.lam,
                      eta=self.eta, alpha=self.alpha, v_head=self.v[: self.k - 1],
                      v_tail_signs=self.v[self.k - 1:])
        if self.klass == 1:
            return Class1Params(k=self.k, **common)
        return Class2Params(m_gap=self.m_gap, k=self.k, **common)

    def normalized_generator(self) -> list[list[int]]:
        return [[x % self.q for x in row] for row in self.expected_generator]


GOLDEN_CODES: tuple[GoldenCode, ...] = (
    GoldenCode(
        name="[15,4] recipe-1 code over GF(31)",
        klass=1, q=31, n=15, k=4, h=1, l=3, m_gap=None, lam=1,
        alpha=(2, 20, 25, 1, 4, 5, 7, 8, 9, 10, 14, 16, 18, 19, 28),
        v=(18, 23, 5, 1, 1, 1, -1, 1, -1, -1, 1, -1, 1, -1, 1),
        eta=(5, 21, 12, 14),
        expected_generator=(
            (18, 23, 5, 1, 1, 1, -1, 1, -1, -1, 1, -1, 1, -1, 1),
            (8, 10, 16, 22, 27, 17, -2, 18, -2, 1, 20, 21, 12, 17, 27),
            (10, 24, 25, 1, 16, 25, 13, 2, 12, 24, 10, 23, 14, 11, 9),
            (20, 15, 5, 1, 2, 1, -2, 16, 15, 23, 16, 27, 4, 23, 4),
        ),
        expected_r=14, expect_mds=False, expected_distance=None,
    ),
    GoldenCode(
        name="[9,3,7] recipe-1 code over GF(37)",
        klass=1, q=37, n=9, k=3, h=1, l=1, m_gap=None, lam=1,
        alpha=(1, 16, 26, 12, 33, 10, 34, 7, 9),
        v=(21, 30, 1, 1, -1, 1, 1, 1, -1),
        eta=(22, 24),
        expected_generator=(
            (21, 30, 1, 1, -1, 1, 1, 1, -1),
            (25, 33, 6, 6, 4, 13, 15, 20, 19),
            (21, 21, 10, 33, 21, 26, 9, 12, 30),
        ),
        expected_r=3, expect_mds=True, expected_distance=7,
    ),
    GoldenCode(
        name="[15,6] recipe-2 code over GF(31)",
        klass=2, q=31, n=15, k=6, h=1, l=3, m_gap=0, lam=1,
        alpha=(1, 5, 8, 25, 28, 2, 4, 7, 9, 10, 14, 16, 18, 19, 20),
        v=(25, 21, 22, 23, 6, 1, 1, 1, 1, -1, 1, -1, 1, -1, 1),
        eta=(3, 21, 22, 1),
        expected_generator=(
            (25, 21, 22, 23, 6, 1, 1, 1, 1, -1, 1, -1, 1, -1, 1),
            (22, 25, 5, 20, 5, 5, 1, -2, 26, 15, 0, 19, 8, 17, -1),
            (25, -2, 13, 22, 23, 4, 16, 18, 19, 24, 10, 23, 14, 11, 28),
            (25, 21, 11, 23, 24, 8, 2, 2, 16, 23, 16, 27, 4, 23, 2),
            (25, 12, 26, 17, 21, 16, 8, 14, 20, 13, 7, -2, 10, 3, 9),
            (25, -2, 22, 22, -1, 1, 1, 5, 25, 6, 5, -1, 25, 26, 25),
        ),
        expected_r=15, expect_mds=False, expected_distance=None,
    ),
    GoldenCode(
        name="[10,3,8] recipe-2 code over GF(31)",
        klass=2, q=31, n=10, k=3, h=1, l=2, m_gap=2, lam=1,
        alpha=(30, 2, 29, 27, 1, 8, 16, 4, 23, 15),
        v=(22, 15, -1, 1, 1, 1, 1, -1, -1, -1),
        eta=(28, 6, 0),
        expected_generator=(
            (22, 15, -1, 1, 1, 1, 1, -1, -1, -1),
            (21, 25, 6, 19, 4, 15, 16, 16, 29, 23),
            (22, 29, 27, 16, 1, 2, 8, 15, 29, 23),
        ),
        expected_r=7, expect_mds=True, expected_distance=8,
    ),
)
