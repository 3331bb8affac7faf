"""Root products: ``Poly.from_roots`` against its linear factors multiplied
out, and the published remainders modulo such a product."""

import random

from tgrs import Poly

from conftest import get_field, linear_product, poly_mod


def reps(p: Poly) -> list[int]:
    return [c.rep for c in p.coeffs]


class TestDivMod:
    def test_published_remainder_gf31(self, gf31):
        # (1 + 28x^2 + 6x^3) mod (x-30)(x-2) has constant term 7
        num = [gf31.element(c) for c in (1, 0, 28, 6)]
        den = Poly.from_roots(gf31, [gf31.element(30), gf31.element(2)])
        assert poly_mod(num, den.coeffs)[0] == gf31.element(7)

    def test_published_remainder_gf37(self, gf37):
        num = [gf37.element(c) for c in (1, 0, 22, 24)]
        den = Poly.from_roots(gf37, [gf37.element(1), gf37.element(16)])
        assert poly_mod(num, den.coeffs)[0] == gf37.element(3)

    def test_published_remainder_constant_gf31_six_points(self, gf31):
        # twist polynomial 1 + 3x^5 + 21x^6 + 22x^7 + x^8 (hook 1, k = 6)
        # reduced by the head-point product
        num = [gf31.element(c) for c in (1, 0, 0, 0, 0, 3, 21, 22, 1)]
        den = Poly.from_roots(gf31, [gf31.element(a) for a in (1, 5, 8, 25, 28)])
        assert poly_mod(num, den.coeffs)[0] == gf31.element(15)


class TestFromRoots:
    def test_two_roots_gf31(self, gf31):
        got = Poly.from_roots(gf31, [gf31.element(30), gf31.element(2)])
        # oracle: multiply the linear factors directly
        assert list(got.coeffs) == linear_product(gf31, [gf31.element(a) for a in (30, 2)])
        assert reps(got) == [29, 30, 1]  # x^2 + 30x + 29

    def test_empty_product_is_one(self, gf7):
        assert Poly.from_roots(gf7, []).coeffs == (gf7.one(),)

    def test_three_roots_gf7_oracle(self, gf7):
        roots = [gf7.element(a) for a in (1, 2, 3)]
        got = Poly.from_roots(gf7, roots)
        assert list(got.coeffs) == linear_product(gf7, roots)
        assert reps(got) == [1, 4, 1, 1]  # x^3 + x^2 + 4x + 1

    def test_vanishes_on_roots_and_monic(self):
        rng = random.Random(4)
        f = get_field(31)
        for _ in range(25):
            roots = [f.element(rng.randrange(31)) for _ in range(rng.randint(1, 6))]
            p = Poly.from_roots(f, roots)
            assert p.field is f
            assert len(p.coeffs) == len(roots) + 1 and p.coeffs[-1] == f.one()
            for r in roots:
                assert sum((c * r**i for i, c in enumerate(p.coeffs)), f.zero()).is_zero()

    def test_cyclotomic_vanishing(self, gf31):
        # the fifteen 15th roots of unity multiply out to x^15 - 1
        roots = gf31.roots_of_xn_minus_lambda(15, gf31.one())
        assert reps(Poly.from_roots(gf31, roots)) == [30] + [0] * 14 + [1]
