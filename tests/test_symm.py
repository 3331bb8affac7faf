"""Symmetric-function tables: complete/elementary values, dual coefficients,
hook weights, and twist tail sums."""

import itertools
import random

import pytest

import tgrs.symm
from tgrs import FieldElement, MatGF, Poly, SymContext, ValidationError, VerificationError
from tgrs.symm import complete_series

from conftest import GF8, GF9, GF16, column, get_field, vandermonde

# The oracle tests below also run over these extension fields: GF(9) keeps
# the signs of the closed forms, characteristic 2 collapses them to +1.
EXTENSIONS = pytest.mark.parametrize("q", (GF8, GF9, GF16), ids=("GF8", "GF9", "GF16"))


def brute_complete_symmetric(points, t):
    """Oracle: explicit sum over all degree-t monomials."""
    f = points[0].field
    if t < 0:
        return f.zero()
    acc = f.zero()
    for combo in itertools.combinations_with_replacement(points, t):
        term = f.one()
        for x in combo:
            term = term * x
        acc = acc + term
    return acc


def brute_sigma_excluding(points, r, i):
    """Oracle: subset sums of size r avoiding position i."""
    f = points[0].field
    rest = [p for j, p in enumerate(points) if j != i]
    acc = f.zero()
    for combo in itertools.combinations(rest, r):
        term = f.one()
        for x in combo:
            term = term * x
        acc = acc + term
    return acc


def random_points(f, rng, n):
    return [f.from_index(a) for a in rng.sample(range(f.q), n)]


def check_monomial_enumeration(f, rng):
    # the context's series and ``complete_series`` on reps, both folds of the
    # ``series_step`` that the criterion rows and the AMDS superset filter read
    for n in range(1, 6):
        pts = random_points(f, rng, n)
        ctx = SymContext(pts)
        hs = complete_series(f, [p.rep for p in pts], 5)
        for t in range(5):
            assert ctx.complete_symmetric(t) == brute_complete_symmetric(pts, t)
            assert FieldElement(f, hs[t]) == brute_complete_symmetric(pts, t)


def check_subset_sum_oracle(f, rng):
    pts = random_points(f, rng, 6)
    ctx = SymContext(pts)
    for i in range(6):
        for r in range(6):
            assert ctx.sigma_excluding(r, i) == brute_sigma_excluding(pts, r, i)


def assert_unit_vector(ctx, h):
    """V w^T = e_h by matrix product; V is invertible on distinct points, so
    this pins the hook weights w."""
    f, n = ctx.field, ctx.n
    w, wt = ctx.hook_weights(h)
    V = vandermonde(ctx.points, n)
    assert V @ column(f, w) == column(f, [int(j == h) for j in range(n)]), (ctx.points, h)
    assert all(wi == u * t for wi, u, t in zip(w, ctx.dual_coeffs(), wt))


def check_unit_vector_property(f, rng):
    for _ in range(15):
        n = rng.randint(1, 7)
        assert_unit_vector(SymContext(random_points(f, rng, n)), rng.randrange(n))


def check_power_sum_identity(f, rng):
    # sum_i u_i a_i^e vanishes for e <= n-2 and gives S_{e-n+1} above
    for n in range(3, 9):
        pts = random_points(f, rng, n)
        ctx = SymContext(pts)
        u = ctx.dual_coeffs()
        for e in range(n + 4):
            acc = f.zero()
            for ui, a in zip(u, pts):
                acc = acc + ui * a**e
            if e <= n - 2:
                assert acc.is_zero(), (n, e)
            else:
                assert acc == ctx.complete_symmetric(e - n + 1), (n, e)


def roots_context(f, n, lam=1):
    roots = f.roots_of_xn_minus_lambda(n, f.element(lam))
    return SymContext(roots), roots


class TestCompleteSymmetric:
    def test_negative_degree_is_zero(self, gf31):
        ctx = SymContext([gf31.element(a) for a in (1, 2, 3)])
        assert ctx.complete_symmetric(-3).is_zero()

    def test_degree_zero_is_one(self, gf31):
        ctx = SymContext([gf31.element(a) for a in (1, 2, 3)])
        assert ctx.complete_symmetric(0) == gf31.one()

    def test_vanishing_on_root_sets(self, gf31):
        # on the full root set of x^n - lambda: S_t = 0 for 1 <= t < n, S_n = lambda
        for n, lam in ((15, 1), (5, 5), (10, 1)):
            ctx, _ = roots_context(gf31, n, lam)
            for t in range(1, n):
                assert ctx.complete_symmetric(t).is_zero(), (n, lam, t)
            assert ctx.complete_symmetric(n) == gf31.element(lam)
            assert ctx.complete_symmetric(2 * n) == gf31.element(lam) ** 2

    def test_matches_monomial_enumeration(self):
        check_monomial_enumeration(get_field(31), random.Random(11))

    @EXTENSIONS
    def test_matches_monomial_enumeration_extension(self, q):
        check_monomial_enumeration(get_field(*q), random.Random(11))

    def test_series_grows_on_demand(self, gf7):
        ctx = SymContext([gf7.element(1), gf7.element(2)])
        assert ctx.complete_symmetric(1) == brute_complete_symmetric(ctx.points, 1)
        assert ctx.complete_symmetric(6) == brute_complete_symmetric(ctx.points, 6)

    def test_series_taken_once_per_length(self, gf7, monkeypatch):
        # a series as long as the one held, or shorter, is read off it
        calls = []
        monkeypatch.setattr(tgrs.symm, "complete_series", lambda field, roots, length:
                            calls.append(length) or complete_series(field, roots, length))
        ctx = SymContext([gf7.element(1), gf7.element(2)])
        for t in (3, 3, 1, 5):
            assert ctx.complete_symmetric(t) == brute_complete_symmetric(ctx.points, t)
        assert calls == [4, 6]


class TestDualCoeffs:
    def test_three_points_direct_product(self, gf7):
        ctx = SymContext([gf7.element(a) for a in (1, 2, 3)])
        u = ctx.dual_coeffs()
        assert u[0] == ((gf7.element(1) - 2) * (gf7.element(1) - 3)).inverse()
        assert u[0] == gf7.element(4)

    def test_single_point_empty_product(self, gf31):
        ctx = SymContext([gf31.element(9)])
        assert ctx.dual_coeffs() == (gf31.one(),)

    def test_roots_of_unity_closed_form(self, gf31):
        ctx, roots = roots_context(gf31, 15)
        n_lam = gf31.element(15) * gf31.one()
        for u, a in zip(ctx.dual_coeffs(), roots):
            assert u == a / n_lam

    def test_defining_identity(self):
        rng = random.Random(12)
        f = get_field(37)
        pts = [f.element(a) for a in rng.sample(range(37), 6)]
        ctx = SymContext(pts)
        for i, (u, a) in enumerate(zip(ctx.dual_coeffs(), pts)):
            prod = f.one()
            for j, b in enumerate(pts):
                if j != i:
                    prod = prod * (a - b)
            assert u * prod == f.one()


class TestSigmaExcluding:
    def test_degree_zero_is_one(self, gf7):
        ctx = SymContext([gf7.element(a) for a in (1, 2, 3)])
        assert ctx.sigma_excluding(0, 1) == gf7.one()

    def test_roots_of_unity_closed_form(self, gf31):
        ctx, roots = roots_context(gf31, 10)
        for i, a in enumerate(roots):
            for r in range(10):
                expected = a**r if r % 2 == 0 else -(a**r)
                assert ctx.sigma_excluding(r, i) == expected

    def test_small_subset_sum(self, gf7):
        ctx = SymContext([gf7.element(a) for a in (1, 2, 3)])
        assert ctx.sigma_excluding(1, 1) == gf7.element(4)  # 1 + 3

    def test_matches_subset_sum_oracle(self):
        check_subset_sum_oracle(get_field(31), random.Random(13))

    @EXTENSIONS
    def test_matches_subset_sum_oracle_extension(self, q):
        check_subset_sum_oracle(get_field(*q), random.Random(13))

    def test_range_errors(self, gf7):
        ctx = SymContext([gf7.element(a) for a in (1, 2, 3)])
        with pytest.raises(ValidationError):
            ctx.sigma_excluding(0, 3)
        with pytest.raises(ValidationError):
            ctx.sigma_excluding(3, 0)


class TestHookWeights:
    def test_unit_vector_property_randomized(self):
        check_unit_vector_property(get_field(31), random.Random(14))

    @EXTENSIONS
    def test_unit_vector_property_extension(self, q):
        check_unit_vector_property(get_field(*q), random.Random(14))

    def test_roots_of_unity_ratio_closed_form(self, gf37):
        ctx, roots = roots_context(gf37, 9)
        for h in range(9):
            _, wt = ctx.hook_weights(h)
            for t, a in zip(wt, roots):
                assert t == a ** (9 - 1 - h)

    def test_matches_vandermonde_solve(self, gf7):
        ctx = SymContext([gf7.element(a) for a in (1, 2, 3)])
        for h in range(3):
            assert_unit_vector(ctx, h)
        # hand value: w_i = u_i sigma_2(i), the product of the other two points
        assert [x.rep for x in ctx.hook_weights(0)[0]] == [3, 4, 1]

    def test_single_point(self, gf7):
        assert SymContext([gf7.element(3)]).hook_weights(0) == ((gf7.one(),), (gf7.one(),))

    def test_unit_vector_every_hook_all_sizes(self):
        # every hook of randomized distinct point sets, sizes 1..8
        rng = random.Random(30)
        f = get_field(31)
        for n in range(1, 9):
            for _ in range(3):
                ctx = SymContext(random_points(f, rng, n))
                for h in range(n):
                    assert_unit_vector(ctx, h)

    def test_range_error(self, gf7):
        ctx = SymContext([gf7.element(1), gf7.element(2)])
        with pytest.raises(ValidationError, match=r"^unit index 2 out of range 0\.\.1$"):
            ctx.hook_weights(2)


class TestPsiValues:
    def test_zero_twists(self, gf31):
        ctx = SymContext([gf31.element(a) for a in (1, 2, 3)])
        psi = ctx.psi_values([gf31.zero()] * 3)
        assert all(x.is_zero() for x in psi)

    def test_roots_of_unity_collapse(self, gf31):
        # on a full root set with l < n every tail sum equals its own twist
        ctx, _ = roots_context(gf31, 10)
        eta = [gf31.element(e) for e in (28, 6, 0)]
        assert ctx.psi_values(eta) == tuple(eta)

    def test_generic_points_hand_value(self, gf31):
        ctx = SymContext([gf31.element(a) for a in (1, 2, 3, 4)])
        psi = ctx.psi_values([gf31.one(), gf31.one()])
        assert psi == (gf31.element(11), gf31.one())  # 1 + S_1 = 1 + 10

    def test_empty_twist_rejected(self, gf31):
        # eta has length l + 1 >= 1, as TgrsSpec requires
        ctx = SymContext([gf31.element(a) for a in (1, 2, 3)])
        with pytest.raises(ValidationError, match=r"^eta must have length l\+1 >= 1, got 0$"):
            ctx.psi_values([])


class TestPowerSumIdentity:
    def test_dual_weighted_power_sums(self):
        check_power_sum_identity(get_field(31), random.Random(15))

    @EXTENSIONS
    def test_dual_weighted_power_sums_extension(self, q):
        check_power_sum_identity(get_field(*q), random.Random(15))


class TestPowerRows:
    @pytest.mark.parametrize("q", (31, GF8, GF9, GF16), ids=("GF31", "GF8", "GF9", "GF16"))
    def test_match_vandermonde_rows(self, q):
        # the held power rows alpha_i^j, asked in an order that grows and
        # re-reads them, are the Vandermonde rows of element powers
        f = get_field(q) if isinstance(q, int) else get_field(*q)
        rng = random.Random(41)
        for _ in range(8):
            ctx = SymContext(random_points(f, rng, rng.randint(1, 9)))
            for nrows in (rng.randint(0, 4), rng.randint(5, 12), rng.randint(0, 12)):
                assert ctx._power_rows(nrows) == list(vandermonde(ctx.points, nrows)._data)

    def test_rows_start_at_the_zeroth_power(self, gf7):
        ctx = SymContext([gf7.element(a) for a in (2, 3)])
        assert ctx._power_rows(3) == [(1, 1), (2, 3), (4, 2)]


class TestLazyQuotients:
    def test_product_taken_only_for_the_quotients(self, gf31, monkeypatch):
        # the series and the power rows need no product of the points; the
        # quotients and dual coefficients take one Poly.from_roots, once
        calls = []
        from_roots = Poly.from_roots
        monkeypatch.setattr(Poly, "from_roots", classmethod(
            lambda cls, field, roots: calls.append(len(roots)) or from_roots(field, roots)))
        ctx, _ = roots_context(gf31, 10)
        ctx.psi_values([gf31.element(e) for e in (1, 2, 3)])
        ctx._power_rows(6)
        assert calls == []
        u = ctx.dual_coeffs()
        assert ctx.hook_weights(2)[0] == tuple(x * y for x, y in zip(u, ctx.hook_weights(2)[1]))
        ctx.sigma_excluding(3, 4)
        assert calls == [10]

    def test_quotients_check_every_point_is_a_root(self, gf31, monkeypatch):
        # a product that misses a point leaves a remainder at that point
        from_roots = Poly.from_roots
        monkeypatch.setattr(Poly, "from_roots", classmethod(
            lambda cls, field, roots: from_roots(field, [*roots[:-1], field.element(30)])))
        ctx = SymContext([gf31.element(a) for a in (1, 2, 3)])
        with pytest.raises(VerificationError, match="^point 2 is not a root of the full product$"):
            ctx.dual_coeffs()


class TestConstruction:
    def test_duplicate_points_rejected(self, gf7):
        with pytest.raises(ValidationError):
            SymContext([gf7.one(), gf7.one()])

    def test_empty_points_rejected(self, gf7):
        with pytest.raises(ValidationError):
            SymContext([])

    def test_mixed_fields_rejected(self, gf7, gf31):
        with pytest.raises(ValidationError):
            SymContext([gf7.one(), gf31.element(2)])
