"""The two LCD recipes: gate coefficient, builders, and the twist search."""

import functools
import itertools
import random
import re
import sys
from collections import Counter
from dataclasses import replace

import pytest

from tgrs import (Class1Params, Class2Params, Field, PhiWorkspace, ResourceLimitError,
                  SymContext, ValidationError, VerificationError, build_class1, build_class2,
                  classify, generator_matrix, hull_dimension, is_mds_minors,
                  parity_check_matrix, quadratic_twist_sum, r_coefficient,
                  report_to_json, search_eta)
from tgrs.gf import element_to_json
from tgrs.golden import GOLDEN_CODES
from tgrs.symm import criterion_row

from conftest import GF8, GF9, GF16, GF25, get_field, linear_product, poly_mod

CLASSIFY = sys.modules["tgrs.classify"]  # the package exports the function under this name


def monomial_r(k, h, eta, head):
    """Oracle: r by polynomial remainders, r = base + sum_t eta_t lin[t].

    base and lin[t] are the x^(h-1) coefficients of x^(h-1) mod g and of
    x^(k+t-1) mod g, with g the product of the linear factors x - a over the
    head points multiplied out, each remainder a long division on element lists.
    """
    f = head[0].field
    g = linear_product(f, head)

    def at(degree):
        return poly_mod([f.zero()] * degree + [f.one()], g)[h - 1]

    return sum((f.element(e) * at(k + t - 1) for t, e in enumerate(eta)), at(h - 1))


def golden_r(gc):
    f = gc.field()
    head = [f.element(a) for a in gc.alpha[: gc.k - 1]]
    eta = [f.element(e) for e in gc.eta]
    return r_coefficient(gc.k, gc.h, eta, head)


def toy_template(f7):
    """GF(7), n = 6, k = 2, single twist: the whole multiplicative group."""
    return Class1Params(
        field=f7, n=6, h=1, l=0, lam=f7.one(), k=2, eta=(f7.zero(),),
        v_head=(f7.element(3),),
        v_tail_signs=tuple(f7.element(s) for s in (1, -1, 1, 1, -1)),
    )


def gf9_template(f9):
    """GF(9), n = 8, k = 2, two twist coefficients: the extension-field search."""
    return Class1Params(
        field=f9, n=8, h=1, l=1, lam=f9.one(), k=2, eta=(f9.zero(),) * 2,
        v_head=(f9.element([0, 1]),),
        v_tail_signs=tuple(f9.element(s) for s in (1, -1, 1, 1, -1, 1, -1)))


def fifth_roots_template(f31):
    """GF(31), n = 5, k = 2: small space with genuinely MDS twists."""
    return Class1Params(
        field=f31, n=5, h=1, l=0, lam=f31.one(), k=2, eta=(f31.zero(),),
        v_head=(f31.element(2),),
        v_tail_signs=tuple(f31.element(s) for s in (1, -1, 1, -1)),
    )


def demo_template(h=1):
    """The [9,3] GF(37) template of the twist-search demo: 1,369 candidates."""
    f = get_field(37)
    return Class1Params(
        field=f, n=9, k=3, h=h, l=1, lam=f.one(), eta=(f.zero(),) * 2,
        v_head=tuple(f.element(x) for x in (21, 30)),
        v_tail_signs=tuple(f.element(s) for s in (1, 1, -1, 1, 1, 1, -1)))


def gf16_template():
    """GF(16) with x^4+x+1, n = 5, k = 2: a characteristic-2 search."""
    f = get_field(*GF16)
    return Class1Params(
        field=f, n=5, k=2, h=1, l=0, lam=f.one(), eta=(f.zero(),),
        v_head=(f.element([0, 1]),), v_tail_signs=(f.one(),) * 4)


def recipe2_template():
    """The [10,3,8] GF(31) reference code with its twist vector left free."""
    p = GOLDEN_CODES[3].params()
    return replace(p, eta=(p.field.zero(),) * (p.l + 1))


def gap_template(spec, n, l, m_gap, head):
    """A recipe-2 template over an extension field, h = 1 and a tail of 1s:
    with m < l the quadratic gate is linear in eta_l."""
    f = get_field(*spec)
    k = (n - l - m_gap) // 2
    return Class2Params(field=f, n=n, h=1, l=l, m_gap=m_gap, lam=f.one(),
                        eta=(f.zero(),) * (l + 1), v_head=tuple(f.element(x) for x in head),
                        v_tail_signs=(f.one(),) * (n - k + 1))


TEMPLATES = {
    "demo": demo_template,
    "demo_h2": lambda: demo_template(h=2),
    "gf9": lambda: gf9_template(get_field(3, 2, [1, 0, 1])),
    "gf16": gf16_template,
    "recipe2": recipe2_template,
    # [8,3] GF(9), m = 0 < l = 2: the gate solves c0 + 2 eta_0 eta_2 = 0
    "gf9_gap0": lambda: gap_template(GF9, n=8, l=2, m_gap=0, head=[[0, 1]] * 2),
    # [7,2] GF(8), m = 1 < l = 2: in characteristic 2 the coefficient 2 eta_m is 0
    "gf8_gap1": lambda: gap_template(GF8, n=7, l=2, m_gap=1, head=[[0, 1, 0]]),
    # [5,2] GF(16), m = 0 < l = 1
    "gf16_gap0": lambda: gap_template(GF16, n=5, l=1, m_gap=0, head=[[0, 1]]),
    # [5,2] GF(31), l = 0: the prefix is empty
    "gf31_empty": lambda: fifth_roots_template(get_field(31)),
    # m = l pins eta_l = 0, and the gates are solved for eta_(l-1).  No
    # characteristic-2 field has m = l: n - 2l must be even, so n is, but n
    # divides the odd q - 1.
    # [8,2] GF(9), l = m = 2: the prefix is eta_0
    "gf9_pinned": lambda: gap_template(GF9, n=8, l=2, m_gap=2, head=[[0, 1]]),
    # [8,3] GF(25), l = m = 1: the prefix is empty
    "gf25_pinned": lambda: gap_template(GF25, n=8, l=1, m_gap=1, head=[[0, 1]] * 2),
}


@functools.lru_cache(maxsize=None)
def oracle_hits(name):
    """The per-candidate FieldElement loop, over every candidate in index order.

    r comes from affine interpolation of r_coefficient, the quadratic gate
    and the criterion dot products from element arithmetic, and each hit is
    classified afresh.  Returns {index: (eta, r, report) as JSON}.
    """
    template = TEMPLATES[name]()
    f, l = template.field, template.l
    k, h, head = template.k, template.h, template.alpha[: template.k - 1]
    base = r_coefficient(k, h, (f.zero(),) * (l + 1), head)
    lin = [r_coefficient(k, h, tuple(f.one() if i == t else f.zero() for i in range(l + 1)),
                         head) - base for t in range(l + 1)]
    rows = [[f.from_index(d) for d in criterion_row(f, [template.alpha[i].rep for i in I],
                                                    h, l + 1)]
            for I in itertools.combinations(range(template.n), k)]
    hits = {}
    for idx, digits in enumerate(itertools.product(range(f.q), repeat=l + 1)):
        eta = tuple(f.from_index(d) for d in digits)
        if all(e.is_zero() for e in eta):
            continue
        r = base
        for e, c in zip(eta, lin):
            r = r + e * c
        if r.is_zero():
            continue
        if isinstance(template, Class2Params):
            m, quad = template.m_gap, f.zero()
            for t in range(m, l + 1):
                quad = quad + eta[t] * eta[l + m - t]
            if not quad.is_zero():
                continue
        singular = False
        for row in rows:
            acc = f.zero()
            for e, d in zip(eta, row):
                acc = acc + e * d
            if acc == f.one():
                singular = True
                break
        if singular:
            continue
        params_eta = replace(template, eta=eta)
        build = (build_class2(params_eta) if isinstance(template, Class2Params)
                 else build_class1(params_eta))
        hits[idx] = ([element_to_json(e) for e in eta], element_to_json(r),
                     report_to_json(classify(build.spec)))
    return hits


def hits_json(hits):
    return [(j["eta"], j["r"], j["report"]) for j in (h.to_json() for h in hits)]


class TestRCoefficient:
    def test_published_gate_values(self):
        assert [golden_r(gc).rep for gc in GOLDEN_CODES] == [14, 3, 15, 7]

    def test_zero_twist_gives_one(self):
        rng = random.Random(27)
        f = get_field(31)
        for _ in range(10):
            k = rng.randint(2, 6)
            h = rng.randint(1, k - 1)
            head = [f.element(a) for a in rng.sample(range(31), k - 1)]
            eta = [f.zero()] * rng.randint(1, 4)
            assert r_coefficient(k, h, eta, head) == f.one()

    @pytest.mark.parametrize("spec", [(31,), GF8, GF9, GF16],
                             ids=["GF31", "GF8", "GF9", "GF16"])
    def test_matches_remainder_oracle(self, spec):
        # every hook 1 <= h <= k-1, not only the h = 1 of the reference codes
        f = get_field(*spec)
        rng = random.Random(28)
        hooks = set()
        for _ in range(40):
            k = rng.randint(2, 7)
            h = rng.randint(1, k - 1)
            head = [f.from_index(a) for a in rng.sample(range(f.q), k - 1)]
            eta = [f.from_index(rng.randrange(f.q)) for _ in range(rng.randint(0, 5))]
            hooks.add(h)
            if not eta:  # no code of the family has one
                with pytest.raises(ValidationError, match="eta must have length"):
                    r_coefficient(k, h, eta, head)
                continue
            assert r_coefficient(k, h, eta, head) == monomial_r(k, h, eta, head)
        assert max(hooks) >= 4

    def test_head_length_checked(self, gf7):
        with pytest.raises(ValidationError, match="head"):
            r_coefficient(3, 1, [gf7.one()], [gf7.one()])

    def test_duplicate_heads_rejected(self, gf7):
        with pytest.raises(ValidationError, match="distinct"):
            r_coefficient(3, 1, [gf7.one()], [gf7.one(), gf7.one()])

    @pytest.mark.parametrize("h", [0, 3])
    def test_hook_outside_range_rejected(self, gf7, h):
        with pytest.raises(ValidationError, match=rf"^hook must satisfy 1 <= h <= k-1, got h={h}$"):
            r_coefficient(3, h, [gf7.one()], [gf7.one(), gf7.element(2)])

    def test_empty_twist_rejected(self, gf7):
        # eta has length l + 1 >= 1, as TgrsSpec requires
        with pytest.raises(ValidationError, match=r"^eta must have length l\+1 >= 1, got 0$"):
            r_coefficient(3, 1, [], [gf7.element(2), gf7.element(3)])

    def test_duplicate_head_named_like_other_point_sets(self, gf7):
        head = [gf7.element(a) for a in (2, 5, 2)]
        with pytest.raises(ValidationError, match="positions 0 and 2 coincide"):
            r_coefficient(4, 1, [gf7.one()], head)


class TestClass1Builder:
    def test_published_lcd_code(self):
        gc = GOLDEN_CODES[0]
        result = build_class1(gc.params())
        assert result.applicable
        assert all(chk.holds for chk in result.record)
        report = classify(result.spec)
        assert report.is_lcd

    def test_published_lcd_mds_code(self):
        gc = GOLDEN_CODES[1]
        result = build_class1(gc.params())
        assert result.applicable
        report = classify(result.spec, want_distance=True)
        assert report.is_lcd and report.is_mds and report.min_distance == 7

    def test_full_group_boundary(self, gf7):
        # n = q-1 with lambda = 1: ord(1) = 1 divides (q-1)/n = 1
        params = Class1Params(field=gf7, n=6, k=2, h=1, l=0, lam=gf7.one(),
                              eta=(gf7.element(2),), v_head=(gf7.element(3),),
                              v_tail_signs=tuple(gf7.element(s) for s in (1, 1, -1, 1, -1)))
        assert build_class1(params).applicable in (True, False)

    def test_default_alpha_is_ascending(self, gf7):
        params = Class1Params(field=gf7, n=6, k=2, h=1, l=0, lam=gf7.one(),
                              eta=(gf7.element(2),), v_head=(gf7.element(3),),
                              v_tail_signs=tuple(gf7.element(s) for s in (1, 1, -1, 1, -1)))
        assert [a.rep for a in params.alpha] == [1, 2, 3, 4, 5, 6]

    def test_gate_failure_flags_inapplicable(self, gf37):
        # lexicographically first twist vector that zeroes the gate coefficient
        gc = GOLDEN_CODES[1]
        f = gf37
        zero_gate_eta = None
        for e0 in range(37):
            for e1 in range(37):
                eta = (f.element(e0), f.element(e1))
                if r_coefficient(3, 1, eta, [f.one(), f.element(16)]).is_zero():
                    zero_gate_eta = eta
                    break
            if zero_gate_eta:
                break
        # oracle cross-check: the gate is linear, 1 - 16 e0 + 24 e1 mod 37
        e0, e1 = (e.rep for e in zero_gate_eta)
        assert (1 - 16 * e0 + 24 * e1) % 37 == 0
        params = Class1Params(field=f, n=9, k=3, h=1, l=1, lam=f.one(),
                              eta=zero_gate_eta,
                              v_head=tuple(f.element(x) for x in gc.v[:2]),
                              v_tail_signs=tuple(f.element(x) for x in gc.v[2:]),
                              alpha=tuple(f.element(a) for a in gc.alpha))
        result = build_class1(params)
        assert not result.applicable
        gate = [chk for chk in result.record if "r coefficient" in chk.condition]
        assert gate and not gate[0].holds
        # the spec is still emitted so the generic classifier can decide
        assert result.spec.n == 9

    @pytest.mark.parametrize("kwargs,clause", [
        (dict(n=7), "n | q-1"),
        (dict(lam_rep=3, n=5, tail=11), "ord"),
        (dict(k=5, head=4, tail=11 - 3), "(n-2l-1)/2"),
        (dict(n=0), "n >= 1"),  # before the clause n | q-1 divides by n
        (dict(tail=11), "need n-k+1 = 12 tail multipliers, got 11"),
    ])
    def test_rejections_name_the_clause(self, kwargs, clause):
        f = get_field(31)
        n = kwargs.get("n", 15)
        k = kwargs.get("k", 4)
        head_len = kwargs.get("head", k - 1)
        tail_len = kwargs.get("tail", n - k + 1)
        with pytest.raises(ValidationError, match=re.escape(clause)):
            Class1Params(field=f, n=n, k=k, h=1, l=3,
                         lam=f.element(kwargs.get("lam_rep", 1)),
                         eta=(f.one(),) * 4,
                         v_head=tuple(f.element(2) for _ in range(head_len)),
                         v_tail_signs=tuple(f.one() for _ in range(tail_len)))

    def test_head_multiplier_restrictions(self, gf31):
        f = gf31
        with pytest.raises(ValidationError, match="avoid"):
            Class1Params(field=f, n=15, k=4, h=1, l=3, lam=f.one(),
                         eta=(f.one(),) * 4,
                         v_head=(f.one(), f.element(2), f.element(3)),
                         v_tail_signs=(f.one(),) * 12)
        with pytest.raises(ValidationError, match="1 or -1"):
            Class1Params(field=f, n=15, k=4, h=1, l=3, lam=f.one(),
                         eta=(f.one(),) * 4,
                         v_head=(f.element(5), f.element(2), f.element(3)),
                         v_tail_signs=(f.element(2),) * 12)

    def test_small_field_rejected_for_head(self):
        # in GF(3) every element lies in {0, 1, -1}, so no head is admissible
        from tgrs.lcdgen import _check_head
        f3 = get_field(3)
        with pytest.raises(ValidationError, match="q >= 5"):
            _check_head(f3, (f3.element(2),), 2)
        # and the params reject such fields before reaching the head check
        with pytest.raises(ValidationError):
            Class1Params(field=f3, n=2, k=2, h=1, l=0, lam=f3.one(),
                         eta=(f3.one(),), v_head=(f3.element(2),),
                         v_tail_signs=(f3.one(),))

    def test_alpha_must_be_root_permutation(self, gf31):
        f = gf31
        make = functools.partial(Class1Params, field=f, n=15, k=4, h=1, l=3, lam=f.one(),
                                 eta=(f.one(),) * 4,
                                 v_head=(f.element(5), f.element(2), f.element(3)),
                                 v_tail_signs=(f.one(),) * 12)
        roots = tuple(f.roots_of_xn_minus_lambda(15, f.one()))
        non_root = next(a for a in f.nonzero_elements() if a not in roots)
        for alpha in (tuple(f.element(a) for a in range(1, 16)),
                      roots[:14] + roots[:1],  # a repeated root
                      roots[:14],  # n - 1 roots
                      roots[:14] + (non_root,)):  # one non-root among n elements
            with pytest.raises(ValidationError, match="permutation"):
                make(alpha=alpha)
        assert make(alpha=roots[::-1]).alpha == roots[::-1]  # any order is kept

    def test_applicable_builds_are_lcd_randomized(self):
        # the recipe's conclusion is re-checked, never assumed
        rng = random.Random(28)
        f = get_field(31)
        hits = draws = 0
        while hits < 8:
            draws += 1
            assert draws <= 200, f"{hits} applicable builds in 200 draws"  # 8 suffice
            n = rng.choice((10, 15))
            l = rng.randint(0, 2)
            k_hi = (n - 2 * l - 1) // 2
            if k_hi < 2:
                continue
            k = rng.randint(2, k_hi)
            h = rng.randint(1, k - 1)
            head = rng.sample([x for x in range(2, 30) if x != 30], k - 1)
            tail = [rng.choice((1, -1)) for _ in range(n - k + 1)]
            eta = [f.element(rng.randrange(31)) for _ in range(l + 1)]
            params = Class1Params(field=f, n=n, k=k, h=h, l=l, lam=f.one(),
                                  eta=tuple(eta),
                                  v_head=tuple(f.element(x) for x in head),
                                  v_tail_signs=tuple(f.element(s) for s in tail))
            result = build_class1(params)
            if not result.applicable:
                continue
            G = generator_matrix(result.spec)
            H = parity_check_matrix(result.spec)
            assert hull_dimension(G, H) == 0
            hits += 1


class TestClass2Builder:
    def test_published_codes_applicable(self):
        for idx in (2, 3):
            result = build_class2(GOLDEN_CODES[idx].params())
            assert result.applicable
            quad = [chk for chk in result.record if "quadratic" in chk.condition]
            assert quad and quad[0].holds and quad[0].evidence.is_zero()
            assert classify(result.spec).is_lcd

    def test_quadratic_sum_values(self, gf31):
        f = gf31
        # 3*1 + 21*22 + 22*21 + 1*3 = 930 = 30*31
        eta3 = tuple(f.element(e) for e in (3, 21, 22, 1))
        assert quadratic_twist_sum(eta3, 0).is_zero()
        assert (3 * 1 + 21 * 22 + 22 * 21 + 1 * 3) % 31 == 0
        # with gap = l the sum collapses to the square of the last twist
        eta4 = tuple(f.element(e) for e in (28, 6, 0))
        assert quadratic_twist_sum(eta4, 2) == f.element(0) ** 2

    @pytest.mark.parametrize("m_gap", [-1, 3])
    def test_quadratic_sum_gap_outside_range_rejected(self, gf31, m_gap):
        with pytest.raises(ValidationError, match=r"^gap must lie in 0\.\.2$"):
            quadratic_twist_sum((gf31.one(),) * 3, m_gap)

    def test_quadratic_sum_of_empty_twist_rejected(self):
        # eta has length l + 1 >= 1, as TgrsSpec requires, whatever the gap
        with pytest.raises(ValidationError, match=r"^eta must have length l\+1 >= 1, got 0$"):
            quadratic_twist_sum([], 0)

    def test_gap_at_l_with_nonzero_last_twist_inapplicable(self, gf31):
        # a field has no nilpotents, so eta_l != 0 can never satisfy the gate
        f = gf31
        params = Class2Params(field=f, n=10, h=1, l=2, m_gap=2, lam=f.one(),
                              eta=(f.element(28), f.element(6), f.element(5)),
                              v_head=(f.element(22), f.element(15)),
                              v_tail_signs=tuple(f.element(s) for s in (-1, 1, 1, 1, 1, -1, -1, -1)))
        result = build_class2(params)
        assert not result.applicable
        quad = [chk for chk in result.record if "quadratic" in chk.condition]
        assert quad and not quad[0].holds
        assert quad[0].evidence == f.element(25)  # 5^2

    def test_k_is_derived_and_checked(self, gf31):
        f = gf31
        with pytest.raises(ValidationError, match="n-l-m"):
            Class2Params(field=f, n=10, h=1, l=2, m_gap=1, lam=f.one(),
                         eta=(f.one(),) * 3, v_head=(f.element(2),) * 2,
                         v_tail_signs=(f.one(),) * 8)
        with pytest.raises(ValidationError, match="k must equal"):
            Class2Params(field=f, n=10, h=1, l=2, m_gap=2, lam=f.one(),
                         eta=(f.one(),) * 3, v_head=(f.element(2),) * 2,
                         v_tail_signs=(f.one(),) * 8, k=4)
        # n = 6 divides q - 1, but k = (6-2-2)/2 = 1
        with pytest.raises(ValidationError,
                           match=r"^clause 'k = \(n-l-m\)/2 >= 2' fails: k=1$"):
            Class2Params(field=f, n=6, h=1, l=2, m_gap=2, lam=f.one(),
                         eta=(f.one(),) * 3, v_head=(), v_tail_signs=(f.one(),) * 6)

    def test_applicable_builds_are_lcd_randomized(self):
        rng = random.Random(29)
        f = get_field(31)
        hits = draws = 0
        while hits < 5:
            draws += 1
            assert draws <= 3000, f"{hits} applicable builds in 3000 draws"  # 306 suffice
            n = rng.choice((10, 15))
            l = rng.randint(0, 3)
            m_gap = rng.randint(0, l)
            if (n - l - m_gap) % 2 or (n - l - m_gap) // 2 < 2:
                continue
            k = (n - l - m_gap) // 2
            if l > n - k - 1:
                continue
            h = rng.randint(1, k - 1)
            head = rng.sample(range(2, 30), k - 1)
            tail = [rng.choice((1, -1)) for _ in range(n - k + 1)]
            eta = [f.element(rng.randrange(31)) for _ in range(l + 1)]
            params = Class2Params(field=f, n=n, h=h, l=l, m_gap=m_gap, lam=f.one(),
                                  eta=tuple(eta),
                                  v_head=tuple(f.element(x) for x in head),
                                  v_tail_signs=tuple(f.element(s) for s in tail))
            result = build_class2(params)
            if not result.applicable:
                continue
            G = generator_matrix(result.spec)
            H = parity_check_matrix(result.spec)
            assert hull_dimension(G, H) == 0
            hits += 1


class TestRecipePipeline:
    def test_each_builder_refuses_the_other_recipe(self):
        f = get_field(31)
        # recipe-2 parameters that pass recipe 1's r gate and fail their own
        # quadratic gate; read as recipe 1 they would build an applicable code
        second = replace(GOLDEN_CODES[3].params(), eta=tuple(f.element(e) for e in (28, 6, 5)))
        assert not build_class2(second).applicable
        with pytest.raises(ValidationError, match="takes Class1Params, got Class2Params"):
            build_class1(second)
        with pytest.raises(ValidationError, match="takes Class2Params, got Class1Params"):
            build_class2(GOLDEN_CODES[1].params())

    @pytest.mark.parametrize("gc", GOLDEN_CODES, ids=lambda gc: gc.name)
    def test_recipe_spec_is_the_reference_spec(self, gc):
        build = build_class1 if gc.klass == 1 else build_class2
        assert build(gc.params()).spec == gc.spec()

    @pytest.mark.parametrize("klass", [Class1Params, Class2Params])
    def test_cyclic_clauses_come_before_the_dimension_rule(self, gf31, klass):
        # n = 7 breaks 'n | q-1' and, with l = 2, both recipes' dimension rules
        f = gf31
        extra = {"k": 3} if klass is Class1Params else {"m_gap": 0}
        with pytest.raises(ValidationError, match=r"^clause 'n \| q-1' fails"):
            klass(field=f, n=7, h=1, l=2, lam=f.one(), eta=(f.one(),) * 3,
                  v_head=(f.element(2),) * 2, v_tail_signs=(f.one(),) * 5, **extra)

    def test_construction_is_by_keyword_only(self, gf31):
        with pytest.raises(TypeError):
            Class1Params(gf31, 10, 1, 0, gf31.one(), (gf31.one(),), (gf31.element(2),) * 2,
                         (gf31.one(),) * 8, None, 3)


class TestSearch:
    def test_hit_with_inapplicable_build_refused(self, monkeypatch):
        # only the builds call r_coefficient (the search's r gate reads the head
        # row), so a zero r there makes every hit's record disagree with the gates
        monkeypatch.setattr("tgrs.lcdgen.r_coefficient",
                            lambda k, h, eta, head: head[0].field.zero())
        with pytest.raises(VerificationError, match="recipe build is inapplicable"):
            search_eta(demo_template(), budget=37**2)

    def test_published_twist_among_hits(self, gf37):
        gc = GOLDEN_CODES[1]
        f = gf37
        template = Class1Params(
            field=f, n=9, h=1, l=1, lam=f.one(), k=3, eta=(f.zero(),) * 2,
            v_head=tuple(f.element(x) for x in gc.v[:2]),
            v_tail_signs=tuple(f.element(x) for x in gc.v[2:]),
            alpha=tuple(f.element(a) for a in gc.alpha))
        hits = search_eta(template, budget=37**2)
        etas = [tuple(e.rep for e in h.eta) for h in hits]
        assert (22, 24) in etas
        assert etas == sorted(etas)  # lexicographic order
        assert all(h.report.is_mds and h.report.is_lcd for h in hits)

    def test_template_eta_is_ignored(self):
        template = fifth_roots_template(get_field(31))
        with_eta = replace(template, eta=(template.field.element(7),))
        assert hits_json(search_eta(with_eta, budget=31)) == hits_json(
            search_eta(template, budget=31))

    def test_zero_twist_never_hits(self):
        hits = search_eta(fifth_roots_template(get_field(31)), budget=31)
        assert hits
        assert all(any(not e.is_zero() for e in h.eta) for h in hits)

    def test_toy_hits_verified_by_minors(self):
        template = fifth_roots_template(get_field(31))
        hits = search_eta(template, budget=31)
        assert hits
        for h in hits:
            spec = build_class1(replace(template, eta=h.eta)).spec
            ok, _ = is_mds_minors(generator_matrix(spec))
            assert ok == h.report.is_mds
            assert ok

    def test_empty_result_consistent_with_minors_oracle(self, gf7):
        # on the full GF(7) unit group no single twist is MDS: the pair sums
        # cover every residue, so the search must come back empty
        template = toy_template(gf7)
        assert search_eta(template, budget=7) == []
        for e in range(1, 7):
            spec = build_class1(replace(template, eta=(gf7.element(e),))).spec
            ok, _ = is_mds_minors(generator_matrix(spec))
            assert not ok

    @pytest.mark.parametrize("budget", [10, 37**2])
    def test_template_checked_before_any_candidate(self, budget):
        # a spec is no template: refused before the first candidate, whether or
        # not the budget reaches a hit
        with pytest.raises(ValidationError, match="^this recipe takes Class1Params or "
                                                  "Class2Params, got TgrsSpec$"):
            search_eta(GOLDEN_CODES[1].spec(), budget)

    def test_budget_positive(self, gf7):
        with pytest.raises(ValidationError, match="budget"):
            search_eta(toy_template(gf7), budget=0)

    @pytest.mark.parametrize("budget", [True, 2.5])
    def test_budget_must_be_exact_int(self, gf7, budget):
        with pytest.raises(ValidationError, match="positive integer"):
            search_eta(toy_template(gf7), budget)

    def test_randomized_is_seed_deterministic(self):
        template = fifth_roots_template(get_field(31))
        a = search_eta(template, budget=12, seed=99)
        b = search_eta(template, budget=12, seed=99)
        assert a and [h.to_json() for h in a] == [h.to_json() for h in b]

    def test_unseeded_search_is_seed_zero(self):
        template = fifth_roots_template(get_field(31))
        assert [h.to_json() for h in search_eta(template, budget=12)] == \
            [h.to_json() for h in search_eta(template, budget=12, seed=0)]
        for seed in (None, 1.5):
            with pytest.raises(ValidationError, match="seed"):
                search_eta(template, budget=12, seed=seed)

    def test_randomized_hits_sorted_and_subset_of_exhaustive(self):
        template = fifth_roots_template(get_field(31))
        hits = search_eta(template, budget=15, seed=5)
        etas = [tuple(e.rep for e in h.eta) for h in hits]
        assert etas == sorted(etas)
        exhaustive = search_eta(template, budget=31)
        keys = {tuple(e.rep for e in h.eta) for h in exhaustive}
        assert keys and all(e in keys for e in etas)

    def test_extension_field_template(self):
        # the whole recipe + search pipeline over GF(9)
        template = gf9_template(get_field(3, 2, [1, 0, 1]))
        hits = search_eta(template, budget=81)
        assert len(hits) == 4
        assert all(h.report.is_lcd and h.report.is_mds for h in hits)
        for h in hits:
            spec = build_class1(replace(template, eta=h.eta)).spec
            G = generator_matrix(spec)
            H = parity_check_matrix(spec)
            assert hull_dimension(G, H) == 0

    def test_shared_table_reports_match_fresh_classification(self):
        # hits are classified through the search's criterion table; a fresh
        # classification without it must give the same report
        for template, space, expected in ((demo_template(), 37**2, 117),
                                          (gf9_template(get_field(3, 2, [1, 0, 1])), 81, 4)):
            hits = search_eta(template, budget=space)
            assert len(hits) == expected
            for h in hits:
                spec = build_class1(replace(template, eta=h.eta)).spec
                assert report_to_json(h.report) == report_to_json(classify(spec))


def counted_search(monkeypatch, template, budget, hits):
    """Search ``template``, checking its LCD MDS hits; returns the criterion
    tables it built and a Counter of its bulk passes by coefficient count."""
    tables, passes = [], Counter()
    init, dots = PhiWorkspace.__init__, Field._dots
    monkeypatch.setattr(PhiWorkspace, "__init__",
                        lambda self, *args: tables.append(self) or init(self, *args))
    monkeypatch.setattr(Field, "_dots", lambda self, xs, columns:
                        passes.update([len(xs)]) or dots(self, xs, columns))
    found = search_eta(template, budget=budget)
    assert len(found) == hits and all(h.report.is_mds and h.report.is_lcd for h in found)
    return tables, passes


class TestSearchOracle:
    """search_eta against the per-candidate element loop it replaced."""

    @pytest.mark.parametrize("name,expected", [("demo", 117), ("demo_h2", 97), ("gf9", 4),
                                               ("gf16", 4), ("gf9_gap0", 4), ("gf8_gap1", 28),
                                               ("gf16_gap0", 115), ("gf9_pinned", 4),
                                               ("gf25_pinned", 4), ("gf31_empty", 19)])
    def test_exhaustive_matches_oracle(self, name, expected):
        template = TEMPLATES[name]()
        space = template.field.q ** (template.l + 1)
        hits = search_eta(template, budget=space)
        assert len(hits) == expected
        assert hits_json(hits) == list(oracle_hits(name).values())

    def test_randomized_matches_oracle(self):
        self.check_seeded("demo", 400, 11, 27)

    @pytest.mark.parametrize("name,expected", [("gf9_gap0", 0), ("gf8_gap1", 3),
                                               ("gf16_gap0", 34), ("gf9_pinned", 1),
                                               ("gf25_pinned", 0)])
    def test_seeded_gap_templates_match_oracle(self, name, expected):
        self.check_seeded(name, 100, 3, expected)

    @pytest.mark.parametrize("name,budget,seed,expected", [
        ("gf31_empty", 12, 1, 7), ("recipe2", 500, 2, 0), ("recipe2", 3000, 7, 5),
        ("gf16", 8, 1, 3), ("gf8_gap1", 40, 2, 3), ("gf9", 30, 2, 2),
        ("gf9_pinned", 200, 1, 1), ("gf25_pinned", 300, 2, 4)])
    def test_seeded_searches_on_partial_tables_match_oracle(self, name, budget, seed,
                                                            expected):
        # between the prefixes of a sparse draw the table is partial, so each
        # bulk pass reads the rows the walks so far have held, then walks on
        self.check_seeded(name, budget, seed, expected)

    @staticmethod
    def check_seeded(name, budget, seed, expected):
        template = TEMPLATES[name]()
        space = template.field.q ** (template.l + 1)
        rng = random.Random(seed)  # the search's own draws: budget randranges
        drawn = {rng.randrange(space) for _ in range(budget)}
        hits = search_eta(template, budget=budget, seed=seed)
        oracle = oracle_hits(name)
        want = [oracle[i] for i in sorted(drawn) if i in oracle]
        assert len(want) == expected and hits_json(hits) == want

    def test_recipe2_golden_template(self):
        # the quadratic gate on the search path: every hit is LCD MDS
        template = recipe2_template()
        hits = search_eta(template, budget=31**3)
        assert len(hits) == 40
        assert (28, 6, 0) in [tuple(e.rep for e in h.eta) for h in hits]
        assert all(h.report.is_lcd and h.report.is_mds for h in hits)
        assert hits_json(hits) == list(oracle_hits("recipe2").values())

    def test_hits_reuse_the_gate_walk(self, monkeypatch):
        # m = l = 2 pins eta_2 = 0, so the gates are solved for eta_1 on the 31
        # prefixes eta_0, and the search computes each of the C(10,3) = 120
        # rows once.  Each prefix runs one bulk pass over the held rows with
        # d_1 = 0, which for 5 prefixes (eta_0 = 1/d_0) finds one dependent
        # for every eta_1, and the other 26 one pass over the held rows solved
        # for eta_1; each hit's classification re-walks the held rows by one
        # bulk pass of the direct test (a walk per hit made 4,943 checks)
        tables, passes = counted_search(monkeypatch, recipe2_template(), 31**3, 40)
        assert len(tables) == 1 and len(tables[0]._cols[0]) == 120
        assert passes == {1: 31, 2: 26, 3: 40}

    def test_one_table_per_search(self, monkeypatch):
        # every hit is classified through the search's one criterion table, whose
        # one point-set context every generator and parity check reads; each hit
        # builds one more context for its recipe's tail-sum cross-check
        template = recipe2_template()
        built = {"table": 0, "context": 0}
        table_init, context_init = PhiWorkspace.__init__, SymContext.__init__

        def counted(name, init):
            def wrapper(self, *args):
                built[name] += 1
                init(self, *args)
            return wrapper

        monkeypatch.setattr(PhiWorkspace, "__init__", counted("table", table_init))
        monkeypatch.setattr(SymContext, "__init__", counted("context", context_init))
        hits = search_eta(template, budget=31**3)
        assert len(hits) == 40
        assert built == {"table": 1, "context": 40 + 1}


class TestSearchWork:
    """What the prefix pass reads, and where a lowered row budget stops it."""

    def test_gates_read_each_row_once_per_prefix(self, monkeypatch):
        # [9,3] GF(37): the search computes each of the C(9,3) = 84 rows once.
        # Every prefix eta_0 keeps several eta_1, so its gate runs one bulk
        # pass over the held rows with d_1 = 0 and one over the rest solved
        # for eta_1, 37 of each, and each of the 117 hits' classifications
        # one pass of the direct test (one walk per prefix read 12,936 rows)
        tables, passes = counted_search(monkeypatch, demo_template(), 37**2, 117)
        assert len(tables) == 1 and len(tables[0]._cols[0]) == 84
        assert passes == {1: 37, 2: 37 + 117}

    def test_refusal_inside_a_prefix_walk_names_no_set(self, monkeypatch):
        # 60 draws with seed 1: the first two prefixes hold several eta_1 and read
        # 40 rows, the third holds one, whose walk finds a dependent set, and the
        # fourth holds three and needs rows 41..68; the budget of 50 stops that
        # walk, which knows no one twist vector's dependent set
        found = []
        first = PhiWorkspace._first_singular
        monkeypatch.setattr(PhiWorkspace, "_first_singular",
                            lambda self, eta: found.append(first(self, eta)) or found[-1])
        monkeypatch.setattr(CLASSIFY, "CRITERION_ROW_BUDGET", 50)
        with pytest.raises(ResourceLimitError, match=r"budget of 50 rows \(n=9, k=3\); "
                                                     r"dependent columns \(1-based\): "
                                                     r"none found yet$"):
            search_eta(demo_template(), budget=60, seed=1)
        assert found == [(1, 2, 8)]

    @pytest.mark.parametrize("name,budget,seed,rows,n,k,hits", [
        ("demo", 37**2, 0, 84, 9, 3, 117), ("recipe2", 200, 5, 74, 10, 3, 0),
        ("gf9", 5, 3, 11, 8, 2, 0), ("gf9_gap0", 36, 3, 11, 8, 3, 0),
        ("gf8_gap1", 25, 3, 15, 7, 2, 0)])
    def test_row_budget_refuses_one_row_short(self, monkeypatch, name, budget, seed, rows,
                                              n, k, hits):
        # the rows a search needs are a lexicographic prefix of the k-subsets,
        # the same as when every candidate walked them in turn
        template = TEMPLATES[name]()
        monkeypatch.setattr(CLASSIFY, "CRITERION_ROW_BUDGET", rows - 1)
        with pytest.raises(ResourceLimitError) as err:
            search_eta(template, budget, seed)
        assert str(err.value) == (f"twist criterion stopped at its budget of {rows - 1} rows "
                                  f"(n={n}, k={k}); dependent columns (1-based): none found yet")
        monkeypatch.setattr(CLASSIFY, "CRITERION_ROW_BUDGET", rows)
        assert len(search_eta(template, budget, seed)) == hits
