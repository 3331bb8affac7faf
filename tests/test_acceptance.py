"""Acceptance suite: one test per exit criterion, exact tolerances throughout.

Arithmetic is exact, so every comparison is equality; the only tolerances
are the two stated runtime budgets.  Each test prints a single line
(visible with -s or -rA) naming the criterion it discharges.
"""

import math
import random
import time

from tgrs import (build_class1, build_class2, classify, generator_matrix,
                  hull_dimension, is_amds, is_mds_minors, is_mds_phi,
                  min_distance, null_space, parity_check_matrix,
                  quadratic_twist_sum, r_coefficient, rank,
                  Class1Params, SymContext)
from tgrs.cli import main
from tgrs.golden import GOLDEN_CODES

from conftest import get_field, random_spec, same_row_space
from test_cli import bumped_generator, patch_golden


def passed(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_c01_golden_generator_matrices():
    t0 = time.perf_counter()
    for gc in GOLDEN_CODES:
        G = generator_matrix(gc.spec())
        assert G.to_lists() == gc.normalized_generator(), gc.name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"golden matrices took {elapsed:.3f}s"
    passed(1, "golden generator matrices reproduced entry-for-entry")


def test_c02_gate_coefficients():
    values = []
    for gc in GOLDEN_CODES:
        f = gc.field()
        head = [f.element(a) for a in gc.alpha[: gc.k - 1]]
        eta = [f.element(e) for e in gc.eta]
        values.append(r_coefficient(gc.k, gc.h, eta, head).rep)
    assert values == [14, 3, 15, 7]
    passed(2, "gate coefficients 14, 3, 15, 7 exact")


def test_c03_lcd_verdicts_by_rank_test():
    for gc in GOLDEN_CODES:
        spec = gc.spec()
        G = generator_matrix(spec)
        H = parity_check_matrix(spec)
        assert hull_dimension(G, H) == 0, gc.name
        assert rank(G.stack(H)) == spec.n  # the stacked-rank form of the test
    passed(3, "all four reference codes are LCD (hull dimension 0)")


def test_c04_distances_and_mds():
    for idx, want_d in ((1, 7), (3, 8)):
        gc = GOLDEN_CODES[idx]
        spec = gc.spec()
        t0 = time.perf_counter()
        d = min_distance(parity_check_matrix(spec))
        elapsed = time.perf_counter() - t0
        assert d == want_d, gc.name
        assert d == spec.n - spec.k + 1  # distance meets the Singleton bound
        ok, _ = is_mds_phi(spec)
        assert ok
        assert elapsed < 10.0, f"{gc.name} distance took {elapsed:.3f}s"
    passed(4, "distances 7 and 8 confirm the two MDS claims")


def test_c05_parity_check_property_suite():
    rng = random.Random(0x5CA1E)
    failures = 0
    for _ in range(200):
        spec = random_spec(rng, qs=(7, 31, 37), n_max=14)
        G = generator_matrix(spec)
        H = parity_check_matrix(spec)
        if not (G @ H.transpose()).is_zero():
            failures += 1
        if rank(H) != spec.n - spec.k:
            failures += 1
        if not same_row_space(H, null_space(G)):
            failures += 1
    assert failures == 0
    passed(5, "parity-check identities hold on 200 randomized specs")


def test_c06_mds_oracle_equivalence():
    rng = random.Random(0xD15A)
    disagreements = 0
    trials = 0
    both = {True: 0, False: 0}
    while trials < 100:
        spec = random_spec(rng, qs=(7, 31, 37), n_min=4, n_max=16, comb_cap=20000)
        assert math.comb(spec.n, spec.k) <= 20000
        phi_ok, _ = is_mds_phi(spec)
        minor_ok, _ = is_mds_minors(generator_matrix(spec))
        if phi_ok != minor_ok:
            disagreements += 1
        both[phi_ok] += 1
        trials += 1
    assert disagreements == 0
    assert both[True] and both[False]  # the sample exercises both verdicts
    passed(6, "twist criterion agrees with exhaustive minors on 100 specs")


def test_c07_amds_against_distance():
    rng = random.Random(0xA3D5)
    trials = 0
    agree_true = 0
    while trials < 50:
        spec = random_spec(rng, qs=(7, 31, 37), n_max=10)
        amds, _, _ = is_amds(spec)
        d = min_distance(parity_check_matrix(spec))
        assert amds == (d == spec.n - spec.k)
        agree_true += int(amds)
        trials += 1
    assert agree_true > 0
    passed(7, "AMDS verdict matches brute-force distance on 50 specs")


def test_c08_symmetric_identities_on_golden_configs():
    for gc in GOLDEN_CODES:
        f = gc.field()
        spec = gc.spec()
        ctx = SymContext(spec.alpha)
        n, lam = gc.n, f.element(gc.lam)
        # complete symmetric values collapse on a full root set
        assert ctx.complete_symmetric(0) == f.one()
        for t in range(1, n):
            assert ctx.complete_symmetric(t).is_zero()
        assert ctx.complete_symmetric(n) == lam
        # dual coefficients and hook-weight ratios take their closed forms
        n_lam = f.element(n) * lam
        u = ctx.dual_coeffs()
        for ui, a in zip(u, spec.alpha):
            assert ui == a / n_lam
        _, wt = ctx.hook_weights(gc.h)
        for t, a in zip(wt, spec.alpha):
            assert t == a ** (n - 1 - gc.h)
        # dual-weighted power sums vanish below degree n-1, then read the
        # complete symmetric table
        for e in range(n + 4):
            acc = f.zero()
            for ui, a in zip(u, spec.alpha):
                acc = acc + ui * a**e
            if e <= n - 2:
                assert acc.is_zero()
            else:
                assert acc == ctx.complete_symmetric(e - n + 1)
    passed(8, "symmetric-function identities hold on all four configurations")


def test_c09_quadratic_gate_for_recipe_two():
    f31 = get_field(31)
    eta3 = tuple(f31.element(e) for e in GOLDEN_CODES[2].eta)
    assert (3 * 1 + 21 * 22 + 22 * 21 + 1 * 3) == 930 and 930 % 31 == 0
    assert quadratic_twist_sum(eta3, 0).is_zero()
    eta4 = tuple(f31.element(e) for e in GOLDEN_CODES[3].eta)
    assert quadratic_twist_sum(eta4, 2) == eta4[2] * eta4[2]
    assert quadratic_twist_sum(eta4, 2).is_zero()
    for idx in (2, 3):
        assert build_class2(GOLDEN_CODES[idx].params()).applicable
    passed(9, "quadratic twist gates vanish and both recipe-2 builds apply")


def test_c10_negative_controls(capsys, monkeypatch):
    # (a) a twist vector with zero gate flips the first recipe to inapplicable
    gc = GOLDEN_CODES[1]
    f = gc.field()
    head = [f.element(a) for a in gc.alpha[: gc.k - 1]]
    zero_gate = None
    for e0 in range(f.q):
        for e1 in range(f.q):
            eta = (f.element(e0), f.element(e1))
            if r_coefficient(gc.k, gc.h, eta, head).is_zero():
                zero_gate = eta
                break
        if zero_gate:
            break
    assert zero_gate is not None
    params = Class1Params(field=f, n=gc.n, k=gc.k, h=gc.h, l=gc.l,
                          lam=f.element(gc.lam), eta=zero_gate,
                          v_head=tuple(f.element(x) for x in gc.v[: gc.k - 1]),
                          v_tail_signs=tuple(f.element(x) for x in gc.v[gc.k - 1:]),
                          alpha=tuple(f.element(a) for a in gc.alpha))
    result = build_class1(params)
    assert not result.applicable
    # (b) corrupting one expected generator entry fails the example runner
    # with the corrupted coordinates
    patch_golden(monkeypatch, 3, expected_generator=bumped_generator(GOLDEN_CODES[3], 2, 6))
    code = main(["paper-examples"])
    captured = capsys.readouterr()
    assert code == 1
    assert "example 4" in captured.err
    assert "row 2" in captured.err and "col 6" in captured.err
    passed(10, "negative controls flip to inapplicable / exit 1 with coordinates")
