"""Generator/parity-check construction and the evaluation encoder."""

import dataclasses
import json
import random
import re

import pytest

import tgrs.codes
from tgrs import (MatGF, PhiWorkspace, SymContext, TgrsSpec, ValidationError, encode,
                  generator_matrix, null_space, parity_check_matrix, quadratic_twist_sum,
                  r_coefficient, rank, tgrs_spec_from_json, tgrs_spec_to_json)
from tgrs.golden import GOLDEN_CODES

from conftest import GF9, GF16, get_field, random_spec, same_row_space


def grs_spec(f, n, k, alpha, v):
    """A plain GRS reference: the same family with an all-zero twist."""
    return TgrsSpec(field=f, n=n, k=k, l=0, h=1,
                    alpha=tuple(f.element(a) for a in alpha),
                    v=tuple(f.element(x) for x in v),
                    eta=(f.zero(),))


class TestSpecValidation:
    def make(self, f, **kw):
        base = dict(field=f, n=6, k=3, l=1, h=1,
                    alpha=tuple(f.element(a) for a in (0, 1, 2, 3, 4, 5)),
                    v=tuple(f.one() for _ in range(6)),
                    eta=(f.one(), f.one()))
        base.update(kw)
        return TgrsSpec(**base)

    def test_valid_spec_builds(self, gf7):
        self.make(gf7)

    def test_twist_bound_rejected_and_cited(self, gf7):
        with pytest.raises(ValidationError, match=r"n-k-1 = 2, got l=3$"):
            self.make(gf7, l=3, eta=(gf7.one(),) * 4)  # l = n-k

    def test_hook_zero_rejected(self, gf7):
        with pytest.raises(ValidationError,
                           match=r"^hook must satisfy 1 <= h <= k-1 = 2, got h=0$"):
            self.make(gf7, h=0)

    def test_hook_at_k_rejected(self, gf7):
        with pytest.raises(ValidationError,
                           match=r"^hook must satisfy 1 <= h <= k-1 = 2, got h=3$"):
            self.make(gf7, h=3)

    def test_duplicate_alpha_names_positions(self, gf7):
        with pytest.raises(ValidationError, match="positions 1 and 4"):
            self.make(gf7, alpha=tuple(gf7.element(a) for a in (0, 1, 2, 3, 1, 5)))

    def test_zero_multiplier_rejected(self, gf7):
        v = [gf7.one()] * 6
        v[2] = gf7.zero()
        with pytest.raises(ValidationError, match=r"v\[2\]"):
            self.make(gf7, v=tuple(v))

    def test_dimension_bounds(self, gf7):
        with pytest.raises(ValidationError):
            self.make(gf7, k=1)
        with pytest.raises(ValidationError):
            self.make(gf7, k=7, h=2)

    def test_eta_length_checked(self, gf7):
        with pytest.raises(ValidationError, match=r"^eta must have length l\+1 = 2$"):
            self.make(gf7, eta=(gf7.one(),))

    def test_more_points_than_field_elements_rejected(self, gf7):
        with pytest.raises(ValidationError, match=r"^cannot place 8 distinct points in GF\(7\)$"):
            self.make(gf7, n=8)

    def test_boundary_hook_flag(self, gf7):
        assert self.make(gf7, h=2).hook_is_boundary()
        assert not self.make(gf7, h=1).hook_is_boundary()


class TestGeneratorMatrix:
    def test_published_generator_rows(self):
        for gc in (GOLDEN_CODES[1], GOLDEN_CODES[3]):
            G = generator_matrix(gc.spec())
            assert G.to_lists() == gc.normalized_generator()

    def test_zero_twist_gives_scaled_vandermonde(self, gf7):
        spec = grs_spec(gf7, 6, 3, (0, 1, 2, 3, 4, 5), (1, 2, 3, 1, 2, 3))
        G = generator_matrix(spec)
        for i in range(3):
            for j in range(6):
                assert G[i, j] == spec.v[j] * spec.alpha[j] ** i

    def test_given_context_of_the_spec_points(self):
        # the contract of parity_check_matrix: a context of the spec's points
        # gives the matrix built without one, and one of the same points in
        # another order, or of other points, is refused
        rng = random.Random(45)
        for q in (31, GF9, GF16):
            first = random_spec(rng, qs=(q,), n_min=4, n_max=9)
            ctx = SymContext(first.alpha)
            for _ in range(4):
                spec = random_spec(rng, qs=(q,), n_min=first.n, n_max=first.n)
                spec = dataclasses.replace(spec, alpha=first.alpha)
                assert generator_matrix(spec, ctx) == generator_matrix(spec)
                for points in (first.alpha[::-1], first.alpha[1:]):
                    with pytest.raises(ValidationError,
                                       match="^point-set context was built for other points$"):
                        generator_matrix(spec, SymContext(points))

    def test_full_rank(self):
        rng = random.Random(16)
        for _ in range(10):
            spec = random_spec(rng)
            assert rank(generator_matrix(spec)) == spec.k


class TestParityCheckMatrix:
    def test_annihilates_generator(self):
        rng = random.Random(17)
        for _ in range(15):
            spec = random_spec(rng, n_max=16)
            G = generator_matrix(spec)
            H = parity_check_matrix(spec)
            assert (G @ H.transpose()).is_zero()
            assert rank(H) == spec.n - spec.k

    def test_zero_twist_matches_grs_kernel(self, gf31):
        spec = grs_spec(gf31, 8, 3, (1, 2, 3, 4, 5, 6, 7, 8), (1,) * 8)
        H = parity_check_matrix(spec)
        assert same_row_space(H, null_space(generator_matrix(spec)))

    def test_published_code_kernel_equality(self):
        spec = GOLDEN_CODES[1].spec()
        assert same_row_space(parity_check_matrix(spec),
                              null_space(generator_matrix(spec)))

    def test_maximal_twist_set_modifies_every_row(self, gf31):
        # l = n-k-1: no plain power rows remain in the parity check
        f = gf31
        spec = TgrsSpec(field=f, n=6, k=2, l=3, h=1,
                        alpha=tuple(f.element(a) for a in (1, 2, 3, 4, 5, 6)),
                        v=(f.one(),) * 6,
                        eta=tuple(f.element(e) for e in (7, 0, 2, 9)))
        G = generator_matrix(spec)
        H = parity_check_matrix(spec)
        assert (G @ H.transpose()).is_zero()
        assert rank(H) == 4
        plain = parity_check_matrix(TgrsSpec(
            field=f, n=6, k=2, l=3, h=1, alpha=spec.alpha, v=spec.v,
            eta=(f.zero(),) * 4))
        changed = [H.row(j) != plain.row(j) for j in range(4)]
        assert all(changed)

    def test_single_twist_modifies_exactly_one_row(self, gf31):
        # l = 0: only the last row carries the twist correction
        f = gf31
        alpha = tuple(f.element(a) for a in (1, 2, 3, 4, 5, 6, 7))
        v = tuple(f.one() for _ in range(7))
        twisted = TgrsSpec(field=f, n=7, k=3, l=0, h=1, alpha=alpha, v=v,
                           eta=(f.element(5),))
        plain = TgrsSpec(field=f, n=7, k=3, l=0, h=1, alpha=alpha, v=v,
                         eta=(f.zero(),))
        Ht = parity_check_matrix(twisted)
        Hp = parity_check_matrix(plain)
        for j in range(4):
            same = Ht.row(j) == Hp.row(j)
            assert same == (j != 3)

    def test_matches_closed_form_from_public_getters(self):
        # H_ji = (u_i / v_i) (alpha_i^j - w_tilde_i Psi_{n-k-1-j}), the correction
        # on the last l+1 rows only, from one context per point set serving specs
        # with other h, l, v and eta, asked in an order that grows its cached series
        rng = random.Random(43)
        for q in (31, GF9, GF16):
            for _ in range(6):
                first = random_spec(rng, qs=(q,), n_max=9)
                ctx = SymContext(first.alpha)
                u = ctx.dual_coeffs()
                specs = [first] + [random_spec(rng, qs=(q,), n_min=first.n, n_max=first.n)
                                   for _ in range(3)]
                for spec in specs:
                    spec = TgrsSpec(field=spec.field, n=spec.n, k=spec.k, l=spec.l,
                                    h=spec.h, alpha=first.alpha, v=spec.v, eta=spec.eta)
                    n, k, l = spec.n, spec.k, spec.l
                    wt = ctx.hook_weights(spec.h)[1]
                    psi = ctx.psi_values(spec.eta)
                    H = parity_check_matrix(spec)
                    for j in range(n - k):
                        for i, a in enumerate(spec.alpha):
                            entry = a ** j
                            if j >= n - k - l - 1:
                                entry = entry - wt[i] * psi[n - k - 1 - j]
                            assert H[j, i] == u[i] / spec.v[i] * entry

    def test_given_context_of_the_spec_points(self):
        # one context serves specs with other h, l, v and eta on its points,
        # as a criterion table's does, and gives the matrix built without one;
        # the same points in another order, or other points, are refused
        rng = random.Random(44)
        for q in (31, GF9):
            first = random_spec(rng, qs=(q,), n_min=4, n_max=9)
            ctx = SymContext(first.alpha)
            for _ in range(4):
                spec = random_spec(rng, qs=(q,), n_min=first.n, n_max=first.n)
                spec = dataclasses.replace(spec, alpha=first.alpha)
                assert parity_check_matrix(spec, ctx) == parity_check_matrix(spec)
                for points in (first.alpha[::-1], first.alpha[1:]):
                    with pytest.raises(ValidationError,
                                       match="^point-set context was built for other points$"):
                        parity_check_matrix(spec, SymContext(points))


def encoder_specs():
    """Named encoder inputs: a boundary hook h = k-1 over GF(31), and an
    explicit characteristic-2 spec over GF(16) written as coefficient lists."""
    f = get_field(31)
    boundary = TgrsSpec(field=f, n=8, k=4, l=2, h=3,
                        alpha=tuple(f.element(a) for a in (0, 1, 3, 5, 8, 13, 21, 30)),
                        v=tuple(f.element(x) for x in (1, 2, 3, 4, 5, 6, 7, 8)),
                        eta=tuple(f.element(e) for e in (4, 0, 17)))
    f = get_field(*GF16)
    char2 = TgrsSpec(field=f, n=7, k=3, l=2, h=1,
                     alpha=tuple(f.from_index(i) for i in (1, 2, 3, 5, 8, 11, 15)),
                     v=tuple(f.from_index(i) for i in (1, 3, 7, 2, 9, 4, 12)),
                     eta=(f.element([1, 0, 1]), f.element([0, 1]), f.element([1, 1, 1, 1])))
    return [(boundary, [boundary.field.element(m) for m in (7, 0, 30, 2)]),
            (char2, [f.element(m) for m in ([1, 1], [0, 0, 1, 1], [1, 0, 0, 1])])]


class TestEncode:
    def test_basis_message_reads_generator_row(self):
        spec = GOLDEN_CODES[1].spec()
        f = spec.field
        msg = [f.one()] + [f.zero()] * (spec.k - 1)
        assert encode(spec, msg) == generator_matrix(spec).row(0)

    def test_zero_message(self):
        spec = GOLDEN_CODES[3].spec()
        assert all(x.is_zero() for x in encode(spec, [0] * spec.k))

    def test_matches_matrix_product(self):
        rng = random.Random(18)
        inputs = []
        for _ in range(10):
            spec = random_spec(rng)
            f = spec.field
            inputs.append((spec, [f.from_index(rng.randrange(f.q)) for _ in range(spec.k)]))
        for spec, msg in inputs + encoder_specs():
            prod = MatGF(spec.field, [msg]) @ generator_matrix(spec)
            assert encode(spec, msg) == prod.row(0)

    def test_zero_twist_is_scaled_grs(self, gf7):
        f = gf7
        spec = TgrsSpec(field=f, n=6, k=3, l=2, h=1,
                        alpha=tuple(f.element(a) for a in (1, 2, 3, 4, 5, 6)),
                        v=tuple(f.element(x) for x in (1, 2, 1, 2, 1, 2)),
                        eta=(f.zero(),) * 3)
        msg = [f.element(3), f.element(4), f.element(6)]
        got = encode(spec, msg)
        for x, a, vi in zip(got, spec.alpha, spec.v):
            assert x == vi * (msg[0] + msg[1] * a + msg[2] * a * a)

    def test_unit_messages_give_published_rows_without_generator(self, monkeypatch):
        # the oracle is the printed generator, so encode must not build G itself
        def refuse(*args, **kwargs):
            raise AssertionError("encode built a generator or the power rows")
        monkeypatch.setattr(tgrs.codes, "generator_matrix", refuse)
        monkeypatch.setattr(SymContext, "_power_rows", refuse)
        for gc in GOLDEN_CODES:
            spec = gc.spec()
            f = spec.field
            for i, row in enumerate(gc.normalized_generator()):
                msg = [f.one() if j == i else f.zero() for j in range(spec.k)]
                assert [x.rep for x in encode(spec, msg)] == row, (gc.name, i)

    def test_wrong_length_rejected(self):
        spec = GOLDEN_CODES[1].spec()
        with pytest.raises(ValidationError, match="length"):
            encode(spec, [0, 0])


class TestExtensionField:
    def test_full_pipeline_over_gf9(self):
        from tgrs import classify, hull_dimension
        f9 = get_field(3, 2, [1, 0, 1])
        alpha = f9.roots_of_xn_minus_lambda(4, f9.one())
        spec = TgrsSpec(field=f9, n=4, k=2, l=1, h=1,
                        alpha=tuple(alpha),
                        v=(f9.one(), f9.element([1, 1]), f9.one(), f9.element(2)),
                        eta=(f9.element([0, 1]), f9.element(2)))
        G = generator_matrix(spec)
        H = parity_check_matrix(spec)
        assert (G @ H.transpose()).is_zero()
        assert rank(G) == 2 and rank(H) == 2
        report = classify(spec, want_distance=True)
        assert report.hull_dim == hull_dimension(G, H)
        assert report.is_mds == (report.min_distance == 3)

    def test_json_uses_coefficient_arrays(self):
        f9 = get_field(3, 2, [1, 0, 1])
        alpha = f9.roots_of_xn_minus_lambda(4, f9.one())
        spec = TgrsSpec(field=f9, n=4, k=2, l=0, h=1,
                        alpha=tuple(alpha), v=(f9.one(),) * 4,
                        eta=(f9.element([1, 2]),))
        obj = tgrs_spec_to_json(spec)
        assert obj["eta"] == [[1, 2]]
        assert tgrs_spec_from_json(obj) == spec


def spec_read(**change):
    return tgrs_spec_from_json({**tgrs_spec_to_json(GOLDEN_CODES[1].spec()), **change})


def phi_workspace(**change) -> PhiWorkspace:
    spec = GOLDEN_CODES[1].spec()
    return PhiWorkspace(**{"alpha": spec.alpha, "k": spec.k, "h": spec.h, "l": spec.l, **change})


def reference_points():
    return GOLDEN_CODES[1].spec().alpha


# constructor or call -> (its integer parameters, a build of a reference code or
# a call on its points with some changed); [10,3,8]'s eta has length 3
INT_BUILDERS = {
    "TgrsSpec": (("n", "k", "l", "h"),
                 lambda **change: dataclasses.replace(GOLDEN_CODES[1].spec(), **change)),
    "Class1Params": (("n", "h", "l", "k"),
                     lambda **change: dataclasses.replace(GOLDEN_CODES[1].params(), **change)),
    "Class2Params": (("n", "h", "l", "k", "m_gap"),
                     lambda **change: dataclasses.replace(GOLDEN_CODES[3].params(), **change)),
    "PhiWorkspace": (("k", "h", "l"), phi_workspace),
    "r_coefficient": (("k", "h"), lambda **change: r_coefficient(
        **{"k": 3, "h": 1, "eta": GOLDEN_CODES[1].spec().eta,
           "alpha_head": reference_points()[:2], **change})),
    "quadratic_twist_sum": (("m_gap",), lambda **change: quadratic_twist_sum(
        **{"eta": GOLDEN_CODES[3].spec().eta, "m_gap": 1, **change})),
    "sigma_excluding": (("r", "i"), lambda **change: SymContext(
        reference_points()).sigma_excluding(**{"r": 0, "i": 0, **change})),
    "hook_weights": (("h",), lambda **change: SymContext(
        reference_points()).hook_weights(**change)),
    "complete_symmetric": (("t",), lambda **change: SymContext(
        reference_points()).complete_symmetric(**change)),
}


class TestJson:
    def test_spec_round_trip(self):
        # every reference spec and random draw, through JSON text and back
        rng = random.Random(34)
        specs = [gc.spec() for gc in GOLDEN_CODES] + [random_spec(rng) for _ in range(200)]
        for spec in specs:
            assert tgrs_spec_from_json(json.loads(json.dumps(tgrs_spec_to_json(spec)))) == spec

    def test_signed_entries_normalized_on_parse(self, gf31):
        obj = tgrs_spec_to_json(GOLDEN_CODES[3].spec())
        obj["v"] = list(GOLDEN_CODES[3].v)  # signed, as printed
        spec = tgrs_spec_from_json(obj)
        assert spec == GOLDEN_CODES[3].spec()

    @pytest.mark.parametrize("obj", [[1, 2], "spec", None])
    def test_non_object_rejected(self, obj):
        with pytest.raises(ValidationError, match="^code spec must be a JSON object$"):
            tgrs_spec_from_json(obj)

    def test_missing_fields_reported(self):
        with pytest.raises(ValidationError, match="missing"):
            tgrs_spec_from_json({"n": 5})

    @pytest.mark.parametrize("build,name,value", [
        pytest.param(spec_read, "l", True, id="l-True"),
        pytest.param(spec_read, "k", 3.0, id="k-3.0"),
        pytest.param(spec_read, "n", None, id="n-None"),
        pytest.param(INT_BUILDERS["complete_symmetric"][1], "t", -1.5,
                     id="complete_symmetric-t--1.5"),
        *[pytest.param(build, name, value, id=f"{cls}-{name}-{value}")
          for cls, (names, build) in INT_BUILDERS.items()
          for name in names for value in (True, 3.0)],
    ])
    def test_integer_fields_strict(self, build, name, value):
        """The spec reader, every constructor and every call with an integer
        argument refuse a bool or a float."""
        with pytest.raises(ValidationError,
                           match=re.escape(f"field '{name}' must be an integer, got {value!r}")):
            build(**{name: value})

