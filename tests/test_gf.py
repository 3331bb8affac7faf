"""Field arithmetic: axioms, inverses, orders, and n-th root extraction."""

import hashlib
import itertools
import json
import random

import pytest

from tgrs import Field, FieldElement, ValidationError, field_from_json, field_to_json
from tgrs.gf import element_to_json, factorize, is_prime

from conftest import EXTENSION_FIELDS, get_field

GF27 = (3, 3, (1, 2, 0, 1))  # x^3 + 2x + 1
# x^16 + x^12 + x^3 + x + 1, the largest extension field the tables allow
GF65536 = (2, 16, (1, 1, 0, 1) + (0,) * 8 + (1, 0, 0, 0, 1))
# x^10+x^8+x^7+x^6+2x^5+x^4+x^3+2x^2+2x+1, a GF(3^10) modulus whose generator is
# the eighth candidate code
GF3_10 = (3, 10, (1, 2, 2, 1, 1, 2, 1, 1, 1, 0, 1))


def gfp_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of coefficient lists over GF(p), by long division."""
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


class TestConstruction:
    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValidationError):
            Field(15)

    def test_rejects_field_over_word_budget(self):
        with pytest.raises(ValidationError, match="word budget"):
            Field(46349, 2)  # q = p^2 > 2^31

    @pytest.mark.parametrize("args", [(2**61 - 1,), (3, 10**7)], ids=["p", "m"])
    def test_huge_field_refused_by_word_budget(self, args):
        # refused before p is trial-divided or raised to the m-th power
        with pytest.raises(ValidationError, match="word budget"):
            Field(*args)

    def test_extension_field_over_table_bound_refused(self):
        assert get_field(*GF65536).q == 2**16
        with pytest.raises(ValidationError, match="2\\^16 bound"):
            Field(2, 17, [1, 0, 0, 1] + [0] * 13 + [1])  # x^17 + x^3 + 1
        with pytest.raises(ValidationError, match="2\\^16 bound"):
            Field(3, 11)  # refused before the modulus is looked at

    # the first primitive code: x itself in GF(8), GF(16), GF(27) and GF(2^16); x + 1
    # in GF(9) (x^2 = -1), x + 1 in GF(25) (x^2 = -2), and x^2 + 1 for GF3_10, where
    # the seven codes 3..9 before it are not primitive; in a prime field the
    # smallest primitive root
    @pytest.mark.parametrize("spec,generator",
                             list(zip(EXTENSION_FIELDS + (GF27, GF65536, GF3_10, (7,), (31,), (37,)),
                                      (2, 4, 2, 6, 3, 2, 10, 3, 3, 2))),
                             ids=["GF8", "GF9", "GF16", "GF25", "GF27", "GF65536", "GF3_10",
                                  "GF7", "GF31", "GF37"])
    def test_generator_is_the_table_generator(self, spec, generator):
        f = get_field(*spec)
        assert f.multiplicative_generator().rep == generator
        if f.m > 1:
            assert f._exp[1] == generator
            assert sorted(f._exp[: f.q - 1]) == list(range(1, f.q))

    # sha256 of the JSON list [_exp, _log, _zech, _neg_log], first 16 hex digits
    @pytest.mark.parametrize("spec,digest", [
        ((2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)), "1b9d5139195ef47a"),  # x^8+x^4+x^3+x+1 (AES)
        ((3, 5, (1, 2, 0, 0, 0, 1)), "2d480f54a454f6c8"),  # x^5 + 2x + 1
    ], ids=["GF256", "GF243"])
    def test_tables_pinned(self, spec, digest):
        f = get_field(*spec)
        tables = json.dumps([f._exp, f._log, f._zech, f._neg_log]).encode()
        assert hashlib.sha256(tables).hexdigest()[:16] == digest

    @pytest.mark.parametrize("spec", [(7,), (31,)] + list(EXTENSION_FIELDS) + [GF27],
                             ids=["GF7", "GF31", "GF8", "GF9", "GF16", "GF25", "GF27"])
    def test_discrete_log_inverts_generator_powers(self, spec):
        # a table read for m > 1, baby-step giant-step for m = 1; both agree
        # with the generator's powers
        f = get_field(*spec)
        g = f.multiplicative_generator()
        assert [f._discrete_log(g ** j) for j in range(f.q - 1)] == list(range(f.q - 1))
        with pytest.raises(ZeroDivisionError):
            f._discrete_log(f.zero())

    @pytest.mark.parametrize("spec", [(2,), (7,), (31,)] + list(EXTENSION_FIELDS) + [GF27],
                             ids=["GF2", "GF7", "GF31", "GF8", "GF9", "GF16", "GF25", "GF27"])
    def test_zero_and_one_reps_are_literals(self, spec):
        f = get_field(*spec)
        assert (f.zero().rep, f.one().rep) == (0, 1)
        assert f.element(0).rep == 0 and f.element(1).rep == 1
        for a in range(f.q):
            assert f._add(a, 0) == a and f._mul(a, 1) == a and f._mul(a, 0) == 0

    def test_prime_field_rejects_modulus(self):
        with pytest.raises(ValidationError):
            Field(7, 1, [1, 1])

    @pytest.mark.parametrize("modulus", [[1, 1, 1], [1, 1, 0, 1, 1]])
    def test_rejects_modulus_of_wrong_degree(self, modulus):
        with pytest.raises(ValidationError, match=r"^modulus must be monic of degree 3 over GF\(2\)$"):
            Field(2, 3, modulus)

    def test_extension_requires_modulus(self):
        with pytest.raises(ValidationError):
            Field(3, 2)

    def test_rejects_reducible_modulus_with_root(self):
        # x^2 - 1 = (x-1)(x+1) over GF(3)
        with pytest.raises(ValidationError, match="root"):
            Field(3, 2, [2, 0, 1])
        # modulo x^4 the first candidate x is nilpotent, so its powers reach
        # the zero polynomial before the search refuses the modulus
        with pytest.raises(ValidationError) as exc:
            Field(2, 4, [0, 0, 0, 0, 1])
        assert str(exc.value) == "modulus is reducible: root 0 in GF(2)"

    def test_rejects_reducible_modulus_without_root(self):
        # (x^2+1)^2 = x^4 + 2x^2 + 1 has no root mod 3 but factors
        with pytest.raises(ValidationError, match="factor"):
            Field(3, 4, [1, 0, 2, 0, 1])
        # (x^2+x+1)^2 = x^4 + x^2 + 1, and (x^8+x^4+x^3+x+1)(x^8+x^4+x^3+x^2+1)
        # at the largest field size
        for modulus in ([1, 0, 1, 0, 1], [1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1]):
            m = len(modulus) - 1
            with pytest.raises(ValidationError) as exc:
                Field(2, m, modulus)
            assert str(exc.value) == ("modulus is reducible: no root in GF(2), so it has"
                                      f" a factor of degree at most {m // 2}")

    def test_accepts_exactly_the_irreducible_moduli(self):
        # every monic modulus of each small degree: the accepted ones number
        # Gauss's count of monic irreducibles, (1/m) sum_{d | m} mu(d) p^(m/d)
        def mobius(d):
            factors = factorize(d)
            return 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)

        for p, degrees in ((2, range(2, 7)), (3, range(2, 5)), (5, range(2, 4)), (7, (2,))):
            for m in degrees:
                accepted = 0
                for low in itertools.product(range(p), repeat=m):
                    try:
                        Field(p, m, [*low, 1])
                        accepted += 1
                    except ValidationError:
                        pass
                gauss = sum(mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0)
                assert accepted * m == gauss, (p, m)
        # x^2 - 1 has the roots 1 and 2 mod 3; the smaller is named
        with pytest.raises(ValidationError, match=r"root 1 in GF\(3\)"):
            Field(3, 2, [2, 0, 1])

    @pytest.mark.parametrize("args", [(True,), (7.0,), (3, True, [1, 0, 1]),
                                      (3, 2.0, [1, 0, 1]), (3, 2, [1.0, 0, 1]),
                                      (3, 2, [1, False, 1]), (3, 2, "101")])
    def test_constructor_takes_exact_ints_only(self, args):
        with pytest.raises(ValidationError):
            Field(*args)

    def test_accepts_known_irreducibles(self):
        assert Field(3, 2, [1, 0, 1]).q == 9       # x^2 + 1
        assert Field(2, 3, [1, 1, 0, 1]).q == 8    # x^3 + x + 1
        assert Field(2, 4, [1, 1, 0, 0, 1]).q == 16

    def test_is_prime_small_cases(self):
        primes = {2, 3, 5, 7, 11, 13, 31, 37, 2147483647}
        for n in primes:
            assert is_prime(n)
        for n in (0, 1, 4, 9, 15, 91, 2147483647 + 2):
            assert not is_prime(n)


class TestElementOps:
    def test_add_wraps_at_characteristic(self, gf31):
        assert gf31.element(30) + gf31.element(1) == gf31.zero()

    def test_add_identity(self, gf31):
        assert gf31.zero() + gf31.element(17) == gf31.element(17)

    def test_add_matches_integer_oracle(self, gf37):
        # oracle: plain integer addition mod 37
        assert gf37.element(33) + gf37.element(10) == gf37.element((33 + 10) % 37)

    def test_inverse_of_one(self, gf31):
        assert gf31.one().inverse() == gf31.one()

    def test_inverse_by_exhaustive_scan(self, gf7):
        # oracle: the unique b in GF(7) with 2b = 1
        two = gf7.element(2)
        expected = [b for b in gf7.elements() if two * b == gf7.one()]
        assert expected == [gf7.element(4)]
        assert two.inverse() == gf7.element(4)

    def test_minus_one_is_self_inverse(self, gf37):
        assert gf37.element(36).inverse() == gf37.element(36)

    def test_inverse_of_zero_raises(self, gf31):
        with pytest.raises(ZeroDivisionError):
            gf31.zero().inverse()
        for zero in (gf31.zero(), get_field(3, 2, [1, 0, 1]).zero()):
            for divide in (lambda z: 3 / z, lambda z: z.field.one() / z):
                with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
                    divide(zero)

    def test_mixed_field_operations_rejected(self, gf7, gf31):
        with pytest.raises(ValidationError):
            gf7.one() + gf31.one()

    @pytest.mark.parametrize("p,m,mod", [(7, 1, None), (3, 2, [1, 0, 1])])
    @pytest.mark.parametrize("value", [2.7, "1", True, False, None, {1, 2},
                                       [2.7, 1], ["1"], [True, 0], [1, False], "12"])
    def test_element_rejects_non_int_input(self, p, m, mod, value):
        # no truncation, parsing or bool-as-int, for scalars and coefficients alike
        with pytest.raises(ValidationError):
            get_field(p, m, mod).element(value)

    def test_int_coercion(self, gf31):
        assert gf31.element(5) + 30 == gf31.element(4)
        assert 2 * gf31.element(20) == gf31.element(9)
        assert gf31.element(3) ** -1 == gf31.element(3).inverse()
        # an int on the left: 3 - 5 = -2 and 3 / 5 = 3 * 25 = 75 mod 31
        a = gf31.element(5)
        assert (3 - a, a - 3) == (gf31.element(29), gf31.element(2))
        assert (3 / a, a / 3) == (gf31.element(13), gf31.element(12))
        f = get_field(3, 2, [1, 0, 1])  # the same through the log tables
        for b in f.nonzero_elements():
            assert 2 - b == f.element(2) - b and (2 / b) * b == f.element(2)
        for e in (True, False, 2.0, "2"):  # bool is an int subclass, not an exponent
            with pytest.raises(TypeError):
                a ** e

    def test_equality_agrees_with_hash(self, gf31):
        # an element never equals an int, so set and dict lookups agree with ==
        three = gf31.element(3)
        assert three != 3 and 3 != three and 3 not in {three}
        assert three == gf31.element(34) and gf31.element(34) in {three}
        assert three.__eq__(3) is NotImplemented

    @pytest.mark.parametrize("p,m,mod", [(31, 1, None), (3, 2, [1, 0, 1]), (2, 3, [1, 1, 0, 1])])
    def test_inverse_law_exhaustive_small_fields(self, p, m, mod):
        f = get_field(p, m, mod)
        assert f.q <= 1024
        for a in f.nonzero_elements():
            assert a * a.inverse() == f.one()

    def test_inverse_law_randomized_large_field(self):
        f = get_field(10007)
        rng = random.Random(1)
        for _ in range(200):
            a = f.element(rng.randint(1, f.q - 1))
            assert a * a.inverse() == f.one()

    @pytest.mark.parametrize("p,m,mod", [(7, 1, None), (31, 1, None), (3, 2, [1, 0, 1]), (2, 3, [1, 1, 0, 1])])
    def test_field_axioms_randomized(self, p, m, mod):
        f = get_field(p, m, mod)
        rng = random.Random(2)
        for _ in range(60):
            a, b, c = (f.from_index(rng.randrange(f.q)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a


class TestOrder:
    def test_identity_has_order_one(self, gf31):
        assert gf31.one().order() == 1

    def test_minus_one_has_order_two(self, gf31):
        assert gf31.element(30).order() == 2

    def test_primitive_root_mod_37(self, gf37):
        # oracle: scan powers of 2 until they hit 1
        two = gf37.element(2)
        t, acc = 1, two
        while acc != gf37.one():
            acc = acc * two
            t += 1
        assert t == 36
        assert two.order() == 36

    def test_order_divides_group_order(self):
        for f in (get_field(31), get_field(3, 2, [1, 0, 1])):
            for a in f.nonzero_elements():
                assert (f.q - 1) % a.order() == 0

    def test_order_of_zero_raises(self, gf31):
        with pytest.raises(ValidationError):
            gf31.zero().order()

    def test_orders_kept_per_field(self, monkeypatch):
        # each element's order is computed once per field object; an equal
        # field built anew computes its own, with the same values
        for spec in ((31,), (3, 2, [1, 0, 1])):
            f, g = Field(*spec), Field(*spec)
            first = [a.order() for a in f.nonzero_elements()]
            monkeypatch.setattr(Field, "_unit_group_factorization", lambda self: 1 / 0)
            assert [a.order() for a in f.nonzero_elements()] == first
            with pytest.raises(ZeroDivisionError):
                g.one().order()
            monkeypatch.undo()
            assert [a.order() for a in g.nonzero_elements()] == first


class TestIdentity:
    def test_equal_fields_built_apart(self):
        # equality is by (p, m, modulus); the identity short cut changes none of it
        for spec in ((31,), (3, 2, [1, 0, 1])):
            f, g = Field(*spec), Field(*spec)
            assert f is not g and f == g and f == f and hash(f) == hash(g)
            a, b = f.from_index(5), g.from_index(5)
            assert a == b and a == a and hash(a) == hash(b)
            assert a != g.from_index(6) and a != Field(37).from_index(5)
            assert f.element(b) is b and f.element(a) is a
        with pytest.raises(ValidationError, match="different field"):
            Field(31).element(Field(37).one())


class TestRoots:
    def test_ninth_roots_in_gf37(self, gf37):
        roots = gf37.roots_of_xn_minus_lambda(9, gf37.one())
        assert {r.rep for r in roots} == {1, 16, 26, 12, 33, 10, 34, 7, 9}
        assert [r.rep for r in roots] == sorted(r.rep for r in roots)

    def test_degree_one(self, gf31):
        assert gf31.roots_of_xn_minus_lambda(1, gf31.element(5)) == [gf31.element(5)]

    def test_fifteenth_roots_match_exhaustive_scan(self, gf31):
        roots = gf31.roots_of_xn_minus_lambda(15, gf31.one())
        # oracle: scan the whole field
        expected = [a for a in gf31.elements() if a ** 15 == gf31.one()]
        assert roots == expected
        assert len(set(roots)) == 15

    def test_nontrivial_lambda(self, gf31):
        lam = gf31.element(5)  # order 3 divides (31-1)/5 = 6
        roots = gf31.roots_of_xn_minus_lambda(5, lam)
        assert len(set(roots)) == 5
        assert all(r ** 5 == lam for r in roots)

    def test_extension_field_roots(self):
        f = get_field(3, 2, [1, 0, 1])  # GF(9)
        roots = f.roots_of_xn_minus_lambda(4, f.one())
        assert len(set(roots)) == 4
        assert all(r ** 4 == f.one() for r in roots)

    def test_extension_field_nontrivial_lambda(self):
        f27 = get_field(3, 3, [1, 2, 0, 1])  # x^3 + 2x + 1, irreducible mod 3
        lam = -f27.one()  # order 2 divides (27-1)/13
        roots = f27.roots_of_xn_minus_lambda(13, lam)
        assert len(set(roots)) == 13
        assert all(r ** 13 == lam for r in roots)
        # oracle: exhaustive scan of the whole field
        assert set(roots) == {a for a in f27.elements() if a ** 13 == lam}

    def test_divisibility_precondition_named(self, gf31):
        with pytest.raises(ValidationError, match="does not divide q - 1"):
            gf31.roots_of_xn_minus_lambda(7, gf31.one())

    def test_order_precondition_named(self, gf31):
        lam = gf31.element(3)  # a primitive root: ord 30 does not divide 30/5
        assert lam.order() == 30
        with pytest.raises(ValidationError,
                           match=r"^ord\(lambda\) = 30 does not divide \(q-1\)/n = 6$"):
            gf31.roots_of_xn_minus_lambda(5, lam)

    def test_zero_lambda_rejected(self, gf31):
        with pytest.raises(ValidationError):
            gf31.roots_of_xn_minus_lambda(5, gf31.zero())

    @pytest.mark.parametrize("n", [True, 3.0])
    def test_root_count_must_be_exact_int(self, gf7, n):
        with pytest.raises(ValidationError, match="positive integer"):
            gf7.roots_of_xn_minus_lambda(n, 3)


class TestEnumerationAndJson:
    def test_prime_field_enumeration(self, gf7):
        assert [e.rep for e in gf7.elements()] == list(range(7))

    def test_extension_enumeration_distinct(self):
        f = get_field(3, 2, [1, 0, 1])
        elems = list(f.elements())
        assert len(elems) == 9 and len(set(elems)) == 9
        assert [e.index() for e in elems] == list(range(9))

    @pytest.mark.parametrize("spec", [(31,), (2, 4, [1, 1, 0, 0, 1])], ids=["GF31", "GF16"])
    def test_from_index_takes_exact_ints_only(self, spec):
        # an index becomes the element's rep, so anything but an int would
        # leak into every product
        f = get_field(*spec)
        for bad in (True, 1.5, "3", f.q, -1):
            with pytest.raises(ValidationError, match="not an int in 0.."):
                f.from_index(bad)
        assert f.from_index(f.q - 1).rep == f.q - 1

    def test_field_json_round_trip(self):
        for f in (get_field(31), get_field(3, 2, [1, 0, 1])):
            again = field_from_json(field_to_json(f))
            assert again == f

    def test_element_json_forms(self, gf31):
        assert element_to_json(gf31.element(5)) == 5
        f9 = get_field(3, 2, [1, 0, 1])
        e = f9.element([2, 1])
        assert element_to_json(e) == [2, 1]
        assert f9.element([2, 1]) == e
        assert gf31.element(-1) == gf31.element(30)

    def test_immutability(self, gf7):
        e = gf7.element(3)
        with pytest.raises(AttributeError):
            e.rep = 5

    def test_extension_product_against_divmod_oracle(self):
        # every pair of each small extension field, independently of the log
        # tables: sums and differences digit by digit, products as raw
        # polynomials reduced with the generic divmod
        for p, m, mod in EXTENSION_FIELDS + (GF27,):
            f = get_field(p, m, mod)
            for a in f.elements():
                ca = element_to_json(a)
                if not a.is_zero():
                    assert a * a.inverse() == f.one()
                assert a ** 0 == f.one() and a ** (f.q + 1) == a * a  # a^q = a
                for b in f.elements():
                    cb = element_to_json(b)
                    assert element_to_json(a + b) == [(x + y) % p for x, y in zip(ca, cb)]
                    assert element_to_json(a - b) == [(x - y) % p for x, y in zip(ca, cb)]
                    raw = [0] * (2 * m - 1)
                    for i, x in enumerate(ca):
                        for j, y in enumerate(cb):
                            raw[i + j] += x * y
                    assert element_to_json(a * b) == gfp_divmod(raw, list(mod), p)[1]

    def test_pickle_round_trip(self):
        import pickle
        from tgrs import MatGF
        for f in (get_field(31), get_field(3, 2, [1, 0, 1])):
            e = f.from_index(f.q - 1)
            assert pickle.loads(pickle.dumps(e)) == e
            M = MatGF(f, [[e, f.one()], [f.zero(), e]])
            assert pickle.loads(pickle.dumps(M)) == M


class TestDot:
    @pytest.mark.parametrize("spec", [(31,), (2, 3, [1, 1, 0, 1]), (3, 2, [1, 0, 1]),
                                      (2, 4, [1, 1, 0, 0, 1])], ids=["gf31", "gf8", "gf9", "gf16"])
    def test_vector_pass_matches_dot_at_each_position(self, spec):
        # _dots over columns is _dot with the entries at each position, for
        # coefficient lists shorter or longer than the columns, empty included
        f = get_field(*spec)
        rng = random.Random(40)
        for _ in range(60):
            width, length = rng.randint(1, 4), rng.randint(0, 7)
            columns = [[rng.randrange(f.q) for _ in range(length)] for _ in range(width)]
            xs = tuple(rng.randrange(f.q) for _ in range(rng.randint(0, width + 1)))
            want = [f._dot(xs, ys) for ys in zip(*columns)]
            assert list(f._dots(xs, columns)) == want, (xs, columns)
            assert list(f._dots((), columns)) == [0] * length

    @pytest.mark.parametrize("spec", [(31,), (3, 2, [1, 0, 1]), (2, 4, [1, 1, 0, 0, 1])])
    def test_matches_element_arithmetic(self, spec):
        f = get_field(*spec)
        rng = random.Random(52)
        for length in range(6):
            xs = [f.from_index(rng.randrange(f.q)) for _ in range(length)]
            ys = [f.from_index(rng.randrange(f.q)) for _ in range(length + rng.randint(0, 2))]
            expected = f.zero()
            for x, y in zip(xs, ys):
                expected = expected + x * y
            got = f._dot([x.rep for x in xs], [y.rep for y in ys])
            assert FieldElement(f, got) == expected
