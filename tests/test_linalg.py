"""Exact linear algebra: rank, determinant, kernels and matrix basics."""

import itertools
import random

import pytest

from tgrs import (MatGF, ValidationError, det, generator_matrix, null_space,
                  parity_check_matrix, rank)
from tgrs.golden import GOLDEN_CODES

from conftest import EXTENSION_FIELDS, get_field, identity, same_row_space, vandermonde

# GF(8), GF(9), GF(16) and GF(25), characteristics 2, 3 and 5
EXTENSIONS = [get_field(*spec) for spec in EXTENSION_FIELDS]


def random_matrix(rng, f, rows, cols):
    return MatGF(f, [[f.from_index(rng.randrange(f.q)) for _ in range(cols)]
                     for _ in range(rows)])


class TestRank:
    def test_identity(self, gf7):
        assert rank(identity(gf7, 4)) == 4

    def test_all_ones(self, gf7):
        assert rank(MatGF(gf7, [[1, 1, 1]] * 3)) == 1

    def test_stacked_generator_parity_full_rank(self):
        gc = GOLDEN_CODES[1]  # the [9,3,7] instance
        spec = gc.spec()
        G = generator_matrix(spec)
        H = parity_check_matrix(spec)
        assert rank(G.stack(H)) == 9

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(6)
        for f in [get_field(7)] + EXTENSIONS:
            for _ in range(25):
                M = random_matrix(rng, f, rng.randint(1, 5), rng.randint(1, 5))
                assert rank(M) == rank(M.transpose())


class TestDet:
    def test_identity(self, gf7):
        assert det(identity(gf7, 3)) == gf7.one()

    def test_vandermonde_product_formula(self, gf7):
        pts = [gf7.element(a) for a in (1, 2, 3)]
        V = vandermonde(pts, 3)
        # oracle: prod_{i<j} (a_j - a_i)
        expected = gf7.one()
        for i, j in itertools.combinations(range(3), 2):
            expected = expected * (pts[j] - pts[i])
        assert expected == gf7.element(2)
        assert det(V.transpose()) == expected
        assert det(V) == expected

    def test_repeated_column_gives_zero(self, gf7):
        M = MatGF(gf7, [[1, 1, 2], [3, 3, 5], [2, 2, 0]])
        assert det(M).is_zero()

    def test_non_square_rejected(self, gf7):
        with pytest.raises(ValidationError):
            det(MatGF(gf7, [[1, 2, 3]]))

    def test_matches_cofactor_expansion(self):
        rng = random.Random(7)
        for f in [get_field(7)] + EXTENSIONS:
            for _ in range(20):
                n = rng.randint(1, 3)
                M = random_matrix(rng, f, n, n)

                def cofactor(rows):
                    if len(rows) == 1:
                        return rows[0][0]
                    acc = f.zero()
                    for j in range(len(rows)):
                        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                        term = rows[0][j] * cofactor(minor)
                        acc = acc + term if j % 2 == 0 else acc - term
                    return acc

                assert det(M) == cofactor(M.row_list())


class TestNullSpace:
    def test_identity_has_trivial_kernel(self, gf7):
        assert null_space(identity(gf7, 4)).rows == 0

    def test_parity_row_over_gf2(self):
        f2 = get_field(2)
        N = null_space(MatGF(f2, [[1, 1, 1]]))
        assert N.rows == 2
        assert rank(N) == 2
        # oracle: the kernel is exactly the even-weight vectors of GF(2)^3
        kernel = {v for v in itertools.product((0, 1), repeat=3) if sum(v) % 2 == 0}
        for i in range(N.rows):
            assert tuple(x.rep for x in N.row(i)) in kernel

    def test_matches_parity_check_row_space(self):
        spec = GOLDEN_CODES[1].spec()
        G = generator_matrix(spec)
        H = parity_check_matrix(spec)
        assert same_row_space(null_space(G), H)

    def test_dimension_and_membership_randomized(self):
        rng = random.Random(8)
        for f in [get_field(7), get_field(31)] + EXTENSIONS:
            for _ in range(25):
                M = random_matrix(rng, f, rng.randint(1, 4), rng.randint(1, 6))
                N = null_space(M)
                assert N.rows == M.cols - rank(M)
                if N.rows:
                    assert (M @ N.transpose()).is_zero()


class TestMatrixBasics:
    def test_ragged_rows_rejected(self, gf7):
        with pytest.raises(ValidationError):
            MatGF(gf7, [[1, 2], [3]])

    def test_matmul_shape_mismatch(self, gf7):
        A = MatGF(gf7, [[1, 2]])
        with pytest.raises(ValidationError):
            A @ A

    def test_submatrix_and_stack(self, gf7):
        M = MatGF(gf7, [[0, 1, 2], [3, 4, 5]])
        assert M.submatrix([1], [0, 2]).to_lists() == [[3, 5]]
        assert M.stack(M).rows == 4

    def test_stack_refuses_another_field_of_the_same_width(self, gf7):
        with pytest.raises(ValidationError, match="^stack requires equal field and column count$"):
            MatGF(gf7, [[1, 2]]).stack(MatGF(get_field(11), [[3, 4]]))

    def test_lists_round_trip(self, gf31):
        M = MatGF(gf31, [[1, 30], [2, 29]])
        assert MatGF(gf31, M.to_lists()) == M
