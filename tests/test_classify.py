"""Classification: twist criterion vs minors, distance, and hull dimension."""

import dataclasses
import hashlib
import itertools
import math
import random
import sys
from collections import Counter

import pytest

from tgrs import (CodeReport, Field, MatGF, PhiWorkspace, Poly, ResourceLimitError, SymContext,
                  TgrsSpec, ValidationError, VerificationError, classify, det,
                  encode, generator_matrix, hull_dimension, is_amds,
                  is_mds_minors, is_mds_phi, min_distance, null_space,
                  parity_check_matrix, rank, report_to_json)
from tgrs.golden import GOLDEN_CODES
from tgrs.symm import criterion_row

from conftest import (EXTENSION_FIELDS, GF8, GF9, GF16, GF25, column, get_field, identity,
                      random_spec, vandermonde)

CLASSIFY = sys.modules["tgrs.classify"]  # the package exports the function under this name


def brute_min_weight(spec: TgrsSpec) -> int:
    """Oracle: enumerate all q^k messages and take the lightest nonzero codeword."""
    f = spec.field
    best = spec.n + 1
    for reps in itertools.product(range(f.q), repeat=spec.k):
        if not any(reps):
            continue
        word = encode(spec, [f.from_index(r) for r in reps])
        weight = sum(1 for x in word if not x.is_zero())
        best = min(best, weight)
    return best


def brute_is_mds_minors(G: MatGF):
    """Oracle: one determinant per k-subset of columns, in lexicographic order."""
    row_idx = tuple(range(G.rows))
    for I in itertools.combinations(range(G.cols), G.rows):
        if det(G.submatrix(row_idx, I)).is_zero():
            return False, I
    return True, None


def brute_is_amds(spec: TgrsSpec):
    """Oracle: (verdict, dependent subset, deficient superset) from minors and ranks.

    The deficient superset is the lexicographically first (k+1)-subset J
    with rank(G_J) < k, found by eliminating every one from scratch.
    """
    G = generator_matrix(spec)
    mds, dependent = brute_is_mds_minors(G)
    if mds:
        return False, None, None
    row_idx = tuple(range(spec.k))
    for J in itertools.combinations(range(spec.n), spec.k + 1):
        if rank(G.submatrix(row_idx, J)) < spec.k:
            return False, dependent, J
    return True, dependent, None


def random_generator(rng: random.Random, f, k: int, n: int) -> MatGF:
    """A k x n matrix, k >= 1; some draws plant a zero column, a multiple of a
    column or a row that is a multiple of the first, so G has rank below k."""
    cols = [[rng.randrange(f.q) for _ in range(k)] for _ in range(n)]
    plant, j = rng.randrange(5), rng.randrange(n)
    if plant == 0:
        cols[j] = [0] * k
    elif plant == 1:
        c, src = rng.randrange(f.q), rng.randrange(n)
        cols[j] = [f._mul(c, x) for x in cols[src]]
    elif plant == 2 and k > 1:
        c = rng.randrange(f.q)
        for col in cols:
            col[k - 1] = f._mul(c, col[0])
    return MatGF._from_reps(f, tuple(zip(*cols)))


def brute_min_distance(H: MatGF) -> int:
    """Oracle: eliminate every column subset from scratch, in ascending size order."""
    row_idx = tuple(range(H.rows))
    for w in range(1, H.rows + 2):
        for cols in itertools.combinations(range(H.cols), w):
            if rank(H.submatrix(row_idx, cols)) < w:
                return w
    raise AssertionError("rows+1 columns of a full-rank H are always dependent")


def random_parity_check(rng: random.Random, f, rows: int, n: int) -> MatGF:
    """A full-row-rank rows x n matrix, some with a planted small dependency.

    About a quarter of the draws get a zero column (d = 1) and a quarter a
    nonzero multiple of an earlier column (d <= 2); the other columns are
    uniform.  Gives up after 50 draws, where one or two are the norm, so a
    rank that never reaches ``rows`` fails instead of spinning.
    """
    for _ in range(50):
        cols = [[f.from_index(rng.randrange(f.q)) for _ in range(rows)] for _ in range(n)]
        plant, j = rng.randrange(4), rng.randrange(1, n)
        if plant == 0:
            cols[j] = [f.zero()] * rows
        elif plant == 1:
            c = f.from_index(rng.randrange(1, f.q))
            cols[j] = [c * x for x in cols[rng.randrange(j)]]
        H = MatGF(f, [list(r) for r in zip(*cols)])
        if rank(H) == rows:
            return H
    raise AssertionError(f"no full-rank {rows}x{n} draw in 50 tries")


def draw_shape(rng: random.Random, kind: int) -> tuple[int, int]:
    """(n, k) with n <= 9: k = 1, 2 <= 2k < n, 2k = n or 2k > n by ``kind`` 0..3."""
    if kind == 0:
        return rng.randint(2, 9), 1
    if kind == 1:
        n = rng.randint(5, 9)
        return n, rng.randint(2, (n - 1) // 2)
    if kind == 2:
        k = rng.randint(1, 4)
        return 2 * k, k
    n = rng.randint(3, 9)
    return n, rng.randint(n // 2 + 1, n - 1)


def amds_specs():
    """1,200 seeded (spec, point indices, eta reps) over seven small fields.

    Draws kind 0: eta free, 1: eta_l = 0, 2: eta_1..eta_l = 0 with l >= 1;
    half of the point sets hold 0.
    """
    rng = random.Random(34)
    fields = [get_field(5), get_field(7), get_field(11), get_field(2, 2, (1, 1, 1)),
              get_field(*GF8), get_field(*GF9), get_field(*GF16)]
    for i in range(1200):
        f, kind = fields[i % len(fields)], i % 3
        n = rng.randint(4, min(8, f.q))
        k = rng.randint(2, n - 1 - (kind == 2))
        l = rng.randint(int(kind == 2), n - k - 1)
        idx = rng.sample(range(f.q), n)
        if rng.random() < 0.5 and 0 not in idx:
            idx[rng.randrange(n)] = 0
        eta = [rng.randrange(f.q) for _ in range(l + 1)]
        if kind == 1:
            eta[l] = 0
        elif kind == 2:
            eta[1:] = [0] * l
        spec = TgrsSpec(field=f, n=n, k=k, l=l, h=rng.randint(1, k - 1),
                        alpha=tuple(f.from_index(a) for a in idx),
                        v=tuple(f.from_index(rng.randrange(1, f.q)) for _ in range(n)),
                        eta=tuple(f.from_index(e) for e in eta))
        yield spec, idx, tuple(e.rep for e in spec.eta)


def refused_outside_grs(monkeypatch, roots: int) -> MatGF:
    """A generator outside GRS_{k+l+1} for the [9,3] reference code, and its refusal.

    Row 1 becomes v_i p(alpha_i) with p = x^(5 - roots) (x - alpha_1)..
    (x - alpha_roots) of degree k + l + 1 = 5, so the floor n - k - l = 5 has
    no certificate; no alpha_i is 0, so the row weighs 9 - roots.  H is the
    kernel of the bad G, so the hull check passes and ``classify`` refuses
    only with the distance.  Returns the bad generator.
    """
    spec = GOLDEN_CODES[1].spec()
    f, m = spec.field, spec.k + spec.l + 1
    top = []
    for a, v in zip(spec.alpha, spec.v):
        value = (v * a ** (m - roots)).rep
        for b in spec.alpha[:roots]:
            value = f._mul(value, f._sub(a.rep, b.rep))
        top.append(value)
    bad = MatGF._from_reps(f, (tuple(top),) + generator_matrix(spec)._data[1:])
    monkeypatch.setattr(CLASSIFY, "generator_matrix", lambda s, context: bad)
    monkeypatch.setattr(CLASSIFY, "parity_check_matrix", lambda s, context: null_space(bad))
    classify(spec)  # the hull check passes without the distance
    with pytest.raises(VerificationError, match="not a subcode of GRS_5"):
        classify(spec, want_distance=True)
    return bad


def eighteenth_roots_spec(gf37) -> TgrsSpec:
    """[18,6] over GF(37) on the 18th roots of unity, h = 2, l = 2, d = 10."""
    return TgrsSpec(field=gf37, n=18, k=6, l=2, h=2,
                    alpha=tuple(gf37.roots_of_xn_minus_lambda(18, gf37.one())),
                    v=(gf37.element(2),) * 18,
                    eta=tuple(gf37.element(e) for e in (3, 5, 7)))


def high_rate_spec() -> TgrsSpec:
    """The [15,4] reference code's points and twist with k = 8: 2k >= n, d = 6."""
    return dataclasses.replace(GOLDEN_CODES[0].spec(), k=8)


def brute_hull_dim(spec: TgrsSpec) -> int:
    """Oracle: count codewords orthogonal to the whole code, q^hull of them."""
    f = spec.field
    G = generator_matrix(spec)
    count = 0
    for reps in itertools.product(range(f.q), repeat=spec.k):
        word = encode(spec, [f.from_index(r) for r in reps])
        prod = G @ MatGF(f, [[x] for x in word])
        if prod.is_zero():
            count += 1
    dim = 0
    while f.q**dim < count:
        dim += 1
    assert f.q**dim == count
    return dim


def carried_row(table: PhiWorkspace, subset: tuple[int, ...]) -> tuple:
    """The table's row of a subset as field elements, read off its carried
    prefix (``PhiWorkspace._row``), which holds nothing."""
    return tuple(map(table.field.from_index, table._row(subset)))


def toeplitz_ftr(points, t: int, r: int):
    """Oracle: expansion coefficient f_{t,r} of x^(k+t) over x^0..x^(k-1) on the points.

    Forward substitution in A_t y = c_t^(r), where g = prod (x - p) =
    sum_j c_j x^(k-j), A_t is the unit lower-triangular Toeplitz matrix of
    (c_0..c_t) and c_t^(r) the window (c_{k-r}, .., c_{k-r+t}), entries
    beyond c_k read as zero.  The criterion row of the table is
    d_t = -f_{t,h}.
    """
    f = points[0].field
    k = len(points)
    g = Poly.from_roots(f, points)
    c = [g.coeffs[k - j] for j in range(k + 1)]
    rhs = [c[k - r + i] if k - r + i <= k else f.zero() for i in range(t + 1)]
    y = []
    for i in range(t + 1):
        acc = rhs[i]
        for j in range(max(0, i - k), i):
            acc = acc - c[i - j] * y[j]
        y.append(acc)
    return -y[t]


class TestFtrCoefficient:
    def test_t_zero_closed_form(self, gf7):
        alpha = [gf7.element(a) for a in (1, 2, 3, 5)]
        pts = alpha[:3]
        g = Poly.from_roots(gf7, pts)
        for r in range(3):
            assert toeplitz_ftr(pts, 0, r) == -g.coeffs[r]
        for h in (1, 2):
            assert carried_row(PhiWorkspace(alpha, 3, h, 0), (0, 1, 2)) == (g.coeffs[h],)

    def test_hand_value_gf7(self, gf7):
        alpha = [gf7.element(a) for a in (1, 2, 3)]
        # oracle: f = x^3 mod (x-1)(x-2)(x-3) = 6 + 3x + 6x^2 solves the power
        # system V^T f^T = (a^3), checked by product; V is invertible on
        # distinct points, so this pins f
        f_vec = [gf7.element(c) for c in (6, 3, 6)]
        V = vandermonde(alpha, 3)
        assert V.transpose() @ column(gf7, f_vec) == column(gf7, [a**3 for a in alpha])
        assert toeplitz_ftr(alpha, 0, 2) == f_vec[2]
        ws = PhiWorkspace(alpha + [gf7.element(4)], 3, 2, 0)
        assert carried_row(ws, (0, 1, 2)) == (-f_vec[2],)

    def test_expansion_identity_randomized(self):
        rng = random.Random(20)
        fields = (get_field(31), get_field(*GF8), get_field(*GF9), get_field(*GF16))
        for f, _ in itertools.product(fields, range(12)):
            n = rng.randint(4, 8)
            k = rng.randint(2, n - 1)
            alpha = [f.from_index(a) for a in rng.sample(range(f.q), n)]
            idx = tuple(sorted(rng.sample(range(n), k)))
            pts = [alpha[i] for i in idx]
            for t in range(n - k):
                coeffs = [toeplitz_ftr(pts, t, r) for r in range(k)]
                for a in pts:
                    acc = f.zero()
                    for r, c in enumerate(coeffs):
                        acc = acc + c * a**r
                    assert acc == a ** (k + t)
            for h in range(1, k):
                row = carried_row(PhiWorkspace(alpha, k, h, n - k - 1), idx)
                assert row == tuple(-toeplitz_ftr(pts, t, h) for t in range(n - k))

    def test_range_errors(self, gf7):
        pts = [gf7.element(a) for a in (1, 2, 3, 4)]
        for k, h, l in ((2, 0, 0), (2, 2, 0), (2, 1, -1), (2, 1, 2), (4, 1, 0)):
            with pytest.raises(ValidationError):
                PhiWorkspace(pts, k, h, l)
        for bad_pts in ([], [gf7.one(), gf7.one(), gf7.element(2)],
                        [gf7.one(), get_field(31).element(2), gf7.element(3)]):
            with pytest.raises(ValidationError):
                PhiWorkspace(bad_pts, 2, 1, 0)

    def test_two_internal_routes_agree(self):
        # forward substitution (the oracle) and the power-series rows of the
        # table must give the same criterion quantity
        rng = random.Random(41)
        for _ in range(15):
            q = rng.choice((31,) + EXTENSION_FIELDS[2:])  # GF(31), GF(16), GF(25)
            f = get_field(q) if isinstance(q, int) else get_field(*q)
            n = rng.randint(4, 9)
            k = rng.randint(2, n - 1)
            alpha = [f.from_index(a) for a in rng.sample(range(f.q), n)]
            idx = tuple(sorted(rng.sample(range(n), k)))
            h = rng.randint(1, k - 1)
            l = rng.randint(0, n - k - 1)
            eta = [f.from_index(rng.randrange(f.q)) for _ in range(l + 1)]
            pts = [alpha[i] for i in idx]
            via_ftr = f.one()
            for t in range(l + 1):
                via_ftr = via_ftr + eta[t] * toeplitz_ftr(pts, t, h)
            row = carried_row(PhiWorkspace(alpha, k, h, l), idx)
            via_table = f.one()
            for e, d in zip(eta, row):
                via_table = via_table - e * d
            assert via_ftr == via_table


class TestCarriedRows:
    @pytest.mark.parametrize("q", [7, 31, GF8, GF9, GF16],
                             ids=["gf7", "gf31", "gf8", "gf9", "gf16"])
    def test_rows_match_criterion_row_in_any_order(self, q):
        # rows read in lexicographic, reversed and shuffled order, so the
        # table's carried prefix is cut back to every depth; 0 is a point
        f = get_field(q) if isinstance(q, int) else get_field(*q)
        rng = random.Random(27)
        for _ in range(6):
            n = rng.randint(5, min(9, f.q))
            k = rng.randint(2, n - 1)
            h, l = rng.randint(1, k - 1), rng.randint(0, n - k - 1)
            idx = [0] + rng.sample(range(1, f.q), n - 1)
            rng.shuffle(idx)
            alpha = [f.from_index(a) for a in idx]
            subsets = list(itertools.combinations(range(n), k))
            want = {I: criterion_row(f, [alpha[i].rep for i in I], h, l + 1) for I in subsets}
            for order in (subsets, subsets[::-1], rng.sample(subsets, len(subsets))):
                table = PhiWorkspace(alpha, k, h, l)
                for I in order:
                    assert table._row(I) == want[I], (f, idx, h, l, I)


class TestPrefixWalk:
    """``PhiWorkspace._survivors``, every criterion row solved for eta_s,
    against one walk of ``_first_singular`` per twist vector."""

    @staticmethod
    def per_candidate(table, prefix, live):
        tail = (0,) * (table.l - len(prefix))
        return [x for x in sorted(live) if table._first_singular(prefix + (x,) + tail) is None]

    def test_row_vanishing_on_a_prefix_crosses_out_every_value(self):
        # on the 9th roots of unity in GF(73), a pair {a, b} with a/b a primitive
        # cube root has d_1 = -(a^2 + ab + b^2) = 0 (k = 2, h = 1), so with
        # eta_0 = 1/d_0 it is dependent for every eta_1; the other 35 rows
        # cross out one value each, too few to empty 73 values
        # a fresh table reads the rows one by one, the shared one holds them
        # all after the first prefix and reads them in one bulk pass
        f = get_field(73)
        points = f.roots_of_xn_minus_lambda(9, f.one())
        table = PhiWorkspace(points, 2, 1, 1)
        rows = [criterion_row(f, [points[i].rep for i in I], 1, 2)
                for I in itertools.combinations(range(9), 2)]
        vanishing = {(f.one() / f.from_index(d0)).rep for d0, d1 in rows if d1 == 0}
        assert len(vanishing) == 9  # one pair {a, a w} per point a, w a cube root
        for p in range(73):
            want = self.per_candidate(table, (p,), range(73))
            for walker in (PhiWorkspace(points, 2, 1, 1), table):
                assert walker._survivors((p,), set(range(73))) == want
            assert (p in vanishing) <= (want == [])

    @pytest.mark.parametrize("q", [13, GF8, GF9, GF16], ids=["gf13", "gf8", "gf9", "gf16"])
    def test_matches_per_candidate_walks(self, q):
        f = get_field(q) if isinstance(q, int) else get_field(*q)
        rng = random.Random(36)
        for _ in range(8):
            n = rng.randint(4, 7)
            k = rng.randint(2, n - 2)
            h, l = rng.randint(1, k - 1), rng.randint(1, n - k - 1)
            alpha = [f.from_index(a) for a in rng.sample(range(f.q), n)]
            table = PhiWorkspace(alpha, k, h, l)
            for _ in range(10):
                prefix = tuple(rng.randrange(f.q) for _ in range(l))
                live = set(rng.sample(range(f.q), rng.randint(1, f.q)))
                want = self.per_candidate(table, prefix, live)
                assert table._survivors(prefix, live) == want, (alpha, k, h, l, prefix)

    @pytest.mark.parametrize("q", [13, GF9, GF25], ids=["gf13", "gf9", "gf25"])
    def test_short_prefix_reads_the_rest_as_zero(self, q):
        # the search's pinned path: a prefix eta_0..eta_(s-1), s < l, is solved
        # for eta_s with eta_(s+1)..eta_l zero, the empty prefix too
        f = get_field(q) if isinstance(q, int) else get_field(*q)
        rng = random.Random(39)
        for _ in range(8):
            n = rng.randint(5, 8)
            k = rng.randint(2, n - 3)
            h, l = rng.randint(1, k - 1), rng.randint(1, n - k - 1)
            alpha = [f.from_index(a) for a in rng.sample(range(f.q), n)]
            table = PhiWorkspace(alpha, k, h, l)
            for _ in range(10):
                prefix = tuple(rng.randrange(f.q) for _ in range(rng.randrange(l)))
                live = set(rng.sample(range(f.q), rng.randint(1, f.q)))
                want = self.per_candidate(table, prefix, live)
                assert table._survivors(prefix, live) == want, (alpha, k, h, l, prefix)


class TestBulkPasses:
    """The bulk passes over the held columns, on tables left partial by a
    refused walk and by earlier walks, and on full ones: ``_first_singular``
    and ``_survivors`` against criterion rows from scratch in element
    arithmetic, and the rows each call leaves held."""

    @staticmethod
    def scratch_walk(table):
        """The criterion rows of the k-subsets in lexicographic order, as reps,
        and a function giving an eta's first dependent subset and its
        position, or None and the subset count."""
        f = table.field
        subsets = list(itertools.combinations(range(table.n), table.k))
        reps = [criterion_row(f, [table.alpha[i].rep for i in I], table.h, table.l + 1)
                for I in subsets]
        rows = [[f.from_index(d) for d in row] for row in reps]

        def first(eta):
            eta = [f.from_index(e) for e in eta]
            for pos, (I, row) in enumerate(zip(subsets, rows)):
                acc = f.zero()
                for e, d in zip(eta, row):
                    acc = acc + e * d
                if acc == f.one():
                    return pos, I
            return len(subsets), None

        return reps, first

    @pytest.mark.parametrize("q", [31, GF8, GF9, GF16], ids=["gf31", "gf8", "gf9", "gf16"])
    def test_match_scratch_rows_on_partial_and_full_tables(self, q, monkeypatch):
        # prefixes of every length s = 0..l: the empty one, the pinned path's
        # s < l (eta_(s+1).. = 0) and the full s = l
        f = get_field(q) if isinstance(q, int) else get_field(*q)
        rng = random.Random(42)
        for _ in range(5):
            n = rng.randint(5, 7)
            k = rng.randint(2, n - 2)
            h, l = rng.randint(1, k - 1), rng.randint(1, n - k - 1)
            table = PhiWorkspace([f.from_index(a) for a in rng.sample(range(f.q), n)], k, h, l)
            rows, first = self.scratch_walk(table)
            monkeypatch.setattr(CLASSIFY, "CRITERION_ROW_BUDGET", rng.randint(1, len(rows)))
            try:
                table._survivors((rng.randrange(f.q),) * l, set(range(f.q)))
            except ResourceLimitError:
                pass
            monkeypatch.undo()
            held = len(table._cols[0])
            for step in range(24):
                if step == 12:  # the rest of the table
                    for _ in table._later_rows():
                        pass
                    held = len(rows)
                s = step % (l + 1)
                prefix = tuple(rng.randrange(f.q) for _ in range(s))
                tail = (0,) * (l - s)
                if step % 3 == 0:
                    eta = prefix + (rng.randrange(f.q),) + tail
                    reach, want = first(eta)
                    assert table._first_singular(eta) == want, (table.alpha, k, h, l, eta)
                else:
                    live = set(rng.sample(range(f.q), rng.randint(1, f.q)))
                    found = {x: first(prefix + (x,) + tail) for x in live}
                    want = sorted(x for x, (_, I) in found.items() if I is None)
                    got = table._survivors(prefix, set(live))
                    assert got == want, (table.alpha, k, h, l, prefix, live)
                    reach = max(pos for pos, _ in found.values())
                # the rows held are the walks' lexicographic prefix, as columns
                held = max(held, min(reach + 1, len(rows)))
                assert [len(col) for col in table._cols] == [held] * (l + 1)
                assert list(zip(*table._cols)) == rows[:held]

    def test_second_walk_of_one_eta_reads_nothing(self, monkeypatch):
        # the walk of a single eta keeps its eta and result, so a hit's
        # classification after its prefix's walk runs no bulk pass and reads
        # no row; on a non-MDS and on an MDS code
        for spec, other in ((GOLDEN_CODES[0].spec(), (1, 1, 1, 1)),
                            (GOLDEN_CODES[1].spec(), (1, 2))):
            table = PhiWorkspace(spec.alpha, spec.k, spec.h, spec.l)
            eta = tuple(e.rep for e in spec.eta)
            want = table._first_singular(eta)
            calls = Counter()
            dots, row = Field._dots, PhiWorkspace._row
            monkeypatch.setattr(Field, "_dots", lambda self, xs, columns:
                                calls.update(["pass"]) or dots(self, xs, columns))
            monkeypatch.setattr(PhiWorkspace, "_row", lambda self, subset, spent=0:
                                calls.update(["row"]) or row(self, subset, spent))
            assert table._first_singular(eta) == want
            assert not calls
            table._first_singular(other)
            assert calls["pass"] == 1
            monkeypatch.undo()


def walk_runs(walker: str) -> list:
    """(best, witness, nodes) of one distance walk, floor 1 and floor n - k - l.

    Run on the four reference codes and 200 seeded specs over prime fields,
    GF(8), GF(9) and GF(16), whatever their rate: the hyperplane walk over
    the kernel generator G of H, the column walk over H.
    """
    rng = random.Random(29)
    specs = [gc.spec() for gc in GOLDEN_CODES] + [
        random_spec(rng, qs=(7, 11, 13, 31, GF8, GF9, GF16), n_max=12) for _ in range(200)]
    runs = []
    for spec in specs:
        H = parity_check_matrix(spec)
        M = null_space(H) if walker == "_hyperplane_walk" else H
        for floor in (1, spec.n - spec.k - spec.l):
            walk = CLASSIFY._Walk(H.rows + 1, floor)
            getattr(CLASSIFY, walker)(M, walk)
            runs.append((walk.best, walk.witness, walk.nodes))
    return runs


class TestWalkPins:
    @pytest.mark.parametrize("walker,digest", [
        ("_hyperplane_walk", "375bc8ad16a89200"),
        ("_column_walk", "c5112785ca504463"),
    ])
    def test_walks_are_pinned(self, walker, digest):
        # the bound, the first lightest witness and the node count of every
        # run, so a faster walk must take exactly the same course
        runs = walk_runs(walker)
        assert len(runs) == 408
        assert hashlib.sha256(repr(runs).encode()).hexdigest()[:16] == digest


class TestMdsChecks:
    def test_zero_twist_is_mds(self, gf7):
        spec = TgrsSpec(field=gf7, n=6, k=3, l=0, h=1,
                        alpha=tuple(gf7.element(a) for a in (0, 1, 2, 3, 4, 5)),
                        v=(gf7.one(),) * 6, eta=(gf7.zero(),))
        ok, cert = is_mds_phi(spec)
        assert ok and cert is None

    def test_published_codes_are_mds(self):
        for idx in (1, 3):
            ok, _ = is_mds_phi(GOLDEN_CODES[idx].spec())
            assert ok
            ok2, _ = is_mds_minors(generator_matrix(GOLDEN_CODES[idx].spec()))
            assert ok2

    def test_minors_small_vandermonde(self, gf7):
        pts = [gf7.element(a) for a in (1, 2, 3)]
        G = vandermonde(pts, 2)
        # oracle: check the three 2x2 minors by hand
        for i, j in itertools.combinations(range(3), 2):
            assert not det(G.submatrix((0, 1), (i, j))).is_zero()
        ok, cert = is_mds_minors(G)
        assert ok and cert is None

    def test_minors_zero_column_certificate(self, gf7):
        G = MatGF(gf7, [[0, 1, 2, 3], [0, 2, 3, 1]])
        ok, cert = is_mds_minors(G)
        assert not ok
        assert 0 in cert
        assert cert == (0, 1)  # lexicographically first violating pair

    def test_minors_match_determinant_oracle(self):
        # every generator of three small classes, then every field draws k = 1,
        # k = n and shapes between, with planted zero columns, multiples of
        # columns and rank-deficient G; the certificate is the
        # lexicographically first zero minor
        for q, k, n in ((2, 2, 6), (2, 3, 4), (3, 2, 4)):
            f = get_field(q)
            for flat in itertools.product(range(q), repeat=k * n):
                G = MatGF._from_reps(f, tuple(flat[i * n:(i + 1) * n] for i in range(k)))
                assert is_mds_minors(G) == brute_is_mds_minors(G), (q, G.to_lists())
        rng = random.Random(32)
        fields = [get_field(2), get_field(3), get_field(2, 2, (1, 1, 1)), get_field(7),
                  get_field(*GF8), get_field(*GF9), get_field(*GF16)]
        for f in fields:
            verdicts, shapes = set(), set()
            for i in range(80):
                n = rng.randint(1, 8)
                k = (1, n, rng.randint(1, n))[i % 3]
                G = random_generator(rng, f, k, n)
                got = is_mds_minors(G)
                assert got == brute_is_mds_minors(G), (f, G.to_lists())
                verdicts.add(got[0])
                shapes.add((k == 1, k == n))
            assert verdicts == {True, False}, f
            assert {(True, False), (False, True), (False, False)} <= shapes, f

    def test_minors_edge_shapes(self, gf7):
        cases = [
            (MatGF(gf7, []), (True, None)),  # no rows: the one empty minor is 1
            (MatGF(gf7, [[1, 0, 2]]), (False, (1,))),  # k = 1: a zero entry
            (MatGF(gf7, [[1, 2, 3]]), (True, None)),
            (MatGF(gf7, [[1, 2], [3, 4]]), (True, None)),  # k = n
            (MatGF(gf7, [[1, 2], [2, 4]]), (False, (0, 1))),
            (MatGF(gf7, [[1, 0, 0], [0, 1, 0]]), (False, (0, 2))),  # last column zero
            (MatGF(gf7, [[1, 1, 2, 0], [2, 3, 4, 1]]), (False, (0, 2))),  # column 2 = 2 col 0
            (MatGF(gf7, [[1, 0, 1, 2], [0, 1, 1, 3], [1, 1, 2, 5]]), (False, (0, 1, 2))),
        ]
        for G, want in cases:
            assert brute_is_mds_minors(G) == want
            assert is_mds_minors(G) == want, G.to_lists()
        with pytest.raises(ValidationError, match="at least as many columns"):
            is_mds_minors(MatGF(gf7, [[1], [2]]))

    def test_minors_make_no_per_subset_elimination(self, gf31, monkeypatch):
        # a [10,5] GRS code is MDS, so the walk visits every prefix; it
        # reduces carried columns and never takes a determinant or a rank
        spec = TgrsSpec(field=gf31, n=10, k=5, l=0, h=2,
                        alpha=tuple(gf31.element(a) for a in range(1, 11)),
                        v=(gf31.one(),) * 10, eta=(gf31.zero(),))
        G = generator_matrix(spec)
        linalg = sys.modules["tgrs.linalg"]

        def refuse(*args):
            raise AssertionError("the minors walk eliminated a submatrix")

        monkeypatch.setattr(linalg, "det", refuse)
        monkeypatch.setattr(linalg, "_echelon", refuse)
        assert is_mds_minors(G) == (True, None)

    @pytest.mark.parametrize("high_rate", [False, True], ids=["9_3", "22_20"])
    def test_minors_walk_node_budget(self, high_rate, monkeypatch):
        # an MDS generator, so the walk visits every independent prefix that
        # can still complete a k-subset: C(n, k-1) nodes, 36 on the [9,3,7]
        # generator and 1,540 on a [22,20] Vandermonde over GF(23), where
        # prefixes of every size below k would be sum_{s<k} C(n, s) ~ 4.19M
        G = (MatGF(get_field(23), [[a**i for a in range(1, 23)] for i in range(20)])
             if high_rate else generator_matrix(GOLDEN_CODES[1].spec()))
        k, n = G.rows, G.cols
        nodes = math.comb(n, k - 1)
        assert is_mds_minors(G) == (True, None)  # the default budget
        monkeypatch.setattr(CLASSIFY, "DISTANCE_NODE_BUDGET", nodes)
        assert is_mds_minors(G) == (True, None)
        monkeypatch.setattr(CLASSIFY, "DISTANCE_NODE_BUDGET", nodes - 1)
        with pytest.raises(ResourceLimitError) as info:
            is_mds_minors(G)
        assert str(info.value) == (f"MDS minors check stopped at its budget of {nodes - 1} "
                                   f"nodes; no dependent set of at most {k} columns found yet")

    def test_phi_agrees_with_minors_randomized(self):
        rng = random.Random(21)
        agree_false = 0
        for _ in range(40):
            spec = random_spec(rng, n_max=9)
            phi_ok, phi_cert = is_mds_phi(spec)
            minor_ok, minor_cert = is_mds_minors(generator_matrix(spec))
            assert phi_ok == minor_ok
            assert phi_cert == minor_cert  # same lex-first witness
            agree_false += 0 if phi_ok else 1
        assert agree_false > 0  # the sample exercises both branches


class TestMinDistance:
    def test_published_distances(self):
        assert min_distance(parity_check_matrix(GOLDEN_CODES[1].spec())) == 7
        assert min_distance(parity_check_matrix(GOLDEN_CODES[3].spec())) == 8

    def test_duplicate_identity_columns(self, gf7):
        I3 = identity(gf7, 3)
        H = MatGF(gf7, [list(r1) + list(r2) for r1, r2 in zip(I3.row_list(), I3.row_list())])
        assert min_distance(H) == 2

    def test_matches_codeword_enumeration(self):
        rng = random.Random(22)
        for _ in range(8):
            spec = random_spec(rng, qs=(7,), n_max=7)
            if spec.field.q**spec.k > 3000:
                continue
            H = parity_check_matrix(spec)
            assert min_distance(H) == brute_min_weight(spec)
        rng = random.Random(24)
        for ext in (GF8, GF9, GF16):
            checked = 0
            for _ in range(6):
                spec = random_spec(rng, qs=(ext,), n_max=8)
                if spec.field.q**spec.k > 3000:
                    continue
                H = parity_check_matrix(spec)
                assert min_distance(H) == brute_min_weight(spec)
                checked += 1
            assert checked > 0

    def test_matches_subset_elimination_oracle(self):
        # every field draws, in turn, k = 1 (rows = n - 1) and 2 <= 2k < n for
        # the hyperplane walk, then the tie 2k = n and 2k > n for the column
        # walk.  Every floor is tried: one that holds gives d, and a wrong one
        # (above d), which the column walk uses to skip sets, still ends at
        # or below it, where classify certifies the floor.
        rng = random.Random(25)
        seen_d = set()
        for q in (2, 3, 7, 31) + EXTENSION_FIELDS:
            f = get_field(q) if isinstance(q, int) else get_field(*q)
            for i in range(40):
                n, k = draw_shape(rng, i % 4)
                H = random_parity_check(rng, f, n - k, n)
                d = min_distance(H)
                assert d == brute_min_distance(H), (f, H.to_lists())
                for floor in range(2, H.rows + 2):
                    got = min_distance(H, floor=floor)
                    assert got == d if floor <= d else got <= floor, (f, floor, H.to_lists())
                seen_d.add(d)
        assert {1, 2, 3, 4} <= seen_d

    def test_eighteenth_roots_code_matches_the_column_walk(self, gf37):
        # [18,6] on the 18th roots of unity: 1,003 hyperplane nodes, and the
        # column walk, forced here, needs 149,409
        H = parity_check_matrix(eighteenth_roots_spec(gf37))
        assert min_distance(H) == 10
        walk = CLASSIFY._Walk(H.rows + 1)
        CLASSIFY._column_walk(H, walk)
        assert walk.best == 10

    def test_square_parity_check_has_no_dependent_set(self, gf7):
        with pytest.raises(VerificationError):
            min_distance(identity(gf7, 3))

    def test_witness_recheck_catches_a_column_walk_fault(self, monkeypatch):
        H = parity_check_matrix(high_rate_spec())  # 7 x 15, k = 8: the column walk
        field, row_op = H.field, H.field._eliminate

        def faulty(dst, src, c, pinv):
            # wipes the walk's carried columns (length 7); the rows that
            # null_space and rank reduce (length 15 or the witness size) stay exact
            if len(dst) == H.rows:
                dst[:] = [0] * len(dst)
            else:
                row_op(dst, src, c, pinv)

        monkeypatch.setattr(field, "_eliminate", faulty)
        with pytest.raises(VerificationError, match="witness"):
            min_distance(H)

    def test_witness_recheck_rejects_a_false_dependency(self, monkeypatch):
        H = parity_check_matrix(GOLDEN_CODES[1].spec())  # 6 x 9, k = 3, d = 7
        kernel = CLASSIFY.null_space

        def faulty(M):
            # a generator whose first column is falsely zero, so the walk
            # sees codewords one lighter than the code's
            G = kernel(M)
            return MatGF._from_reps(G.field, tuple((0,) + row[1:] for row in G._data))

        monkeypatch.setattr(CLASSIFY, "null_space", faulty)
        with pytest.raises(VerificationError, match="witness"):
            min_distance(H)

    @pytest.mark.parametrize("spec,d", [(GOLDEN_CODES[0].spec(), 10),
                                        (GOLDEN_CODES[2].spec(), 8),
                                        (high_rate_spec(), 6)],
                             ids=["15_4_hyperplane", "15_6_hyperplane", "15_8_columns"])
    def test_witness_is_a_minimal_dependent_set(self, spec, d, monkeypatch):
        # the re-checked witness has exactly d columns of rank d - 1: the
        # support of a lightest codeword
        H = parity_check_matrix(spec)
        witnesses = []
        submatrix = MatGF.submatrix
        monkeypatch.setattr(MatGF, "submatrix", lambda M, r, c: witnesses.append(c)
                            or submatrix(M, r, c))
        assert min_distance(H) == d
        assert len(witnesses) == 1 and len(witnesses[0]) == d
        monkeypatch.undo()
        assert rank(H.submatrix(tuple(range(H.rows)), witnesses[0])) == d - 1

    def test_no_per_subset_elimination(self, monkeypatch):
        H = parity_check_matrix(GOLDEN_CODES[0].spec())
        calls = {"rank": 0, "submatrix": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(CLASSIFY, "rank", counted("rank", CLASSIFY.rank))
        monkeypatch.setattr(MatGF, "submatrix", counted("submatrix", MatGF.submatrix))
        assert min_distance(H) == 10
        assert calls["rank"] <= 2
        assert calls["submatrix"] <= 1

    def test_node_budget_enforced(self, monkeypatch):
        spec = GOLDEN_CODES[0].spec()  # [15,4,10]: 66 hyperplane nodes, floor 8
        H = parity_check_matrix(spec)
        monkeypatch.setattr(CLASSIFY, "DISTANCE_NODE_BUDGET", 66)
        assert min_distance(H) == 10
        monkeypatch.setattr(CLASSIFY, "DISTANCE_NODE_BUDGET", 65)
        messages = []
        for _ in range(2):
            with pytest.raises(ResourceLimitError) as info:
                min_distance(H)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0] == ("minimum-distance search stopped at its budget of 65 nodes; "
                               "best bounds so far 1 <= d <= 10")
        # classify passes the certified floor n - k - l, which is not tight here
        with pytest.raises(ResourceLimitError) as info:
            classify(spec, want_distance=True)
        assert str(info.value) == messages[0].replace("1 <= d", "8 <= d")

    @pytest.mark.parametrize("index,nodes", [(0, 66), (1, 8), (2, 497), (3, 9)])
    def test_reference_hyperplane_node_counts(self, index, nodes):
        H = parity_check_matrix(GOLDEN_CODES[index].spec())
        walk = CLASSIFY._Walk(H.rows + 1)
        CLASSIFY._hyperplane_walk(null_space(H), walk)
        assert walk.nodes == nodes

    def test_count_bound_matches_subset_elimination_oracle(self):
        # low-rate codes, so the hyperplane walk and its count bound: a
        # pruned subtree that still held a lighter codeword shows here as a
        # wrong d.  Planted multiples of a column (zero included) make
        # columns that lie in the span of a prefix.
        rng = random.Random(31)
        fields = [get_field(2), get_field(3), get_field(2, 2, (1, 1, 1)), get_field(7),
                  get_field(*GF8), get_field(*GF9)]
        seen_d = set()
        for i in range(400):
            f = fields[i % len(fields)]
            n = rng.randint(7, 10)
            k = rng.randint(3, (n - 1) // 2)
            for _ in range(50):  # one or two draws are the norm
                cols = [[rng.randrange(f.q) for _ in range(k)] for _ in range(n)]
                for _ in range(rng.randint(0, 3)):
                    c, src = rng.randrange(f.q), rng.randrange(n)
                    cols[rng.randrange(n)] = [f._mul(c, x) for x in cols[src]]
                G = MatGF._from_reps(f, tuple(zip(*cols)))
                if rank(G) == k:
                    break
            else:
                raise AssertionError(f"no full-rank {k}x{n} draw over {f} in 50 tries")
            H = null_space(G)
            d = brute_min_distance(H)
            assert min_distance(H) == d, (f, G.to_lists())
            assert min_distance(H, floor=d) == d, (f, G.to_lists())
            seen_d.add(d)
        assert {1, 2, 3, 4} <= seen_d

    @pytest.mark.parametrize("floor", [0, 8, True, 2.0, None])
    def test_floor_outside_range_rejected(self, floor):
        H = parity_check_matrix(GOLDEN_CODES[1].spec())  # 6 x 9: floors 1..7
        with pytest.raises(ValidationError, match="floor"):
            min_distance(H, floor=floor)

    @pytest.mark.parametrize("q,n,k,d", [(73, 24, 12, 10), (73, 36, 12, 22)],
                             ids=["24_12_columns", "36_12_hyperplane"])
    def test_certified_floor_settles_former_slow_inputs(self, q, n, k, d, monkeypatch):
        # on the n-th roots of unity with h = 2, l = 2, d = n - k - l: the walk
        # stops at the floor after 22,416 and 377 nodes; without it [24,12]
        # needs 1.29M nodes and [36,12] exceeds the default budget
        monkeypatch.setattr(CLASSIFY, "DISTANCE_NODE_BUDGET", 50_000)
        f = get_field(q)
        spec = TgrsSpec(field=f, n=n, k=k, l=2, h=2,
                        alpha=tuple(f.roots_of_xn_minus_lambda(n, f.one())),
                        v=(f.element(2),) * n, eta=tuple(f.element(e) for e in (3, 5, 7)))
        assert classify(spec, want_distance=True).min_distance == d

    def test_generator_outside_grs_refused(self, monkeypatch):
        # the bad row weighs n - k - l = 5, so the walk stops at the floor
        bad = refused_outside_grs(monkeypatch, roots=4)
        assert min_distance(null_space(bad), floor=5) == 5

    def test_distance_below_a_wrong_floor_refused(self, monkeypatch):
        # the bad row vanishes on k + l + 1 points, so it weighs one below the
        # floor the code no longer meets; any d at or below the floor meets
        # the GRS certificate, which refuses it
        bad = refused_outside_grs(monkeypatch, roots=5)
        assert min_distance(null_space(bad)) == 4

    def test_floor_certified_only_when_met(self, monkeypatch):
        # the certificate rank is spent only on a d at or below the floor; the
        # reference codes sit above their floors (10, 7, 8, 8 against 8, 5,
        # 6, 5), and [18,6] GF(37) on the 18th roots of unity meets its floor 10
        calls = []
        certify = CLASSIFY._certify_grs_floor
        monkeypatch.setattr(CLASSIFY, "_certify_grs_floor",
                            lambda spec, G, context: calls.append(spec.n)
                            or certify(spec, G, context))
        for gc in GOLDEN_CODES:
            classify(gc.spec(), want_distance=True)
        assert calls == []
        f = get_field(37)
        spec = TgrsSpec(field=f, n=18, k=6, l=2, h=2,
                        alpha=tuple(f.roots_of_xn_minus_lambda(18, f.one())),
                        v=(f.element(2),) * 18, eta=tuple(f.element(e) for e in (3, 5, 7)))
        assert classify(spec, want_distance=True).min_distance == 10
        assert calls == [18]

    def test_budget_counts_nodes_not_length(self, gf31, monkeypatch):
        # 3 x 30 Vandermonde: any 3 columns are independent, so d = 4; the
        # length does not matter, the column walk needs only 466 nodes
        H = MatGF(gf31, [[a**i for a in range(1, 31)] for i in range(3)])
        assert min_distance(H) == 4
        monkeypatch.setattr(CLASSIFY, "DISTANCE_NODE_BUDGET", 466)
        assert min_distance(H) == 4
        monkeypatch.setattr(CLASSIFY, "DISTANCE_NODE_BUDGET", 465)
        with pytest.raises(ResourceLimitError, match="budget of 465 nodes"):
            min_distance(H)

    def test_rank_deficient_rejected(self, gf7):
        with pytest.raises(ValidationError, match="row rank"):
            min_distance(MatGF(gf7, [[1, 2, 3], [2, 4, 6]]))


class TestCriterionRowBudget:
    def test_budget_enforced(self, monkeypatch):
        spec = GOLDEN_CODES[0].spec()  # [15,4]: 6 rows to (0,1,2,8), 57 in all
        report = classify(spec)
        monkeypatch.setattr(CLASSIFY, "CRITERION_ROW_BUDGET", 57)
        assert classify(spec) == report
        messages = []
        for budget in (56, 56, 5):
            monkeypatch.setattr(CLASSIFY, "CRITERION_ROW_BUDGET", budget)
            with pytest.raises(ResourceLimitError) as info:
                classify(spec)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith("budget of 56 rows (n=15, k=4); "
                                    "dependent columns (1-based): [1, 2, 3, 9]")
        # a refusal inside the first walk knows no dependent subset yet
        assert messages[2].endswith("budget of 5 rows (n=15, k=4); "
                                    "dependent columns (1-based): none found yet")

    def test_budget_counts_rows_of_one_table(self, monkeypatch):
        # rows a shared table already holds are free, every verdict on it counts
        # toward one budget, and a refusal names only its own walk's dependent set;
        # the AMDS scan holds no row, so a second classification reads its 51
        # rows again, and another twist's walk holds rows 7..52 of the table
        spec = GOLDEN_CODES[0].spec()  # [15,4]: 6 rows held, 57 read
        table = PhiWorkspace(spec.alpha, spec.k, spec.h, spec.l)
        report = classify(spec, workspace=table)
        monkeypatch.setattr(CLASSIFY, "CRITERION_ROW_BUDGET", 57)
        assert classify(spec, workspace=table) == report
        other = TgrsSpec(field=spec.field, n=spec.n, k=spec.k, l=spec.l, h=spec.h,
                         alpha=spec.alpha, v=spec.v, eta=(1, 1, 1, 1))
        monkeypatch.setattr(CLASSIFY, "CRITERION_ROW_BUDGET", 51)
        with pytest.raises(ResourceLimitError) as info:
            classify(other, workspace=table)
        assert str(info.value).endswith("budget of 51 rows (n=15, k=4); "
                                        "dependent columns (1-based): none found yet")
        monkeypatch.setattr(CLASSIFY, "CRITERION_ROW_BUDGET", 52)
        assert classify(other, workspace=table) == classify(other)
        assert len(table._cols[0]) == 52


class TestAmds:
    def test_mds_code_is_not_amds(self):
        assert is_amds(GOLDEN_CODES[1].spec()) == (False, None, None)

    def test_agrees_with_distance_randomized(self, gf7):
        rng = random.Random(23)
        seen_true = 0
        for _ in range(25):
            spec = random_spec(rng, qs=(7,), n_max=7)
            ok, _, _ = is_amds(spec)
            d = min_distance(parity_check_matrix(spec))
            assert ok == (d == spec.n - spec.k)
            seen_true += int(ok)
        assert seen_true > 0
        rng = random.Random(33)
        for ext in EXTENSION_FIELDS:
            seen = set()
            for _ in range(15):
                spec = random_spec(rng, qs=(ext,), n_max=7)
                ok, _, _ = is_amds(spec)
                d = min_distance(parity_check_matrix(spec))
                assert ok == (d == spec.n - spec.k), spec
                seen.add(ok)
            assert True in seen, ext

    def test_matches_superset_rank_oracle(self):
        # verdict and certificates must match ranks of G on every (k+1)-subset
        seen = {"scanned": 0, "deficient": 0, "no_scan": 0, "zero_point": 0}
        for spec, idx, eta in amds_specs():
            want = brute_is_amds(spec)
            assert is_amds(spec) == want, spec
            if want[1] is not None:
                seen["no_scan" if not any(eta[1:]) else "scanned"] += 1
                seen["deficient"] += want[2] is not None
                seen["zero_point"] += 0 in idx
        assert min(seen.values()) >= 30, seen

    def test_superset_root_is_the_first_deficient_superset(self):
        # the superset re-check the scan no longer runs, as an oracle: for a
        # singular I, the first root of P_I is the first j whose I + (j,) has
        # every k-subset singular; a few I have two such j
        seen = {"deficient": 0, "two_or_more": 0}
        for spec, _, eta in amds_specs():
            table = PhiWorkspace(spec.alpha, spec.k, spec.h, spec.l)

            def singular(S):
                return spec.field._dot(eta, table._row(S)) == 1

            for I in itertools.combinations(range(spec.n - 1), spec.k):
                if not singular(I):
                    continue
                deficient = [j for j in range(I[-1] + 1, spec.n)
                             if all(map(singular, itertools.combinations(I + (j,), spec.k)))]
                assert table._superset_root(eta, I) == (deficient or [None])[0], (spec, I)
                seen["deficient"] += bool(deficient)
                seen["two_or_more"] += len(deficient) > 1
        assert seen == {"deficient": 54, "two_or_more": 2}, seen

    def test_deficient_superset_certificate(self, gf7):
        # known instance whose columns 0,3,4 span fewer than k dimensions
        from tgrs import rank
        f = gf7
        spec = TgrsSpec(field=f, n=5, k=2, l=1, h=1,
                        alpha=tuple(f.element(a) for a in (0, 1, 2, 3, 4)),
                        v=(f.one(),) * 5,
                        eta=(f.zero(), f.element(3)))
        ok, _, deficient = is_amds(spec)
        assert not ok
        assert deficient == (0, 3, 4)
        G = generator_matrix(spec)
        assert rank(G.submatrix((0, 1), deficient)) < spec.k
        d = min_distance(parity_check_matrix(spec))
        assert d < spec.n - spec.k


    def test_twist_of_degree_k_needs_no_superset_scan(self, monkeypatch):
        # eta = (eta_0,): the code lies in GRS_{k+1}, so a non-MDS one is AMDS.
        # A random [40,8] GF(101) code finds its dependent set at row 223; a
        # scan of the C(39,8) first k-subsets would run into any budget
        monkeypatch.setattr(CLASSIFY, "CRITERION_ROW_BUDGET", 1_000)
        f, rng = get_field(101), random.Random(0)
        spec = TgrsSpec(field=f, n=40, k=8, l=0, h=2,
                        alpha=tuple(f.element(a) for a in rng.sample(range(101), 40)),
                        v=tuple(f.element(rng.randrange(1, 101)) for _ in range(40)),
                        eta=(f.element(rng.randrange(1, 101)),))
        report = classify(spec)
        assert report.is_amds and not report.is_mds
        assert report.certificates == {"mds_violating_subset": (0, 1, 2, 3, 4, 5, 13, 27),
                                       "amds_dependent_subset": (0, 1, 2, 3, 4, 5, 13, 27)}


class TestHull:
    def test_published_codes_are_lcd(self):
        for gc in GOLDEN_CODES:
            spec = gc.spec()
            assert hull_dimension(generator_matrix(spec), parity_check_matrix(spec)) == 0

    def test_self_dual_style_stack(self):
        f2 = get_field(2)
        G = MatGF(f2, [[1, 1]])
        assert hull_dimension(G, G) == 1  # hull is the whole 1-dim code

    def test_matches_enumeration_oracle(self):
        rng = random.Random(24)
        checked = 0
        while checked < 6:
            spec = random_spec(rng, qs=(7,), n_max=6)
            if spec.field.q**spec.k > 2500:
                continue
            G = generator_matrix(spec)
            H = parity_check_matrix(spec)
            assert hull_dimension(G, H) == brute_hull_dim(spec)
            checked += 1

    def test_matches_kernel_intersection_oracle(self):
        # independent route: intersect the row space with the kernel's row
        # space by solving a G = b N, i.e. the kernel of [G^T | -N^T]
        from tgrs import null_space, rank
        rng = random.Random(31)
        for _ in range(10):
            spec = random_spec(rng, n_max=9)
            G = generator_matrix(spec)
            H = parity_check_matrix(spec)
            N = null_space(G)
            f = spec.field
            paired = MatGF(f, [list(gr) + [-x for x in nr]
                               for gr, nr in zip(G.transpose().row_list(),
                                                 N.transpose().row_list())])
            intersection_dim = paired.cols - rank(paired)
            assert hull_dimension(G, H) == intersection_dim

    def test_lcd_pair_costs_one_rank(self, monkeypatch):
        # a stacked rank of n = k + (n-k) implies both blocks have full row
        # rank, so an LCD pair is settled by that rank alone; a pair with a
        # hull checks G and H by their own ranks too
        calls = []
        counted = CLASSIFY.rank
        monkeypatch.setattr(CLASSIFY, "rank", lambda M: calls.append(M.rows) or counted(M))
        for gc in GOLDEN_CODES:
            spec = gc.spec()
            calls.clear()
            assert hull_dimension(generator_matrix(spec), parity_check_matrix(spec)) == 0
            assert calls == [spec.n]
        f2 = get_field(2)
        calls.clear()
        assert hull_dimension(MatGF(f2, [[1, 1]]), MatGF(f2, [[1, 1]])) == 1
        assert calls == [2, 1, 1]

    def test_precondition_violations_named(self, gf7):
        G = MatGF(gf7, [[1, 0, 0], [0, 1, 0]])
        H_bad = MatGF(gf7, [[0, 1, 0]])
        with pytest.raises(ValidationError, match="annihilate"):
            hull_dimension(G, H_bad)
        with pytest.raises(ValidationError, match="row rank"):
            hull_dimension(MatGF(gf7, [[1, 1, 1], [2, 2, 2]]), MatGF(gf7, [[1, 2, 3]]))
        with pytest.raises(ValidationError, match="share the length"):
            hull_dimension(G, MatGF(gf7, [[1, 2]]))
        with pytest.raises(ValidationError,
                           match=r"^parity-check matrix must have full row rank n-k$"):
            hull_dimension(G, MatGF(gf7, [[0, 0, 1], [0, 0, 2]]))
        with pytest.raises(ValidationError, match=r"^row counts must satisfy k \+ \(n-k\) = n$"):
            hull_dimension(MatGF(gf7, [[1, 0, 0]]), MatGF(gf7, [[0, 1, 0]]))


class TestClassify:
    def test_shared_table_gives_the_same_report(self):
        rng = random.Random(27)
        for _ in range(10):
            spec = random_spec(rng, n_max=8)
            table = PhiWorkspace(spec.alpha, spec.k, spec.h, spec.l)
            shared = classify(spec, workspace=table)
            assert report_to_json(shared) == report_to_json(classify(spec))
            assert is_mds_phi(spec, workspace=table) == is_mds_phi(spec)
            assert is_amds(spec, workspace=table) == is_amds(spec)

    def test_one_context_per_table(self, monkeypatch):
        # a criterion table builds its point-set context on first use, and
        # every parity check of a classification through the table reads it;
        # a classification without a table builds one with its own table
        built = []
        init = SymContext.__init__
        monkeypatch.setattr(SymContext, "__init__",
                            lambda self, points: built.append(1) or init(self, points))
        spec = GOLDEN_CODES[1].spec()
        classify(spec)
        assert len(built) == 1
        table = PhiWorkspace(spec.alpha, spec.k, spec.h, spec.l)
        assert len(built) == 1
        assert hasattr(table, "context") and len(built) == 2
        for eta in ((1, 2), (22, 24), (5, 0)):
            other = TgrsSpec(field=spec.field, n=spec.n, k=spec.k, l=spec.l, h=spec.h,
                             alpha=spec.alpha, v=spec.v, eta=eta)
            assert report_to_json(classify(other, workspace=table)) == \
                report_to_json(classify(other))
        assert len(built) == 2 + 3

    def test_one_polynomial_product_per_classification(self, monkeypatch):
        # the point-set context multiplies out its points once; the criterion
        # rows take their products on reps and build no Poly
        calls = []
        from_roots = Poly.from_roots
        monkeypatch.setattr(Poly, "from_roots", classmethod(
            lambda cls, field, roots: calls.append(len(roots)) or from_roots(field, roots)))
        report = classify(GOLDEN_CODES[1].spec())
        assert report.is_mds and report.is_lcd
        assert calls == [9]

    def test_one_criterion_walk_per_classification(self, monkeypatch):
        # the MDS certificate and the AMDS dependent subset come from one walk
        walks = []
        first_singular = PhiWorkspace._first_singular
        monkeypatch.setattr(PhiWorkspace, "_first_singular",
                            lambda self, eta: walks.append(1) or first_singular(self, eta))
        rng = random.Random(25)
        specs = [gc.spec() for gc in GOLDEN_CODES] + [random_spec(rng, n_max=8)
                                                       for _ in range(20)]
        reports = [classify(spec) for spec in specs]
        assert {r.is_mds for r in reports} == {True, False}
        assert len(walks) == len(specs)
        for report in reports:
            certs = report.certificates
            assert certs.get("mds_violating_subset") == certs.get("amds_dependent_subset")
            assert report.is_mds == ("mds_violating_subset" not in certs)

    def test_mismatched_table_rejected(self):
        spec = GOLDEN_CODES[1].spec()  # [9,3] with h = 1, l = 1
        n, k, h, l = spec.n, spec.k, spec.h, spec.l
        tables = [PhiWorkspace(spec.alpha[::-1], k, h, l),
                  PhiWorkspace(spec.alpha, k + 1, h, l),
                  PhiWorkspace(spec.alpha, k, h + 1, l),
                  PhiWorkspace(spec.alpha, k, h, l + 1)]
        for table in tables:
            for check in (classify, is_mds_phi, is_amds):
                with pytest.raises(ValidationError, match="criterion table"):
                    check(spec, workspace=table)

    def test_published_mds_code_report(self):
        report = classify(GOLDEN_CODES[1].spec(), want_distance=True)
        assert report.is_mds and report.is_lcd and not report.is_amds
        assert report.hull_dim == 0
        assert report.min_distance == 7
        assert report.params_string() == "[9,3,7]"

    def test_published_lcd_code_report(self):
        report = classify(GOLDEN_CODES[0].spec())
        assert report.is_lcd and report.hull_dim == 0
        assert report.min_distance is None

    def test_grs_baseline(self, gf7):
        spec = TgrsSpec(field=gf7, n=6, k=3, l=0, h=1,
                        alpha=tuple(gf7.element(a) for a in (1, 2, 3, 4, 5, 0)),
                        v=(gf7.one(),) * 6, eta=(gf7.zero(),))
        report = classify(spec, want_distance=True)
        assert report.is_mds
        assert report.min_distance == 4

    def test_verdicts_mutually_exclusive(self):
        rng = random.Random(25)
        for _ in range(20):
            report = classify(random_spec(rng, n_max=8))
            assert not (report.is_mds and report.is_amds)
            assert report.is_lcd == (report.hull_dim == 0)

    def test_boundary_hook_noted(self, gf7):
        spec = TgrsSpec(field=gf7, n=6, k=2, l=0, h=1,
                        alpha=tuple(gf7.element(a) for a in (1, 2, 3, 4, 5, 0)),
                        v=(gf7.one(),) * 6, eta=(gf7.one(),))
        report = classify(spec)
        assert any("boundary" in n for n in report.notes)

    def test_certificates_one_based_in_json(self):
        rng = random.Random(26)
        for _ in range(100):  # the first draw is non-MDS at this seed
            spec = random_spec(rng, n_max=8)
            ok, cert = is_mds_phi(spec)
            if not ok:
                report = classify(spec)
                blob = report_to_json(report)
                assert blob["certificates"]["mds_violating_subset"] == [i + 1 for i in cert]
                break
        else:
            raise AssertionError("no non-MDS spec in 100 draws")
