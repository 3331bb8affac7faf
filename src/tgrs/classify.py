"""MDS / AMDS / LCD classification of twisted GRS codes.

Two independent routes decide MDS-ness: the per-subset twist criterion and
the columns of the generator matrix G; the test suite keeps them in
agreement.  The minors route is the distance's column walk over G,
stopped at its first dependent set of at most k columns; it reads G alone.
The criterion reads rows from PhiWorkspace, one lazily filled table per
point set and (k, h, l), which the MDS and AMDS verdicts and the twist
search share; the search reads each row once per prefix of its twist
vectors and crosses out the coordinate it solves for that makes the row
singular.
It holds the rows of the first subsets in lexicographic order, each the
``symm.criterion_row`` of its subset, as l + 1 columns and nowhere else,
so CRITERION_ROW_BUDGET bounds its memory as well as its work; a walk
first runs one bulk pass over them (``Field._dots``) and reads only the
later rows one by one.  It carries the product and the complete symmetric
series of every prefix of the last subset asked for, each one
``poly.linear_step`` and one ``symm.series_step`` from its parent, so a
row read in lexicographic order costs a few steps from its neighbour's
prefix.  The table also builds the SymContext of its points on first use,
and the generator, parity check and floor certificate of every code
classified through it read that one context.
For a singular k-subset I, the (k+1)-superset I + (j,) is deficient
exactly when alpha_j is a root of P_I, a polynomial of degree at most l
read off the series of I, so the AMDS scan reads P_I alone; it needs no
scan at all when eta_1..eta_l are zero; past the held rows it reads its
rows without holding them.

Minimum distance takes one of two depth-first walks, by the shape of H
alone, k = n - rows: a low-rate code, 2k < n, walks the hyperplanes spanned
by columns of a generator G of ker H (d is n minus the most columns in one)
and prunes those too small to beat the best codeword; any other code walks
column subsets of H for the smallest dependent set.  Both carry only the
columns after a node's last one, reduced against its prefix.  Either stops
once its best is at or below a floor known in advance, which the column
walk also uses to skip sets too late to grow to it: ``classify`` passes
n - k - l, the distance of a GRS code holding C, and certifies it by one
rank when d is at or below it.  The three walks (minors and the two
distance walks) share one column-clearing step, which the hyperplane
walk's last level narrows to two coordinates, the bounds, the node count
and the fixed node budget, past which they raise ResourceLimitError (the
minors route in its own words); a distance witness is re-checked by a
rank of its columns of H, and a square parity check (no dependent set)
raises VerificationError.  LCD status comes from the rank of the
generator stacked on the parity check, which alone settles an LCD pair.

Subset enumeration is lexicographic and the first violation is always the
reported certificate, so reruns are reproducible.  Certificates use 1-based
positions in serialized form; the in-process API is 0-based.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field as dc_field
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .codes import TgrsSpec, check_shape, generator_matrix, parity_check_matrix
from .errors import ResourceLimitError, ValidationError, VerificationError
from .gf import FieldElement, _is_int
from .linalg import MatGF, null_space, rank
from .poly import linear_step
from .symm import SymContext, distinct_points, series_step, tail_sums

# Nodes any one walk may visit: either distance walk, or the column walk of the
# minors route (C(n, k-1) nodes on an MDS k x n generator, 1,540 at [22,20]).
# On a 2-vCPU Xeon VM a column-walk node costs ~7 us at [24,12], so the budget
# is ~15 s there; a hyperplane node clears the columns after its last one,
# and its last level only two coordinates of them, ~17-21 us at n = 24-36, so
# ~35 s there.  The four reference codes need 66, 8, 497 and 9 hyperplane
# nodes (24,545, 382, 10,124 and 848 column nodes).
DISTANCE_NODE_BUDGET = 2_000_000

# Rows one criterion table may hold, ~11-13 us each at k = 6-8 read in
# lexicographic order on a 2-vCPU Xeon VM, so ~3 s; a [30,5] code needs at
# most C(30,5) = 142,506, held in 3.4 MB at l = 2 over GF(101).  A search's
# one table counts them all, and the AMDS scan the rows it reads past them.
CRITERION_ROW_BUDGET = 250_000


class PhiWorkspace:
    """The twist-criterion table of one point set, for fixed k, h and l.

    The row of a k-subset I of the evaluation points is the ``criterion_row``
    of its points with hook h, d_t(I) = -[x^h] (x^(k+t) mod g_I) for
    t = 0..l, g_I the product of x - alpha_i over I.  The k columns of I are
    dependent in the code with twist vector eta exactly when
    1 - sum_t eta_t d_t(I) = 0.

    Rows depend on the points, k, h and l only, never on eta or v, so one
    table serves every twist vector and column scaling on the point set.
    It holds the rows of the first subsets in lexicographic order, and only
    those, as l + 1 columns of canonical reps that the walks grow as they
    read on (``_later_rows``): every walk (``_first_singular``,
    ``_survivors``) runs one bulk pass over the held columns and then reads
    the later rows one by one, computing the same rows, and refusing at the
    same row, as a walk that reads each row in turn.  The verdicts stop at
    their first witness, so tables stay partial.  Every row is computed by
    ``_row`` off the product c(I) and series h(I) of one carried prefix
    (``_carry``), which a lexicographic walk mostly leaves in place.  A row
    read when the held rows and those its walk read without holding them
    (the AMDS scan's) number CRITERION_ROW_BUDGET raises ResourceLimitError,
    so the budget bounds the table's memory too.

    The twist search walks the table once per prefix eta_0..eta_(s-1)
    (``_survivors``), each row solved for eta_s, s = l or, with eta_l pinned
    to 0, s = l - 1, the held rows in their solved form (``_solved``); a
    prefix with one value left takes the walk of a single eta, whose eta and
    result are kept, so its hit's classification reuses it, and any other
    hit re-walks the rows by the direct test dot(eta, d) = 1.  ``context``,
    the SymContext of the points, is built on first use, so every code
    classified through the table reads one context for its generator,
    parity check and floor certificate.
    """

    def __init__(self, alpha: Sequence[FieldElement], k: int, h: int, l: int):
        pts = distinct_points(alpha)
        n = len(pts)
        check_shape(n, k, l, h)
        self.field = pts[0].field
        self.alpha, self.n, self.k, self.h, self.l = pts, n, k, h, l
        # the rows held: those of the first subsets in lexicographic order, as
        # l + 1 columns of reps, and per solved index s their solved form
        self._cols: list[list[int]] = [[] for _ in range(l + 1)]
        self._solutions: dict[int, list] = {}
        self._last: Optional[tuple] = None  # (eta, first dependent subset) of the last walk
        # the carried prefix P of the last subset asked for, at most k - 1
        # positions; entry i of the lists below belongs to P[:i]: the reps c
        # of its product, leading coefficient first, and its series h_0..h_l
        self._path: list[int] = []
        self._products: list[list[int]] = [[1]]
        self._series: list[list[int]] = [[1] + [0] * l]

    @functools.cached_property
    def context(self) -> SymContext:
        """The SymContext of the points, built on first use: the generator,
        parity check and floor certificate of every code classified through
        the table read it."""
        return SymContext(self.alpha)

    def _row(self, subset: tuple[int, ...], spent: int = 0) -> tuple:
        """The row of an ascending subset as reps, off the carried prefix and not
        held; ResourceLimitError once the held rows and ``spent`` more number
        CRITERION_ROW_BUDGET."""
        read = len(self._cols[0]) + spent
        if read >= CRITERION_ROW_BUDGET:
            known = self._last and self._last[1]  # the current walk's, once found
            raise ResourceLimitError(
                f"twist criterion stopped at its budget of {read} rows "
                f"(n={self.n}, k={self.k}); dependent columns (1-based): "
                f"{[i + 1 for i in known] if known else 'none found yet'}")
        window, series = self._carry(subset)
        dot = self.field._dot  # the criterion_row formula, on the window
        return tuple(dot(series[t::-1], window) for t in range(self.l + 1))

    def _carry(self, subset: tuple[int, ...]) -> tuple[list[int], list[int]]:
        """The window c_(k-h)..c_(k-h+min(h,l)) of g_I, and h_0..h_l(I).

        The carried prefix is cut back to the part it shares with I and
        extended one point at a time to I[:-1] by ``linear_step`` and
        ``series_step``; the last point then gives only the window and the
        series, which are all a row reads.  In
        lexicographic order that is O(l min(h, l)) per subset.
        """
        f, path, products, series = self.field, self._path, self._products, self._series
        add, mul, neg = f._add, f._mul, f._neg
        keep = 0
        while keep < len(path) and path[keep] == subset[keep]:
            keep += 1
        del path[keep:], products[keep + 1:], series[keep + 1:]
        for i in subset[keep:-1]:
            a = self.alpha[i].rep
            products.append(linear_step(f, products[-1], a))
            series.append(series_step(f, series[-1], a))
            path.append(i)
        a = self.alpha[subset[-1]].rep
        m, c = neg(a), products[-1] + [0]
        lo = self.k - self.h
        # the window of linear_step's product, and only the window
        window = [add(c[j], mul(m, c[j - 1])) for j in range(lo, lo + min(self.h, self.l) + 1)]
        return window, series_step(f, series[-1], a)

    def _superset_root(self, eta: tuple, subset: tuple[int, ...]) -> Optional[int]:
        """The first j > subset[-1] with P_I(alpha_j) = 0, or None; eta given as reps.

        With S_0..S_l the complete symmetric values of the points of I,
        P_I(a) = sum_i a^i Psi_i, Psi_i = sum_{t >= i} eta_t S_{t-i}, and
        P_I(alpha_j) is the x^k coefficient of the twist sum_t eta_t x^(k+t)
        reduced mod the product over J = I + (j,).  For a singular I, J is
        deficient exactly when alpha_j is a root (see ``is_amds``).
        """
        f = self.field
        coeffs = tail_sums(f, eta, self._carry(subset)[1])  # low degree first
        for j in range(subset[-1] + 1, self.n):
            a, value = self.alpha[j].rep, 0
            for c in reversed(coeffs):  # Horner
                value = f._add(f._mul(value, a), c)
            if value == 0:
                return j
        return None

    def _later_rows(self) -> Iterator[tuple[tuple[int, ...], tuple]]:
        """The k-subsets after those the columns hold, in lexicographic order,
        each with its row, which extends the columns as it is read."""
        cols = self._cols
        subsets = itertools.combinations(range(self.n), self.k)
        for I in itertools.islice(subsets, len(cols[0]), None):
            row = self._row(I)
            for col, d in zip(cols, row):
                col.append(d)
            yield I, row

    def _solved(self, s: int) -> tuple[list[list], list[list]]:
        """The held rows solved for eta_s, brought up to the columns' length.

        A row with d_s != 0 is singular for eta_s = c - e.eta[:s], with c =
        1/d_s and e_t = d_t/d_s; it goes into the first column list as
        (c, -e_0, .., -e_(s-1)), whose dot with (1,) + prefix is that root.
        A row with d_s = 0 is singular for every eta_s or for none; it goes
        into the second as (d_0, .., d_(s-1)), whose dot with the prefix is
        1 exactly when it is singular.
        """
        f, cols = self.field, self._cols
        entry = self._solutions.setdefault(
            s, [0, [[] for _ in range(s + 1)], [[] for _ in range(s)]])
        held, solved, flat = entry
        for row in zip(*(col[held:] for col in cols)):
            if row[s]:
                c = f._inv(row[s])
                row, target = (c, *(f._neg(f._mul(d, c)) for d in row[:s])), solved
            else:
                target = flat  # its s columns take d_0..d_(s-1)
            for col, x in zip(target, row):
                col.append(x)
        entry[0] = len(cols[0])
        return solved, flat

    def _first_singular(self, eta: tuple) -> Optional[tuple[int, ...]]:
        """The lexicographically first dependent k-subset, for eta given as reps.

        One bulk pass of the direct test dot(eta, d) == 1 over the held
        columns, then the later rows one by one.
        """
        if self._last is None or self._last[0] != eta:
            self._last = None  # a walk in progress knows no dependent subset yet
            f = self.field
            try:
                i = operator.indexOf(f._dots(eta, self._cols), 1)
            except ValueError:
                found = next((I for I, row in self._later_rows() if f._dot(eta, row) == 1), None)
            else:
                found = next(itertools.islice(
                    itertools.combinations(range(self.n), self.k), i, None))
            self._last = (eta, found)
        return self._last[1]

    def _survivors(self, prefix: tuple, live: set) -> list[int]:
        """The x in ``live``, ascending, for which eta = prefix + (x,), padded
        with zeros to length l + 1, has no dependent k-subset; the prefix
        eta_0..eta_(s-1) given as reps, s <= l the coordinate solved for.

        A single x takes the walk of ``_first_singular``, whose result a
        hit's classification reuses.  Otherwise each row d crosses out the x
        with 1 - prefix.d[:s] = d_s x: its one root, or every x when d_s and
        the left side are 0.  The held rows do it in one bulk pass of their
        solved form (``_solved``); the later rows are read one by one in
        lexicographic order, and once one x is left, by the direct test,
        which costs less than solving them.  So the walk reads the rows the
        walks of the x would read together, and knows no one eta's first
        dependent subset.
        """
        tail = (0,) * (self.l - len(prefix))
        if len(live) < 2:
            return [x for x in live if self._first_singular(prefix + (x,) + tail) is None]
        self._last = None
        f, s = self.field, len(prefix)
        solved, flat = self._solved(s)
        if s and 1 in f._dots(prefix, flat):
            return []
        live.difference_update(f._dots((1,) + prefix, solved))
        rows = self._later_rows()
        while len(live) > 1:
            I, row = next(rows, (None, None))
            if I is None:
                return sorted(live)
            roots = f._solve(f._sub(1, f._dot(prefix, row)), row[s])
            if roots is None:
                return []
            live.difference_update(roots)
        eta = prefix + tuple(live) + tail
        return [eta[s]] if live and all(f._dot(eta, row) != 1 for _, row in rows) else []


def _table_for(spec: TgrsSpec, workspace: Optional[PhiWorkspace]) -> PhiWorkspace:
    if workspace is None:
        return PhiWorkspace(spec.alpha, spec.k, spec.h, spec.l)
    if (workspace.alpha, workspace.k, workspace.h, workspace.l) != (
            spec.alpha, spec.k, spec.h, spec.l):
        raise ValidationError("criterion table was built for other points or (k, h, l)")
    return workspace


def is_mds_phi(spec: TgrsSpec, workspace: Optional[PhiWorkspace] = None
               ) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Twist-criterion MDS test; on failure returns the first bad k-subset."""
    bad = _table_for(spec, workspace)._first_singular(tuple(e.rep for e in spec.eta))
    return bad is None, bad


def _cleared(field, columns: list, u: list, piv: int) -> list:
    """The columns with entry piv cleared against the pivot column u.

    u must be zero before piv.  A column is copied only when it changes, so
    the caller's columns are left as they were.
    """
    pinv = field._inv(u[piv])
    out = []
    for v in columns:
        if v[piv]:
            v = list(v)
            field._eliminate(v, u, piv, pinv)
        out.append(v)
    return out


def is_mds_minors(G: MatGF) -> tuple[bool, Optional[tuple[int, ...]]]:
    """k x k minor check of a k x n generator; on failure the first zero minor.

    G is MDS exactly when no k or fewer columns are dependent, so this is
    ``_column_walk`` over G with bound k + 1 and floor k, stopped at the
    first dependent set P + (j,) it meets; it returns P + (j, j+1, ..,
    j+k-|P|-1), the lexicographically first dependent k-subset S*.  For r
    least with S*[:r] dependent, every k-subset through S*[:r] is, so S* is
    S*[:r] and the columns right after S*[r-1]; the walk meets its sets in
    lexicographic order, a prefix first, so a dependent set met earlier
    would lie in a k-subset before S*.  The floor k keeps the walk to sets
    that complete a k-subset by later columns, S*[:r] among them, so an MDS
    G costs C(n, k-1) nodes.  It reads G alone, never the twist criterion.
    Past DISTANCE_NODE_BUDGET nodes it raises ResourceLimitError, having
    found no dependent set of at most k columns: the dual's distance (the
    smallest dependent column set of G) is then only known to be <= k + 1.
    """
    k, n = G.rows, G.cols
    if k > n:
        raise ValidationError("generator must have at least as many columns as rows")
    bad = None
    if k:
        walk = _Walk(k + 1, floor=k)
        try:
            _column_walk(G, walk)
        except ResourceLimitError:
            raise ResourceLimitError(
                f"MDS minors check stopped at its budget of {walk.nodes} nodes; no "
                f"dependent set of at most {k} columns found yet") from None
        if walk.settled():
            *prefix, j = walk.witness
            bad = (*prefix, *range(j, j + k - len(prefix)))
    return bad is None, bad


def is_amds(spec: TgrsSpec, workspace: Optional[PhiWorkspace] = None
            ) -> tuple[bool, Optional[tuple[int, ...]], Optional[tuple[int, ...]]]:
    """Distance-exactly-n-k test via the two subset conditions.

    Needs (a) some singular k-subset and (b) every (k+1)-subset containing a
    nonsingular k-subset.  Returns (verdict, dependent subset, deficient
    superset): the first dependent k-subset of (a), None for an MDS code,
    and the first (k+1)-subset breaking (b), None when there is none.  The
    dependent subset is the certificate of ``is_mds_phi`` on the same
    table, so one walk decides both MDS and (a).

    For a singular I, J = I + (j,) is deficient exactly when P_I(alpha_j) = 0
    (``PhiWorkspace._superset_root``): with R = (x^h + sum_t eta_t x^(k+t))
    mod g_J, deg R <= k, J is deficient exactly when [x^k] R = P_I(alpha_j)
    and [x^h] R are 0; if [x^k] R = 0, R is also the remainder mod g_I' for
    every k-subset I' of J, so each I' is singular exactly when I is.  So
    the first root of the first such I is the first deficient superset.
    When eta_1..eta_l are zero the twist is eta_0 x^k, the code lies in
    GRS_{k+1} and d >= n - k, so a non-MDS code is AMDS with no scan.
    """
    table = _table_for(spec, workspace)
    mds, dependent = is_mds_phi(spec, workspace=table)
    if mds:
        return False, None, None
    eta, n, k = tuple(e.rep for e in spec.eta), table.n, table.k
    if any(eta[1:]):
        # the k-subsets of range(n - 1) in lexicographic order: the held rows by
        # one bulk pass of the direct test, then the later rows one by one, not
        # held but counted with the held ones against the budget
        f, cols = table.field, table._cols
        subsets = itertools.combinations(range(n), k)
        held = (I for d, I in zip(f._dots(eta, cols), subsets) if d == 1 and I[-1] < n - 1)
        later = itertools.islice(itertools.combinations(range(n), k), len(cols[0]), None)
        later = enumerate(I for I in later if I[-1] < n - 1)
        for I in itertools.chain(held, (I for spent, I in later
                                        if f._dot(eta, table._row(I, spent)) == 1)):
            j = table._superset_root(eta, I)
            if j is not None:
                return False, dependent, I + (j,)
    return True, dependent, None


class _Walk:
    """The two distance bounds, the witness and the nodes spent: what the walks share.

    ``best`` starts at rows + 1 with the first rows + 1 columns as witness,
    as any rows + 1 columns of a full-row-rank matrix are dependent.
    ``floor`` is a lower bound on d known in advance (for the minors route,
    the size k of its sets): a walk stops once ``best`` is at or below it,
    and the column walk tries only sets that can still grow to it.
    """

    def __init__(self, bound: int, floor: int = 1):
        self.best, self.witness, self.nodes, self.floor = bound, tuple(range(bound)), 0, floor

    def settled(self) -> bool:
        return self.best <= self.floor

    def step(self) -> None:
        """Count one node; past DISTANCE_NODE_BUDGET refuse with the bounds so far."""
        if self.nodes >= DISTANCE_NODE_BUDGET:
            raise ResourceLimitError(
                f"minimum-distance search stopped at its budget of {self.nodes} nodes; "
                f"best bounds so far {self.floor} <= d <= {self.best}")
        self.nodes += 1


def _column_walk(H: MatGF, walk: _Walk) -> None:
    """Smallest dependent set of columns of H, by a walk over column subsets.

    Depth first in lexicographic order, a node is an independent prefix
    carrying every later column reduced against it: an extension is
    dependent exactly when its carried column is zero, and a nonzero one is
    the next pivot, cleared from the later carried columns.  Only a set
    smaller than the best is recorded, and only while one is reachable does
    the walk descend, so the last set recorded is the lexicographically
    first smallest.  It stops once the best is at or below the floor f, and
    a prefix P tries only j <= n - f + |P|, leaving room for f columns: the
    sets skipped are smaller than f, so independent when f <= d, and when
    f > d some f-subset, which always has room, is dependent.
    """
    field, n = H.field, H.cols

    def visit(prefix: tuple[int, ...], start: int, carried: list) -> None:
        # carried[i] is column start + i reduced against the prefix
        walk.step()
        size = len(prefix) + 1  # of each extension checked here, always < best
        for j in range(start, min(n, n - walk.floor + size)):  # room for floor columns
            u = carried[j - start]
            if not any(u):
                walk.best, walk.witness = size, prefix + (j,)
                return
            if size + 1 < walk.best:
                piv = next(i for i, x in enumerate(u) if x)
                visit(prefix + (j,), j + 1, _cleared(field, carried[j + 1 - start:], u, piv))
                if walk.settled():
                    return

    visit((), 0, [list(col) for col in zip(*H._data)])


def _hyperplane_walk(G: MatGF, walk: _Walk) -> None:
    """Lightest codeword of the row space of a k x n generator G, k >= 1.

    A codeword x G vanishes on the columns of G in the hyperplane x^perp,
    and a fullest hyperplane is spanned by k - 1 columns, so d = n - (most
    columns in a hyperplane spanned by columns).  The walk visits
    independent sets of up to k - 2 columns depth first in lexicographic
    order, each node carrying the columns after its last one reduced
    against its prefix, and the positions it keeps: the prefix and the
    earlier columns in its span.  At depth k - 2 the carried columns live
    in the two non-pivot coordinates a < b, and the hyperplanes through the
    prefix are the points of that projective line: a nonzero column lies in
    the one of its ratio u_b / u_a (infinity when u_a = 0), a zero column
    in all.  The leaf's largest class of later columns, its zero later
    columns and the kept ones are the zero set of a codeword of weight
    n - kept - zeros - top, whose support is the witness; only a strictly
    lighter one replaces the best, so the first lightest is kept.  The
    level above the leaves clears just those two coordinates of each later
    column against its pivot, and builds no cleared columns.  k = 1 is the
    weight of the one row.

    A hyperplane is first met at the leaf of its greedy basis, the first
    k - 2 of its columns that are independent, so below a child at column j
    it holds only the kept columns, j and the later ones.  So a leaf counts
    exactly each hyperplane it meets first.  One that also holds an earlier
    column outside the kept ones reads too heavy there, but it was counted
    at its own leaf or pruned on the way, so it never beats the best.  A
    node returns before the first child whose count kept + 1 + (n - 1 - j)
    is at most n - best: it and every later child meet only hyperplanes too
    small to beat the best.  The walk stops once the best is at or below
    the walk's floor.
    """
    field, k, n = G.field, G.rows, G.cols
    inv, mul, sub = field._inv, field._mul, field._sub
    if k == 1:
        walk.step()
        walk.witness = tuple(j for j, x in enumerate(G._data[0]) if x)
        walk.best = len(walk.witness)
        return

    def leaf(pairs: list, first: int, kept: tuple[int, ...]) -> None:
        # pairs: the free coordinates (u_a, u_b) of columns first, first + 1, ..
        # key: None for a zero column, -1 for u_a = 0, else the rep of u_b / u_a
        keys = [mul(ub, inv(ua)) if ua else (-1 if ub else None) for ua, ub in pairs]
        counts = Counter(keys)
        zeros = counts.pop(None, 0)
        # never empty: a G of rank k leaves some column nonzero here, and a
        # leaf whose nonzero columns all come before it fails the count bound
        top, size = max(counts.items(), key=itemgetter(1))
        weight = n - len(kept) - zeros - size
        if weight < walk.best:
            walk.best = weight
            walk.witness = (*(j for j in range(first) if j not in kept),
                            *(first + i for i, key in enumerate(keys)
                              if key is not None and key != top))

    def visit(start: int, carried: list, free: tuple[int, ...], kept: tuple[int, ...]) -> None:
        # carried[i] is column start + i reduced against the prefix; kept holds
        # the prefix columns and the earlier columns in their span
        walk.step()
        if len(free) == 2:  # the root, k = 2
            a, b = free
            leaf([(u[a], u[b]) for u in carried], start, kept)
            return
        for j in range(start, n):
            u = carried[j - start]
            piv = next((i for i in free if u[i]), None)
            if piv is None:  # column j lies in the span of the prefix
                kept += (j,)
                continue
            # a hyperplane first met below column j holds at most the kept
            # columns, j and the later ones; this bound never grows with j
            if len(kept) + 1 + (n - 1 - j) <= n - walk.best:
                return
            later, rest = carried[j + 1 - start:], tuple(i for i in free if i != piv)
            if len(rest) == 2:  # the child is a leaf: clear its two coordinates here
                walk.step()
                a, b = rest
                pinv = inv(u[piv])
                ca, cb = mul(u[a], pinv), mul(u[b], pinv)
                leaf([(sub(w[a], mul(w[piv], ca)), sub(w[b], mul(w[piv], cb)))
                      if w[piv] else (w[a], w[b]) for w in later], j + 1, kept + (j,))
            else:
                visit(j + 1, _cleared(field, later, u, piv), rest, kept + (j,))
            if walk.settled():
                return

    visit(0, [list(col) for col in zip(*G._data)], tuple(range(k)), ())


def min_distance(H: MatGF, floor: int = 1) -> int:
    """Minimum distance of the code with full-row-rank parity check H.

    One elimination of H gives a k x n generator G of its kernel, and its
    rank by the row count k = n - rows.  A low-rate code, 2k < n, takes the
    hyperplane walk over the columns of G (``_hyperplane_walk``), whose
    nodes are independent sets of at most k - 2 columns, and its witness is
    the support of the first lightest codeword found.  Any other code takes
    the column-subset walk over H (``_column_walk``), whose nodes are
    independent column sets that can still grow into a dependent set below
    the best bound, and its witness is the lexicographically first smallest
    dependent set.  Both start from the bound rows + 1 witnessed by the
    first rows + 1 columns, and either witness is re-checked by a rank of
    its own columns of H before d is returned.  A square H has no dependent
    column set and raises VerificationError.

    ``floor`` is a known lower bound on d, an int in 1..rows + 1 (else
    ValidationError).  Either walk stops once its best bound is at or below
    it, and the column walk skips sets too late to grow to floor columns;
    the witness is the full walk's when the floor holds, and a wrong floor
    still gives a result at or below it.  ``classify`` passes n - k - l and
    certifies it by one rank for any d at or below it (``_certify_grs_floor``),
    so a wrong floor is refused, not returned as d.  The MDS/AMDS verdicts
    neither seed nor prune either walk.

    Each visited node of either walk counts once.  Past DISTANCE_NODE_BUDGET
    nodes the search raises ResourceLimitError with the nodes visited and
    both bounds so far, "best bounds so far floor <= d <= best"; the count
    depends on H and the floor alone, so a refusal reproduces.
    """
    n, nrows = H.cols, H.rows
    if not (_is_int(floor) and 1 <= floor <= nrows + 1):
        raise ValidationError(f"distance floor must be an integer in 1..{nrows + 1}, "
                              f"got {floor!r}")
    G = null_space(H)
    if G.rows != n - nrows:
        raise ValidationError("parity-check matrix must have full row rank")
    if n <= nrows:
        raise VerificationError(f"a square {nrows}x{n} parity check has no dependent columns")
    walk = _Walk(nrows + 1, floor)
    if not walk.settled():
        if 2 * G.rows < n:
            _hyperplane_walk(G, walk)
        else:
            _column_walk(H, walk)
    if rank(H.submatrix(tuple(range(nrows)), walk.witness)) >= walk.best:
        raise VerificationError(f"distance witness {walk.witness} is not a dependent column set")
    return walk.best


def _certify_grs_floor(spec: TgrsSpec, G: MatGF, context: SymContext) -> None:
    """Certify the floor d >= n - k - l for the generator G by one rank.

    Every row of G is v_i f(alpha_i) with deg f <= k + l, so the code is a
    subcode of GRS_{k+l+1}(alpha, v), whose distance is n - k - l.  G stacked
    on the v-scaled power rows alpha_i^j, j <= k + l, of the points'
    ``context`` must keep their rank k + l + 1; otherwise VerificationError.
    """
    f, m = spec.field, spec.k + spec.l + 1
    v = [x.rep for x in spec.v]
    grs = MatGF._from_reps(f, tuple(tuple(map(f._mul, v, row))
                                    for row in context._power_rows(m)))
    if rank(G.stack(grs)) != m:
        raise VerificationError(f"generator is not a subcode of GRS_{m}, so the distance "
                                f"floor n-k-l = {spec.n - m + 1} is not certified")


def hull_dimension(G: MatGF, H: MatGF) -> int:
    """dim of the code/dual intersection: n - rank of the stacked matrices.

    The stacked rank comes first.  When it is n = G.rows + H.rows, both
    blocks have full row rank, as rank(G; H) <= rank G + rank H, so an LCD
    pair costs one rank; otherwise G and H are checked by their own ranks.
    """
    n = G.cols
    if H.cols != n:
        raise ValidationError("generator and parity check must share the length n")
    stacked = rank(G.stack(H))
    if not stacked == n == G.rows + H.rows:
        if rank(G) != G.rows:
            raise ValidationError("generator matrix must have full row rank k")
        if rank(H) != H.rows:
            raise ValidationError("parity-check matrix must have full row rank n-k")
        if G.rows + H.rows != n:
            raise ValidationError("row counts must satisfy k + (n-k) = n")
    if not (G @ H.transpose()).is_zero():
        raise ValidationError("parity check does not annihilate the generator")
    return n - stacked


@dataclass
class CodeReport:
    """Classification verdicts with reproducible certificates.

    ``classify`` also leaves the generator and parity check it built on the
    report; they take no part in comparison or JSON.
    """

    n: int
    k: int
    is_mds: bool
    is_amds: bool
    is_lcd: bool
    hull_dim: int
    min_distance: Optional[int] = None
    certificates: dict = dc_field(default_factory=dict)
    notes: list[str] = dc_field(default_factory=list)
    generator: Optional[MatGF] = dc_field(default=None, compare=False, repr=False)
    parity_check: Optional[MatGF] = dc_field(default=None, compare=False, repr=False)

    def params_string(self) -> str:
        if self.min_distance is not None:
            return f"[{self.n},{self.k},{self.min_distance}]"
        return f"[{self.n},{self.k}]"


def report_to_json(report: CodeReport) -> dict:
    certs = {key: [i + 1 for i in subset] for key, subset in report.certificates.items()}
    return {
        "n": report.n,
        "k": report.k,
        "params": report.params_string(),
        "is_mds": report.is_mds,
        "is_amds": report.is_amds,
        "is_lcd": report.is_lcd,
        "hull_dim": report.hull_dim,
        "min_distance": report.min_distance,
        "certificates": certs,
        "notes": list(report.notes),
    }


def classify(spec: TgrsSpec, want_distance: bool = False,
             workspace: Optional[PhiWorkspace] = None) -> CodeReport:
    """Full classification of one code spec.

    With ``want_distance`` the report carries the minimum distance, checked
    against the MDS/AMDS verdicts, or min_distance's ResourceLimitError.  Its
    walk stops at the floor n - k - l; a d at or below that floor is
    certified by one rank, and a G outside GRS_{k+l+1} raises
    VerificationError there.  A d above the floor never needed it, so costs
    no rank.  Both verdicts come from one ``is_amds`` call, whose criterion
    walk gives the MDS certificate too, on one criterion table:
    ``workspace`` when given (it must be built for the spec's points, k, h
    and l), a fresh one otherwise.  The generator, the parity check and the
    floor certificate read the table's point-set context.
    """
    table = _table_for(spec, workspace)
    G = generator_matrix(spec, table.context)
    H = parity_check_matrix(spec, table.context)
    amds, dependent, deficient = is_amds(spec, workspace=table)
    mds = dependent is None
    certificates = {key: subset for key, subset in (
        ("mds_violating_subset", dependent), ("amds_dependent_subset", dependent),
        ("amds_deficient_superset", deficient)) if subset is not None}
    hull = hull_dimension(G, H)
    report = CodeReport(
        n=spec.n, k=spec.k, is_mds=mds, is_amds=amds,
        is_lcd=(hull == 0), hull_dim=hull, certificates=certificates,
        generator=G, parity_check=H,
    )
    if spec.hook_is_boundary():
        report.notes.append("hook at the upper boundary h = k-1")
    if want_distance:
        floor = spec.n - spec.k - spec.l
        d = min_distance(H, floor=floor)
        if d <= floor:  # the floor may have stopped the walk
            _certify_grs_floor(spec, G, table.context)
        report.min_distance = d
        singleton = spec.n - spec.k + 1
        if d > singleton:
            raise VerificationError(f"distance {d} violates the Singleton bound {singleton}")
        if mds != (d == singleton) or amds != (d == singleton - 1):
            raise VerificationError(
                f"classification inconsistency: d={d}, mds={mds}, amds={amds}")
    return report
