"""MDS / AMDS / LCD classification of twisted GRS codes.

Two independent routes decide MDS-ness: the per-subset twist criterion and
the k x k minors of the generator matrix G; the test suite keeps them in
agreement.  The minors route reads G alone: a depth-first walk over column
prefixes that carries the later columns reduced against each prefix, so one
column reduction per node replaces a determinant per k-subset.  The
criterion reads rows from PhiWorkspace, one lazily filled table per point
set and (k, h, l), which the MDS and AMDS verdicts and the twist search
share.  It holds rows only, at most CRITERION_ROW_BUDGET, each one
``symm.criterion_row`` on reps (also the LCD recipes' r gate), so no
``Poly`` is built per subset; the parity check builds its own context.
The AMDS scan tests only the (k+1)-supersets I + (j,) whose alpha_j is a
root of P_I, a polynomial of degree at most l read off the same series, and
needs no scan at all when eta_1..eta_l are zero.

Minimum distance takes one of two depth-first walks, chosen by the shape of
the parity check H alone, k = n - rows.  A low-rate code, 2k < n, walks the
hyperplanes spanned by columns of a generator G of ker H: d is n minus the
most columns of G in one hyperplane, and the last level of the walk counts
columns by their ratio on a projective line.  Any other code walks column
subsets of H, extending the reduced basis of each prefix by one column per
node, and d is the smallest dependent set.  The hyperplane walk prunes a
subtree whose hyperplanes cannot hold enough columns to beat the best
codeword so far, and either walk stops once its best bound meets a floor
known in advance: ``classify`` passes n - k - l, the distance of a GRS
code holding C, and certifies it by one rank when d meets it.  The two
walks share one column-clearing step, the bounds, the node count, the
budget and its refusal; either witness is re-checked by the rank of its
own columns of H, a square parity check (no dependent set) raises
VerificationError, and a walk past its fixed node budget raises
ResourceLimitError.  LCD status comes from the rank of the generator
stacked on the parity check.

Subset enumeration is lexicographic and the first violation is always the
reported certificate, so reruns are reproducible.  Certificates use 1-based
positions in serialized form; the in-process API is 0-based.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field as dc_field
from operator import itemgetter
from typing import Optional, Sequence

from .codes import TgrsSpec, check_int_fields, generator_matrix, parity_check_matrix
from .errors import ResourceLimitError, ValidationError, VerificationError
from .gf import FieldElement, _is_int
from .linalg import MatGF, null_space, rank
from .symm import complete_series, criterion_row, distinct_points

# Nodes either distance walk may visit.  A column-walk node costs ~5 us, so the
# budget is ~10 s there; a hyperplane node reduces all n columns, ~30-65 us at
# n = 24-36, so one to two minutes there.  The four reference codes need 66, 8,
# 497 and 9 hyperplane nodes (24,545, 382, 10,124 and 848 column nodes).
DISTANCE_NODE_BUDGET = 2_000_000

# Rows one criterion table may hold, ~16-20 us each at k = 6-8 on a 2-vCPU Xeon
# VM, so 4-5 s; a [30,5] code needs at most C(30,5) = 142,506.  A search's one
# table counts them all.
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
    A row is computed the first time its subset is asked for and kept as
    canonical reps; the verdicts ``is_mds_phi`` and ``is_amds`` stop at
    their first witness, so tables stay partial.  A row past
    CRITERION_ROW_BUDGET raises ResourceLimitError.  The last walk's eta and
    result are kept, so a search hit's classification reuses its gate's walk.
    """

    def __init__(self, alpha: Sequence[FieldElement], k: int, h: int, l: int):
        pts = distinct_points(alpha)
        n = len(pts)
        if not 1 <= h <= k - 1:
            raise ValidationError(f"hook must satisfy 1 <= h <= k-1, got h={h}, k={k}")
        if not 0 <= l <= n - k - 1:
            raise ValidationError(
                f"twist degree must satisfy 0 <= l <= n-k-1 = {n - k - 1}, got l={l}")
        self.field = pts[0].field
        self.alpha, self.n, self.k, self.h, self.l = pts, n, k, h, l
        self._rows: dict[tuple[int, ...], tuple] = {}
        self._last: Optional[tuple] = None  # (eta, first dependent subset) of the last walk

    def row(self, subset: tuple[int, ...]) -> tuple[FieldElement, ...]:
        """d_0(I)..d_l(I) for an ascending tuple I of k positions."""
        if (len(subset) != self.k or list(subset) != sorted(set(subset))
                or subset[0] < 0 or subset[-1] >= self.n):
            raise ValidationError(
                f"need an ascending subset of {self.k} positions in 0..{self.n - 1}")
        return tuple(FieldElement(self.field, d) for d in self._rep_row(subset))

    def _rep_row(self, subset: tuple[int, ...]) -> tuple:
        row = self._rows.get(subset)
        if row is None:
            if len(self._rows) >= CRITERION_ROW_BUDGET:
                known = self._last and self._last[1]  # the current walk's, once found
                raise ResourceLimitError(
                    f"twist criterion stopped at its budget of {len(self._rows)} rows "
                    f"(n={self.n}, k={self.k}); dependent columns (1-based): "
                    f"{[i + 1 for i in known] if known else 'none found yet'}")
            row = self._rows[subset] = criterion_row(
                self.field, [self.alpha[i].rep for i in subset], self.h, self.l + 1)
        return row

    def _singular(self, eta: tuple, subset: tuple[int, ...]) -> bool:
        """Whether the subset's columns are dependent, for eta given as reps."""
        return self.field._dot(eta, self._rep_row(subset)) == 1

    def _superset_roots(self, eta: tuple, subset: tuple[int, ...]) -> list[int]:
        """The j > subset[-1] with P_I(alpha_j) = 0, for eta given as reps.

        With h_0..h_l the complete symmetric values of the points of I,
        P_I(a) = sum_i a^i sum_{t >= i} eta_t h_{t-i}, and P_I(alpha_j) is the
        x^k coefficient of the twist sum_t eta_t x^(k+t) reduced mod the
        product over I + (j,).  Only a root alpha_j can make I + (j,)
        deficient: every k-subset of it singular.
        """
        f = self.field
        _, hs = complete_series(f, [self.alpha[i].rep for i in subset], self.l + 1)
        coeffs = [f._dot(eta[i:], hs) for i in range(self.l + 1)]  # low degree first
        roots = []
        for j in range(subset[-1] + 1, self.n):
            a, value = self.alpha[j].rep, 0
            for c in reversed(coeffs):  # Horner
                value = f._add(f._mul(value, a), c)
            if value == 0:
                roots.append(j)
        return roots

    def _first_singular(self, eta: tuple) -> Optional[tuple[int, ...]]:
        """The lexicographically first dependent k-subset, for eta given as reps."""
        if self._last is None or self._last[0] != eta:
            self._last = None  # a walk in progress knows no dependent subset yet
            subsets = itertools.combinations(range(self.n), self.k)
            self._last = (eta, next((I for I in subsets if self._singular(eta, I)), None))
        return self._last[1]


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

    A depth-first walk over column prefixes in lexicographic order.  A node
    is an independent prefix P of s < k columns carrying every later column
    reduced against P.  A carried column j that is zero makes every k-subset
    through P + (j,) dependent, and P + (j, j+1, .., j+k-s-1) is the first
    of them and of all k-subsets not yet passed, so it is returned; a
    nonzero one is the pivot of the child P + (j,) while s + 1 < k.  Only
    j <= n - (k - s) can still complete a k-subset.  The walk reads G alone,
    never the twist criterion, so the two MDS routes stay independent.
    """
    k, n = G.rows, G.cols
    if k > n:
        raise ValidationError("generator must have at least as many columns as rows")
    field = G.field

    def visit(prefix: tuple[int, ...], start: int, carried: list) -> Optional[tuple]:
        # carried[i] is column start + i reduced against the prefix
        s = len(prefix)
        for j in range(start, n - (k - s) + 1):
            u = carried[j - start]
            if not any(u):
                return prefix + tuple(range(j, j + k - s))
            if s + 1 < k:
                piv = next(i for i, x in enumerate(u) if x)
                bad = visit(prefix + (j,), j + 1, _cleared(field, carried[j + 1 - start:], u, piv))
                if bad:
                    return bad
        return None

    bad = visit((), 0, [list(col) for col in zip(*G._data)]) if k else None
    return bad is None, bad


def is_amds(spec: TgrsSpec, workspace: Optional[PhiWorkspace] = None) -> tuple[bool, dict]:
    """Distance-exactly-n-k test via the two subset conditions.

    Needs (a) some singular k-subset and (b) every (k+1)-subset containing a
    nonsingular k-subset; certificates carry the discovered witnesses.  The
    dependent subset of (a) is the certificate of ``is_mds_phi`` on the same
    table, so one walk decides both MDS and (a).

    A (k+1)-subset I + (j,), with I its first k positions, is deficient only
    when I is singular and alpha_j is a root of P_I
    (``PhiWorkspace._superset_roots``), so (b) is scanned over those alone,
    in the same lexicographic order, and finds the same first deficient
    superset.  When eta_1..eta_l are zero the twist is eta_0 x^k, the code
    lies in GRS_{k+1} and d >= n - k, so a non-MDS code is AMDS with no scan.
    """
    table = _table_for(spec, workspace)
    mds, dependent = is_mds_phi(spec, workspace=table)
    if mds:
        return False, {"reason": "code is MDS", "dependent_subset": None}
    eta, n, k = tuple(e.rep for e in spec.eta), table.n, table.k
    if any(eta[1:]):
        # supersets in lexicographic order, which is that of (sup[:k], sup[k])
        for I in itertools.combinations(range(n - 1), k):
            if not table._singular(eta, I):
                continue
            for j in table._superset_roots(eta, I):
                sup = I + (j,)
                if all(table._singular(eta, S) for S in itertools.combinations(sup, k)):
                    return False, {"reason": "a k+1 column set has rank below k",
                                   "dependent_subset": dependent, "deficient_superset": sup}
    return True, {"dependent_subset": dependent, "deficient_superset": None}


class _Walk:
    """The two distance bounds, the witness and the nodes spent: what both walks share.

    The upper bound ``best`` starts at rows + 1 = n - k + 1 with the first
    rows + 1 columns as witness, since with full row rank any rows + 1
    columns are dependent.  ``floor`` is a lower bound on d known in
    advance; a walk stops once ``best`` reaches it.
    """

    def __init__(self, bound: int, floor: int = 1):
        self.best, self.witness, self.nodes = bound, tuple(range(bound)), 0
        self.floor = floor

    def settled(self) -> bool:
        return self.best == self.floor

    def step(self) -> None:
        """Count one node; past DISTANCE_NODE_BUDGET refuse with the bounds so far."""
        if self.nodes >= DISTANCE_NODE_BUDGET:
            raise ResourceLimitError(
                f"minimum-distance search stopped at its budget of {self.nodes} nodes; "
                f"best bounds so far {self.floor} <= d <= {self.best}")
        self.nodes += 1


def _column_walk(H: MatGF, walk: _Walk) -> None:
    """Smallest dependent set of columns of H, by a walk over column subsets.

    A depth-first walk over column subsets in lexicographic order.  A node
    is an independent prefix; it carries every later column already reduced
    against the prefix, so an extension is dependent exactly when its
    carried column is zero, and a nonzero one becomes the next pivot and is
    cleared from the later carried columns: one column reduction per node.
    The walk records a dependent set only when it is smaller than the best
    so far and descends only while smaller sets are reachable, so the last
    set recorded is the lexicographically first of minimum size.  It stops
    once the best reaches the walk's floor, when no smaller set is left.
    """
    field = H.field

    def visit(prefix: tuple[int, ...], start: int, carried: list) -> None:
        # carried[i] is column start + i reduced against the prefix
        walk.step()
        size = len(prefix) + 1  # of each extension checked here, always < best
        for j, u in enumerate(carried, start):
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

    A codeword x G vanishes on the columns of G inside the hyperplane x^perp,
    and a hyperplane holding the most columns is spanned by k - 1 of them, so
    d = n - (most columns in a hyperplane spanned by columns).  The walk
    visits independent sets of up to k - 2 columns depth first in
    lexicographic order; a node carries every column reduced against its prefix, and a
    child takes one more column as pivot and clears it from all n carried
    columns.  At depth k - 2 the carried columns live in the two coordinates
    a < b that are not pivots, and the hyperplanes through the prefix are
    the points of that projective line: a nonzero column lies in exactly
    one, the class of its ratio u_b / u_a (or infinity when u_a = 0), and a
    zero column lies in all of them.  The largest class and the zero columns
    make the zero set of a codeword; its support is the witness.  k = 1 is
    the weight of the one row.  A lighter codeword replaces the best only
    when strictly lighter, so the first lightest one found is kept.

    A hyperplane is first met at the leaf of its greedy basis: the first
    k - 2 of its columns, in order, that are independent.  Below a child
    at column j it then holds only columns the node kept (the prefix and
    the earlier columns in its span), j and the columns after j.  A node
    counts them, and returns before the first child whose count
    kept + 1 + (n - 1 - j) is at most n - best: that child and every later
    one meet only hyperplanes too small to beat the best, and the first
    lightest codeword is still found at its own leaf.  The walk stops once
    the best reaches the walk's floor.
    """
    field, k, n = G.field, G.rows, G.cols
    inv, mul = field._inv, field._mul
    if k == 1:
        walk.step()
        walk.witness = tuple(j for j, x in enumerate(G._data[0]) if x)
        walk.best = len(walk.witness)
        return

    def leaf(carried: list, a: int, b: int) -> None:
        # key: None for a zero column, -1 for u_a = 0, else the rep of u_b / u_a
        keys = [mul(u[b], inv(u[a])) if u[a] else (-1 if u[b] else None) for u in carried]
        counts = Counter(keys)
        zeros = counts.pop(None, 0)
        top, size = max(counts.items(), key=itemgetter(1))
        weight = n - zeros - size
        if weight < walk.best:
            walk.best = weight
            walk.witness = tuple(j for j, key in enumerate(keys)
                                 if key is not None and key != top)

    def visit(start: int, carried: list, free: tuple[int, ...], kept: int) -> None:
        # kept: the prefix columns and the earlier columns in their span
        walk.step()
        if len(free) == 2:  # depth k - 2
            leaf(carried, *free)
            return
        for j in range(start, n):
            u = carried[j]
            piv = next((i for i in free if u[i]), None)
            if piv is None:  # column j lies in the span of the prefix
                kept += 1
                continue
            # a hyperplane first met below column j holds at most the kept
            # columns, j and the later ones; this bound never grows with j
            if kept + 1 + (n - 1 - j) <= n - walk.best:
                return
            visit(j + 1, _cleared(field, carried, u, piv),
                  tuple(i for i in free if i != piv), kept + 1)
            if walk.settled():
                return

    visit(0, [list(col) for col in zip(*G._data)], tuple(range(k)), 0)


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
    ValidationError); either walk returns as soon as its best bound meets
    it, with the witness the full walk would give.  ``classify`` passes
    n - k - l and certifies it by one rank when d meets it
    (``_certify_grs_floor``).  The MDS/AMDS verdicts neither seed nor prune
    either walk.

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


def _certify_grs_floor(spec: TgrsSpec, G: MatGF) -> None:
    """Certify the floor d >= n - k - l for the generator G by one rank.

    Every row of G is v_i f(alpha_i) with deg f <= k + l, so the code is a
    subcode of GRS_{k+l+1}(alpha, v), whose distance is n - k - l.  G stacked
    on the v-scaled Vandermonde rows alpha_i^j, j <= k + l, must keep their
    rank k + l + 1; otherwise VerificationError.
    """
    f, m = spec.field, spec.k + spec.l + 1
    v = [x.rep for x in spec.v]
    grs = MatGF._from_reps(f, tuple(tuple(map(f._mul, v, row))
                                    for row in MatGF.vandermonde(spec.alpha, m)._data))
    if rank(G.stack(grs)) != m:
        raise VerificationError(f"generator is not a subcode of GRS_{m}, so the distance "
                                f"floor n-k-l = {spec.n - m + 1} is not certified")


def hull_dimension(G: MatGF, H: MatGF) -> int:
    """dim of the code/dual intersection: n - rank of the stacked matrices."""
    n = G.cols
    if H.cols != n:
        raise ValidationError("generator and parity check must share the length n")
    if rank(G) != G.rows:
        raise ValidationError("generator matrix must have full row rank k")
    if rank(H) != H.rows:
        raise ValidationError("parity-check matrix must have full row rank n-k")
    if G.rows + H.rows != n:
        raise ValidationError("row counts must satisfy k + (n-k) = n")
    if not (G @ H.transpose()).is_zero():
        raise ValidationError("parity check does not annihilate the generator")
    return n - rank(G.stack(H))


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


def report_from_json(obj) -> CodeReport:
    """The report of ``report_to_json``, with its certificates 0-based again.

    Only a report that could be true is read: 1 <= k <= n, a hull of
    dimension at most min(k, n - k) that is zero exactly for an LCD code,
    not both MDS and AMDS, a distance in 1..n-k+1 that matches those
    verdicts, and certificates that ``classify`` writes, each a strictly
    ascending list of its size of positions in 1..n.
    """
    if not isinstance(obj, dict):
        raise ValidationError("code report must be a JSON object")
    verdicts = ("is_mds", "is_amds", "is_lcd")
    missing = [key for key in ("n", "k", *verdicts, "hull_dim") if key not in obj]
    if missing:
        raise ValidationError(f"code report missing fields: {', '.join(missing)}")
    check_int_fields(obj, ("n", "k", "hull_dim"), optional=("min_distance",))
    for key in verdicts:
        if not isinstance(obj[key], bool):
            raise ValidationError(f"field '{key}' must be a boolean, got {obj[key]!r}")
    n, k, hull, d = obj["n"], obj["k"], obj["hull_dim"], obj.get("min_distance")
    mds, amds = obj["is_mds"], obj["is_amds"]
    if not 1 <= k <= n:
        raise ValidationError(f"code report needs 1 <= k <= n, got n={n}, k={k}")
    if not 0 <= hull <= min(k, n - k):
        raise ValidationError(f"field 'hull_dim' must be in 0..{min(k, n - k)}, got {hull}")
    if obj["is_lcd"] != (hull == 0):
        raise ValidationError(f"'is_lcd' is {obj['is_lcd']} with hull_dim {hull}")
    if mds and amds:
        raise ValidationError("a code report cannot be both MDS and AMDS")
    if d is not None and not 1 <= d <= n - k + 1:
        raise ValidationError(f"field 'min_distance' must be in 1..{n - k + 1}, got {d}")
    if d is not None and (mds != (d == n - k + 1) or amds != (d == n - k)):
        raise ValidationError(f"min_distance {d} contradicts is_mds={mds}, is_amds={amds}")
    raw_certs, notes = obj.get("certificates", {}), obj.get("notes", [])
    if not isinstance(raw_certs, dict):
        raise ValidationError(f"field 'certificates' must be an object, got {raw_certs!r}")
    if not (isinstance(notes, list) and all(isinstance(note, str) for note in notes)):
        raise ValidationError(f"field 'notes' must be a list of strings, got {notes!r}")
    certs = {}
    sizes = {"mds_violating_subset": k, "amds_dependent_subset": k,
             "amds_deficient_superset": k + 1}  # the certificates classify writes
    for key, val in raw_certs.items():
        if key not in sizes:
            raise ValidationError(f"unknown certificate '{key}'")
        if not (isinstance(val, list) and all(_is_int(i) and i > 0 for i in val)):
            raise ValidationError(f"certificate '{key}' must be a list of positive integers")
        size = sizes[key]
        if len(val) != size or val != sorted(set(val)) or val[-1] > n:
            raise ValidationError(f"certificate '{key}' must be {size} ascending "
                                  f"positions in 1..{n}, got {val}")
        certs[key] = tuple(i - 1 for i in val)
    return CodeReport(
        n=obj["n"], k=obj["k"], is_mds=obj["is_mds"], is_amds=obj["is_amds"],
        is_lcd=obj["is_lcd"], hull_dim=obj["hull_dim"],
        min_distance=obj.get("min_distance"), certificates=certs, notes=list(notes),
    )


def classify(spec: TgrsSpec, want_distance: bool = False,
             workspace: Optional[PhiWorkspace] = None) -> CodeReport:
    """Full classification of one code spec.

    With ``want_distance`` the report carries the minimum distance, checked
    against the MDS/AMDS verdicts, or min_distance's ResourceLimitError.  Its
    walk stops at the floor n - k - l; a d equal to that floor is certified
    by one rank, and a G outside GRS_{k+l+1} raises VerificationError there.
    A d above the floor never needed it, so costs no rank.  Both verdicts
    come from one ``is_amds`` call, whose criterion walk gives the MDS
    certificate too, on one criterion table: ``workspace`` when given (it
    must be built for the spec's points, k, h and l), a fresh one otherwise.
    """
    table = _table_for(spec, workspace)
    G = generator_matrix(spec)
    H = parity_check_matrix(spec)
    amds, amds_cert = is_amds(spec, workspace=table)
    dependent = amds_cert["dependent_subset"]
    mds = dependent is None
    certificates = {key: subset for key, subset in (
        ("mds_violating_subset", dependent), ("amds_dependent_subset", dependent),
        ("amds_deficient_superset", amds_cert.get("deficient_superset"))) if subset is not None}
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
        if d == floor:  # the floor may have stopped the walk
            _certify_grs_floor(spec, G)
        report.min_distance = d
        singleton = spec.n - spec.k + 1
        if d > singleton:
            raise VerificationError(f"distance {d} violates the Singleton bound {singleton}")
        if mds != (d == singleton) or amds != (d == singleton - 1):
            raise VerificationError(
                f"classification inconsistency: d={d}, mds={mds}, amds={amds}")
    return report
