"""Mutation catalogue: one-edit faults of ``src/tgrs`` that tier-1 must catch.

    python3 tools/mutants.py

Each entry is a source fragment, its replacement and the reason the tests
must see it.  For each entry the script copies the checkout, without
``.git``, to a temporary directory, replaces the one place in ``src/tgrs``
that holds the fragment, and runs tier-1 there with ``-x``; a run that
outlasts ``MUTANT_LIMIT_S`` counts as a kill, since a hang is a fault seen.
A fragment that occurs in no module, or in more than one place, fails the
run before any test runs, so the catalogue is kept in step with the code.
A mutant that tier-1 lets through (a survivor) fails the run too.  An
equivalent mutant is listed with its reason, not deleted.  The exit status
is 0 when every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
MUTANT_LIMIT_S = 600  # a survivor costs one full tier-1 run, ~12 s on a 2-vCPU VM


class Mutant(NamedTuple):
    name: str
    fragment: str
    replacement: str
    reason: str


CATALOGUE = (
    # -- the twist search: the gates solved for the last twist coordinate
    Mutant("row root sign",
           "f._solve(f._sub(1, f._dot(prefix, row)), row[s])",
           "f._solve(f._add(1, f._dot(prefix, row)), row[s])",
           "a row crosses out the root of 1 - prefix.d[:s] = d_s x, not of 1 + ..."),
    Mutant("quadratic coefficient",
           "f._add(prefix[m], prefix[m])",
           "prefix[m]",
           "for m < l the quadratic sum is linear in eta_l with coefficient 2 eta_m"),
    Mutant("prefix digits reversed",
           "weights = [q ** (s - 1 - t) for t in range(s)]",
           "weights = [q ** t for t in range(s)]",
           "eta_0 is the most significant digit of a candidate's index"),
    Mutant("zero twist kept",
           "live.discard(0)",
           "pass",
           "the MDS-certifying set excludes the zero twist"),
    Mutant("row vanishing on the prefix crosses out none",
           "            if roots is None:\n                return []",
           "            if roots is None:\n                continue",
           "d_l = 0 and 1 - prefix.d[:l] = 0 make the subset dependent for every eta_l"),
    Mutant("last value skips the rows left",
           "return [eta[s]] if live and all(f._dot(eta, row) != 1 for _, row in rows) else []",
           "return [eta[s]] if live else []",
           "the one value left must still pass every row after the one that left it alone"),
    Mutant("r root kept",
           "        live.difference_update(roots)\n        for x in table._survivors(",
           "        for x in table._survivors(",
           "a twist vector with r = 0 fails both recipes"),
    Mutant("prefix walk keeps the last walk's set",
           "        self._last = None\n        f, s = self.field, len(prefix)",
           "        f, s = self.field, len(prefix)",
           "a refusal inside a prefix walk must not name an earlier twist vector's set"),
    # -- the bulk passes over the held columns
    Mutant("bulk pass drops its last column term",
           "terms = [map(x.__mul__, col) for x, col in zip(xs, columns)]",
           "terms = [map(x.__mul__, col) for x, col in zip(xs[:-1], columns)]",
           "every coefficient meets its column, the last one too"),
    Mutant("bulk direct test compares with 0",
           "operator.indexOf(f._dots(eta, self._cols), 1)",
           "operator.indexOf(f._dots(eta, self._cols), 0)",
           "a subset is dependent exactly when 1 - dot(eta, d) = 0, i.e. dot(eta, d) = 1"),
    Mutant("solved row root sign",
           "row, target = (c, *(f._neg(f._mul(d, c)) for d in row[:s])), solved",
           "row, target = (c, *(f._mul(d, c) for d in row[:s])), solved",
           "a held row's root is 1/d_s - prefix.d[:s]/d_s, read as a dot with (1,) + prefix"),
    Mutant("held row vanishing on the prefix crosses out none",
           "        if s and 1 in f._dots(prefix, flat):\n            return []\n",
           "",
           "a held row with d_s = 0 and prefix.d[:s] = 1 is dependent for every eta_s"),
    Mutant("pinned path taken when m < l",
           "pinned = second and m == l >= 1",
           "pinned = second and m <= l >= 1",
           "only m = l makes the quadratic gate eta_l^2 = 0; for m < l it admits eta_l != 0"),
    # -- the AMDS scan: the held rows in one bulk pass, the later ones not held
    Mutant("scan's bulk pass compares with 0",
           "if d == 1 and I[-1] < n - 1)",
           "if d == 0 and I[-1] < n - 1)",
           "a held subset is singular exactly when dot(eta, d) = 1"),
    Mutant("scan's computed rows not counted",
           "table._row(I, spent)",
           "table._row(I, 0)",
           "the rows the scan reads and does not hold count against the budget too"),
    Mutant("scan resumes one subset late",
           "itertools.combinations(range(n), k), len(cols[0]), None)",
           "itertools.combinations(range(n), k), len(cols[0]) + 1, None)",
           "the first subset after the held rows may be the first with a deficient superset"),
    # -- work kept once: a repeated walk and a held series
    Mutant("repeated walk not reused",
           "self._last[0] != eta",
           "self._last[1] != eta",
           "a second walk of one eta, as a hit's classification after its prefix's walk, "
           "reads no row"),
    Mutant("series retaken at its own length",
           "if len(self._s) < length:",
           "if len(self._s) <= length:",
           "a series as long as the one held is read off it"),
    # -- one point-set context per table, one rank per LCD pair
    Mutant("context skips its points check",
           "    elif context.points != spec.alpha:\n"
           "        raise ValidationError(\"point-set context was built for other points\")\n",
           "",
           "a context of other points, or of the same points in another order, gives a wrong "
           "G or H"),
    Mutant("lazy quotients skip their root check",
           "            if add(product[0], mul(a, q[-1])) != 0:\n"
           "                raise VerificationError(f\"point {i} is not a root of the full product\")\n",
           "",
           "a product that misses a point leaves a remainder there, and wrong u and w_tilde"),
    Mutant("context powers start at alpha^1",
           "self._powers: list[tuple[int, ...]] = [(1,) * self.n]",
           "self._powers: list[tuple[int, ...]] = [tuple(p.rep for p in pts)]",
           "row j of G, H and the GRS certificate is alpha_i^j from j = 0"),
    Mutant("hull fallback ranks dropped",
           "        if rank(G) != G.rows:\n"
           "            raise ValidationError(\"generator matrix must have full row rank k\")\n"
           "        if rank(H) != H.rows:\n"
           "            raise ValidationError(\"parity-check matrix must have full row rank n-k\")\n",
           "",
           "a stacked rank below n leaves G and H to be checked by their own ranks"),
    # -- matrix plumbing
    Mutant("stack of another field",
           "if self.field != other.field or self.cols != other.cols:",
           "if self.field != other.field and self.cols != other.cols:",
           "a matrix over another field of the same width must not be stacked"),
    # -- the complete symmetric series and the GRS floor certificate
    Mutant("series step reads h_t",
           "out.append(add(s, mul(a, out[-1])))",
           "out.append(add(s, mul(a, s)))",
           "h_t(P + a) = h_t(P) + a h_(t-1)(P + a), not a h_t(P)"),
    Mutant("floor certified only below it",
           "if d <= floor:  # the floor may have stopped the walk",
           "if d < floor:  # the floor may have stopped the walk",
           "a walk stopped at the floor returns d = floor, which only the certificate proves"),
)


def locate(src: Path, fragment: str) -> Path:
    """The one module under ``src`` that holds ``fragment``, exactly once."""
    counts = {path: path.read_text().count(fragment) for path in sorted(src.glob("*.py"))}
    places = sum(counts.values())
    if places != 1:
        raise LookupError(f"fragment occurs in {places} places, not one: {fragment!r}")
    return next(path for path, count in counts.items() if count)


def first_failure(mutant: Mutant) -> str | None:
    """The test that tier-1 fails first on a copy of the checkout with the
    mutant applied, or None when every test passes."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info", "build"))
        path = locate(copy / "src" / "tgrs", mutant.fragment)
        path.write_text(path.read_text().replace(mutant.fragment, mutant.replacement))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=MUTANT_LIMIT_S)
        except subprocess.TimeoutExpired:
            return f"timeout after {MUTANT_LIMIT_S} s"
    if proc.returncode == 0:
        return None
    return next((line for line in proc.stdout.splitlines()
                 if line.startswith(("FAILED", "ERROR"))), f"exit {proc.returncode}")


def main() -> int:
    stale = []
    for m in CATALOGUE:
        try:
            locate(ROOT / "src" / "tgrs", m.fragment)
        except LookupError as err:
            stale.append(f"{m.name}: {err}")
    if stale:
        print("\n".join(["stale catalogue entries:", *stale]))
        return 1
    survivors = []
    for m in CATALOGUE:
        start = time.monotonic()
        failure = first_failure(m)
        print(f"{'killed  ' if failure else 'SURVIVED'} {m.name} "
              f"({time.monotonic() - start:.1f} s){': ' + failure if failure else ''}", flush=True)
        if not failure:
            survivors.append(f"{m.name}: {m.reason}")
    if survivors:
        print("\n".join(["survivors:", *survivors]))
        return 1
    print(f"all {len(CATALOGUE)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
