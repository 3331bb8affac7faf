"""Inputs and correctness gates for the three benchmark workloads.

Each workload has a ``setup_*`` function that builds its input files (this is
the part of a pass counted as set-up time) and a ``run_*`` function that
drives ``tgrs`` on them from outside, through ``tgrs.cli.main`` or the
package's public functions, and checks every result. ``run_*`` returns a
``PassResult`` with one ``Item`` per checked unit of work.

Library calls go through module attributes (``tgrs.classify``,
``tgrs.cli.main``) at call time, so that the tracer's wrappers are used when
a traced pass installs them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import tgrs
import tgrs.cli

# -- results -------------------------------------------------------------------


@dataclass
class Item:
    """One checked unit of work: a code, a template search or a CLI command."""

    label: str
    latency_s: float
    failures: list[str]


@dataclass
class PassResult:
    items: list[Item] = field(default_factory=list)
    codes: int = 0          # codes fully classified
    candidates: int = 0     # twist candidates examined (search only)
    hits: int = 0           # search hits
    output_bytes: int = 0   # bytes the CLI wrote to stdout
    batch_checks: int = 0   # checks on the pass as a whole, not on one item
    batch_failures: list[str] = field(default_factory=list)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _run_cli(argv: list[str], result: PassResult) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tgrs.cli.main(argv)
    text = buf.getvalue()
    result.output_bytes += len(text.encode())
    return code, text


def _timed(label: str, result: PassResult, check) -> None:
    """Run ``check`` (which returns a list of failures) as one timed item.

    An exception is a failed item. A failed item is charged the time of the
    whole pass up to its end, so a failure never reads as a fast success.
    """
    start = time.perf_counter()
    try:
        failures = check()
    except Exception as exc:  # the item is the boundary; record and go on
        failures = [f"{type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - start
    if failures:
        latency += sum(item.latency_s for item in result.items)
    result.items.append(Item(label, latency, failures))


# -- distance: `tgrs check` with the minimum-distance search -------------------

# The two length-15 reference codes, with the report fields the gate pins.
DISTANCE_CODES = (
    ("[15,4] GF(31)", 0, {
        "params": "[15,4,10]", "is_mds": False, "is_amds": False, "is_lcd": True,
        "hull_dim": 0, "min_distance": 10,
        "certificates": {"amds_deficient_superset": [1, 2, 10, 11, 15],
                         "amds_dependent_subset": [1, 2, 3, 9],
                         "mds_violating_subset": [1, 2, 3, 9]},
    }),
    ("[15,6] GF(31)", 2, {
        "params": "[15,6,8]", "is_mds": False, "is_amds": False, "is_lcd": True,
        "hull_dim": 0, "min_distance": 8,
        "certificates": {"amds_deficient_superset": [1, 2, 5, 7, 11, 13, 15],
                         "amds_dependent_subset": [1, 2, 3, 4, 5, 15],
                         "mds_violating_subset": [1, 2, 3, 4, 5, 15]},
    }),
)


def setup_distance(workdir: Path, seed: int) -> list[tuple[str, Path, dict]]:
    inputs = []
    for label, index, expected in DISTANCE_CODES:
        spec = tgrs.GOLDEN_CODES[index].spec()
        path = workdir / f"distance-{index}.json"
        path.write_text(json.dumps(tgrs.tgrs_spec_to_json(spec)))
        inputs.append((label, path, expected))
    return inputs


def run_distance(inputs) -> PassResult:
    result = PassResult()
    for label, path, expected in inputs:
        def check(path=path, expected=expected):
            code, text = _run_cli(["check", "--input", str(path), "--distance-cap", "15",
                                   "--output", "json"], result)
            if code != 0:
                return [f"exit code {code}"]
            report = json.loads(text)["report"]
            return [f"{key}: got {report.get(key)!r}, want {want!r}"
                    for key, want in expected.items() if report.get(key) != want]
        _timed(label, result, check)
        result.codes += 1
    return result


# -- search: exhaustive `tgrs search` on two recipe templates ------------------

# label -> (candidate count, hit count, digest of the sorted hit twist vectors)
SEARCH_EXPECTED = {
    "[9,3] GF(37) recipe 1": (1369, 117, "6a17bc17bd942d50"),
    "[10,3] GF(31) recipe 2": (29791, 40, "a03e2376667e6839"),
}


def _search_templates() -> list[tuple[str, dict]]:
    # The [9,3] template of the twist-search demo: head and sign tail of the
    # [9,3,7] reference code, points left to the recipe's root arrangement.
    nine = {"class": 1, "q": 37, "n": 9, "k": 3, "h": 1, "l": 1, "lambda": 1,
            "v_head": [21, 30], "v_tail_signs": [1, 1, -1, 1, 1, 1, -1]}
    # The [10,3,8] reference code with its twist vector left free.
    ref = tgrs.GOLDEN_CODES[3]
    p = ref.params()
    ten = {"class": 2, "q": ref.q, "n": ref.n, "k": ref.k, "h": ref.h, "l": ref.l,
           "m_gap": ref.m_gap, "lambda": ref.lam,
           "v_head": [x.rep for x in p.v_head],
           "v_tail_signs": [x.rep for x in p.v_tail_signs],
           "alpha": [a.rep for a in p.alpha]}
    return [("[9,3] GF(37) recipe 1", nine), ("[10,3] GF(31) recipe 2", ten)]


def setup_search(workdir: Path, seed: int) -> list[tuple[str, Path, int]]:
    inputs = []
    for i, (label, template) in enumerate(_search_templates()):
        # Validate the template and size its space through the library.
        space = tgrs.lcdgen.template_from_json(template).field.q ** (template["l"] + 1)
        path = workdir / f"search-{i}.json"
        path.write_text(json.dumps(template))
        inputs.append((label, path, space))
    return inputs


def run_search(inputs) -> PassResult:
    result = PassResult()
    for label, path, space in inputs:
        result.candidates += space
        def check(label=label, path=path, space=space):
            code, text = _run_cli(["search", "--input", str(path), "--budget", str(space),
                                   "--output", "json"], result)
            if code != 0:
                return [f"exit code {code}"]
            out = json.loads(text)
            hits = out["hits"]
            result.hits += len(hits)
            result.codes += len(hits)  # every hit is re-classified from scratch
            want_space, want_hits, want_digest = SEARCH_EXPECTED[label]
            failures = []
            if space != want_space:
                failures.append(f"candidates: got {space}, want {want_space}")
            if out["count"] != want_hits or len(hits) != want_hits:
                failures.append(f"hits: got {out['count']}/{len(hits)}, want {want_hits}")
            digest = _digest(sorted(h["eta"] for h in hits))
            if digest != want_digest:
                failures.append(f"hit digest: got {digest}, want {want_digest}")
            bad = [h["eta"] for h in hits
                   if not (h["report"]["is_mds"] and h["report"]["is_lcd"])]
            if bad:
                failures.append(f"{len(bad)} hit(s) not LCD MDS, first {bad[0]}")
            return failures
        _timed(label, result, check)
    return result


# -- mixed_fields: classify plus the independent routes, many small codes ------

# (p, m, modulus low degree first): moduli x^3+x+1, x^2+1, x^4+x+1, x^2+2.
MIXED_FIELDS = {
    "GF(7)": (7, 1, None),
    "GF(31)": (31, 1, None),
    "GF(37)": (37, 1, None),
    "GF(8)": (2, 3, (1, 1, 0, 1)),
    "GF(9)": (3, 2, (1, 0, 1)),
    "GF(16)": (2, 4, (1, 1, 0, 0, 1)),
    "GF(25)": (5, 2, (2, 0, 1)),
}

# Strata (field, n, k). The seed draws l, h, points, multipliers and twist
# inside each stratum; fixing the strata keeps the work per pass close to the
# same from seed to seed. The extension fields carry most of the time.
MIXED_CELLS = (
    ("GF(7)", 6, 3), ("GF(7)", 7, 4),
    ("GF(31)", 8, 3), ("GF(31)", 10, 5), ("GF(31)", 10, 7),
    ("GF(37)", 8, 4), ("GF(37)", 9, 3), ("GF(37)", 10, 6),
    ("GF(8)", 6, 3), ("GF(8)", 8, 4), ("GF(8)", 8, 5),
    ("GF(9)", 6, 3), ("GF(9)", 8, 4), ("GF(9)", 9, 5),
    ("GF(16)", 6, 3), ("GF(16)", 8, 4), ("GF(16)", 10, 6), ("GF(16)", 10, 7),
    ("GF(25)", 6, 3), ("GF(25)", 8, 4), ("GF(25)", 10, 6), ("GF(25)", 10, 7),
)
MIXED_REPS = 10
DEFAULT_SEED = 1
# Digest of every report of the full-size batch on DEFAULT_SEED.
MIXED_DIGEST = "5e76fd0c57ce1c89"


def mixed_specs(fields: dict, seed: int, reps: int = MIXED_REPS) -> list[dict]:
    """The batch as spec JSON objects; the same seed gives the same batch."""
    rng = random.Random(seed)
    specs = []
    for _ in range(reps):
        for name, n, k in MIXED_CELLS:
            f = fields[name]
            l = rng.randint(0, n - k - 1)
            h = rng.randint(1, k - 1)
            el = lambda i: tgrs.gf.element_to_json(f.from_index(i))  # noqa: E731
            specs.append({
                "field": tgrs.field_to_json(f), "n": n, "k": k, "l": l, "h": h,
                "alpha": [el(i) for i in rng.sample(range(f.q), n)],
                "v": [el(rng.randrange(1, f.q)) for _ in range(n)],
                "eta": [el(rng.randrange(f.q)) for _ in range(l + 1)],
            })
    return specs


def setup_mixed(workdir: Path, seed: int, reps: int = MIXED_REPS) -> tuple[Path, bool]:
    fields = {name: tgrs.Field(*args) for name, args in MIXED_FIELDS.items()}
    path = workdir / "mixed.json"
    path.write_text(json.dumps(mixed_specs(fields, seed, reps)))
    return path, seed == DEFAULT_SEED and reps == MIXED_REPS


def _check_code(obj: dict, reports: list) -> list[str]:
    spec = tgrs.tgrs_spec_from_json(obj)
    report = tgrs.classify(spec, want_distance=True)
    G = tgrs.generator_matrix(spec)
    H = tgrs.parity_check_matrix(spec)
    minors_mds, _ = tgrs.is_mds_minors(G)
    reports.append(tgrs.report_to_json(report))
    n, k = spec.n, spec.k
    failures = []
    if minors_mds != report.is_mds:
        failures.append(f"criterion says mds={report.is_mds}, minors say {minors_mds}")
    if not (G @ H.transpose()).is_zero():
        failures.append("G H^T != 0")
    if tgrs.rank(H) != n - k:
        failures.append(f"rank H != n-k = {n - k}")
    d = report.min_distance
    if d is None or not 1 <= d <= n - k + 1:
        failures.append(f"distance {d} outside 1..{n - k + 1} (Singleton)")
    return failures


def run_mixed(inputs) -> PassResult:
    path, pinned = inputs
    result = PassResult()
    reports: list = []
    for i, obj in enumerate(json.loads(path.read_text())):
        label = f"#{i} GF({obj['field']['p']}^{obj['field'].get('m', 1)}) n={obj['n']} k={obj['k']}"
        _timed(label, result, lambda obj=obj: _check_code(obj, reports))
        result.codes += 1
    if pinned:
        result.batch_checks += 1
        digest = _digest(reports)
        if digest != MIXED_DIGEST:
            result.batch_failures.append(f"report digest: got {digest}, want {MIXED_DIGEST}")
    return result


WORKLOADS = {
    "distance": (setup_distance, run_distance),
    "search": (setup_search, run_search),
    "mixed_fields": (setup_mixed, run_mixed),
}
