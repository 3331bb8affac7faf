"""Toy-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks span bookkeeping, that the tracer wraps and restores tgrs, that the
gates pass on good results and fail on wrong ones, that the aggregated
metric names match BENCHMARK.json, and that run.py refuses to run without
the tgrs sources. Takes a few seconds; times nothing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tgrs  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SpanSummaryTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [["cli", 0.0, 10.0, -1],
                 ["classify.classify", 1.0, 7.0, 0],
                 ["linalg.rank", 2.0, 5.0, 1],
                 ["linalg.rank", 5.0, 6.0, 1]]
        out = tracing.summarize(spans)
        self.assertEqual(out["cli"], {"calls": 1, "self_s": 4.0})
        self.assertEqual(out["classify.classify"], {"calls": 1, "self_s": 2.0})
        self.assertEqual(out["linalg.rank"], {"calls": 2, "self_s": 4.0})

    def test_spans_that_never_fired_read_zero(self):
        out = tracing.summarize([])
        self.assertEqual(set(out), set(tracing.SPAN_NAMES))
        self.assertTrue(all(v == {"calls": 0, "self_s": 0.0} for v in out.values()))


class TracerTest(unittest.TestCase):
    def test_wraps_public_calls_and_restores_them(self):
        classify_fn = tgrs.classify
        rank_in_classify = sys.modules["tgrs.classify"].rank
        init = tgrs.PhiWorkspace.__dict__["__init__"]
        from_roots = tgrs.Poly.__dict__["from_roots"]
        spec = tgrs.GOLDEN_CODES[1].spec()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(sys.modules["tgrs.classify"].rank, rank_in_classify)
            report = tgrs.classify(spec, want_distance=True)
        finally:
            tracer.uninstall()
        self.assertEqual(report.params_string(), "[9,3,7]")
        self.assertIs(tgrs.classify, classify_fn)
        self.assertIs(sys.modules["tgrs.classify"].rank, rank_in_classify)
        self.assertIs(tgrs.PhiWorkspace.__dict__["__init__"], init)
        self.assertIs(tgrs.Poly.__dict__["from_roots"], from_roots)

        out = tracing.summarize(tracer.spans)
        self.assertEqual(out["classify.classify"]["calls"], 1)
        self.assertEqual(out["classify.min_distance"]["calls"], 1)
        for name in ("linalg.rank", "linalg.submatrix", "classify.phi_workspace",
                     "poly.from_roots", "symm.context", "codes.parity_check_matrix"):
            self.assertGreater(out[name]["calls"], 0, name)
        root = tracer.spans[0]
        self.assertEqual(root[0], "classify.classify")
        total_self = sum(v["self_s"] for v in out.values())
        self.assertAlmostEqual(total_self, root[2] - root[1], places=6)
        self.assertTrue(all(v["self_s"] >= 0 for v in out.values()))

    def test_probes_report_every_gf_metric(self):
        probes = tracing.gf_probes(tgrs, number=10, repeat=1)
        self.assertEqual(set(probes), {"gf.prime_mul_ns", "gf.ext_mul_ns",
                                       "gf.ext_inv_ns", "gf.element_ns"})
        self.assertTrue(all(v > 0 for v in probes.values()))


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_mixed_batch_is_seeded_and_passes_its_checks(self):
        workloads.setup_mixed(self.tmp, seed=5, reps=1)
        first = (self.tmp / "mixed.json").read_text()
        path, pinned = workloads.setup_mixed(self.tmp, seed=5, reps=1)
        self.assertEqual(path.read_text(), first)
        self.assertFalse(pinned)
        workloads.setup_mixed(self.tmp, seed=6, reps=1)
        self.assertNotEqual(path.read_text(), first)
        result = workloads.run_mixed((path, pinned))
        self.assertEqual(result.codes, len(workloads.MIXED_CELLS))
        self.assertEqual([i.failures for i in result.items if i.failures], [])

    def test_distance_gate_fails_on_a_wrong_expectation(self):
        path = self.tmp / "code.json"
        path.write_text(json.dumps(tgrs.tgrs_spec_to_json(tgrs.GOLDEN_CODES[1].spec())))
        good = workloads.run_distance([("[9,3,7]", path, {"params": "[9,3,7]"})])
        self.assertEqual(good.items[0].failures, [])
        self.assertGreater(good.output_bytes, 0)
        bad = workloads.run_distance([("ok", path, {"params": "[9,3,7]"}),
                                      ("wrong", path, {"params": "[9,3,8]"})])
        self.assertEqual(len(bad.items[1].failures), 1)
        # a failed item is charged the whole pass so far, never a fast success
        self.assertGreaterEqual(bad.items[1].latency_s, bad.items[0].latency_s)

    def test_an_exception_is_a_failed_item(self):
        result = workloads.PassResult()
        workloads._timed("boom", result, lambda: 1 / 0)
        self.assertEqual(result.items[0].failures, ["ZeroDivisionError: division by zero"])


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        one_pass = {"setup_s": 0.1, "wall_s": 2.0, "peak_rss_mb": 20.0,
                    "latencies_s": [0.5, 1.5], "codes": 2, "candidates": 0, "hits": 0,
                    "output_bytes": 10,
                    "probes": {"gf.prime_mul_ns": 1.0, "gf.ext_mul_ns": 1.0,
                               "gf.ext_inv_ns": 1.0, "gf.element_ns": 1.0}}
        e2e = run.end_to_end([one_pass])
        self.assertEqual(set(e2e), {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(e2e["codes_per_s"], 1.0)
        layer = run.per_layer([one_pass], [one_pass], [tracing.summarize([])])
        self.assertEqual(set(layer), {m["name"] for m in spec["per_layer"]})
        self.assertEqual(layer["lcdgen.hit_ratio"], 0.0)

    def test_workloads_and_default_seed_agree(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {w["name"] for w in spec["workloads"]}
        self.assertEqual(names, set(run.WORKLOADS))
        self.assertEqual(names, set(workloads.WORKLOADS))
        self.assertEqual(workloads.DEFAULT_SEED, 1)  # run.py's --seed default

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "distance", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
