"""Smoke tests: the benchmark harness's own self-test and all three of its
workloads pass their gates against this tree.

The harness wraps functions where tgrs modules bind them (``rank`` in
``classify``, ``det`` in ``linalg``, ``MatGF.submatrix`` on the class), and
its search workload reads templates through
``tgrs.lcdgen.template_from_json``, so a refactor that renames or rebinds
them shows up here rather than in a benchmark run.  The distance and
mixed_fields gates compare reports with pinned certificates and a pinned
digest of the seed-1 batch, so a change to any reported verdict, distance
or certificate fails here too.
"""

import importlib
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SELFTEST = PERFBENCH / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_search_workload_passes_its_gates(tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    result = workloads.run_search(workloads.setup_search(tmp_path, seed=1))
    assert [item.label for item in result.items] == list(workloads.SEARCH_EXPECTED)
    assert [item.failures for item in result.items] == [[], []]
    assert (result.candidates, result.hits) == (1369 + 29791, 117 + 40)


def test_distance_workload_passes_its_gates(tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    result = workloads.run_distance(workloads.setup_distance(tmp_path, 1))
    assert len(result.items) == len(workloads.DISTANCE_CODES)
    assert [item.failures for item in result.items] == [[]] * len(result.items)


def test_mixed_workload_passes_its_gates(tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    result = workloads.run_mixed(workloads.setup_mixed(tmp_path, 1))
    assert all(item.failures == [] for item in result.items)
    assert workloads.MIXED_DIGEST == "5e76fd0c57ce1c89"
    assert (result.batch_checks, result.batch_failures) == (1, [])

