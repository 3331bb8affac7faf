"""Smoke tests: the benchmark harness's own self-test and its search workload
pass against this tree.

The harness wraps functions where tgrs modules bind them (``rank`` and
``det`` in ``classify``, ``MatGF.submatrix`` on the class), and its search
workload reads templates through ``tgrs.lcdgen.template_from_json``, so a
refactor that renames or rebinds them shows up here rather than in a
benchmark run.
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


def test_search_workload_passes_its_gates(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    result = workloads.run_search(workloads.setup_search(tmp_path, seed=1))
    assert [item.label for item in result.items] == list(workloads.SEARCH_EXPECTED)
    assert [item.failures for item in result.items] == [[], []]
    assert (result.candidates, result.hits) == (1369 + 29791, 117 + 40)
