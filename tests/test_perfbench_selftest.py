"""Smoke test: the benchmark harness's own self-test passes against this tree.

The harness wraps functions where tgrs modules bind them (``rank`` and
``det`` in ``classify``, ``MatGF.submatrix`` on the class), so a refactor that
renames or rebinds them shows up here rather than in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
