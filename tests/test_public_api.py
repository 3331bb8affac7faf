"""The public surface: every exported name resolves and every demo runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tgrs

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in tgrs.__all__ if not hasattr(tgrs, name)]
    assert missing == []
    assert len(set(tgrs.__all__)) == len(tgrs.__all__)


def test_public_surface_is_pinned():
    # an addition or a removal shows up as an edit to this list
    assert sorted(tgrs.__all__) == [
        "BuildResult", "Class1Params", "Class2Params", "CodeReport", "Field",
        "FieldElement", "GOLDEN_CODES", "GoldenCode", "HypothesisCheck", "MatGF",
        "PhiWorkspace", "Poly", "ResourceLimitError", "SearchHit", "SymContext",
        "TgrsError", "TgrsSpec", "ValidationError", "VerificationError",
        "build_class1", "build_class2", "classify", "det", "encode",
        "field_from_json", "field_to_json", "generator_matrix", "hull_dimension",
        "is_amds", "is_mds_minors", "is_mds_phi", "min_distance", "null_space",
        "parity_check_matrix", "quadratic_twist_sum", "r_coefficient", "rank",
        "report_to_json", "search_eta", "tgrs_spec_from_json", "tgrs_spec_to_json",
    ]


def test_package_imports_only_the_standard_library():
    # every absolute import of every module names a standard-library module;
    # relative imports stay inside the package
    outside = []
    for path in sorted((ROOT / "src" / "tgrs").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_five_demos_present():
    assert len(DEMOS) == 5


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_import_loads_no_process_machinery():
    # every CLI call pays the import; a process pool must not creep back in
    probe = ("import sys, tgrs.cli; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout
