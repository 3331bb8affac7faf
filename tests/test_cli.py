"""Command-line behavior: exit codes, output formats, embedded examples."""

import argparse
import dataclasses
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from tgrs import SymContext, tgrs_spec_to_json
from tgrs.cli import build_parser, main
from tgrs.golden import GOLDEN_CODES


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def count_matrix_builds(monkeypatch) -> Counter:
    """Counts of generator and parity-check builds, wherever tgrs binds the builders."""
    calls = Counter()
    for module in ("tgrs.cli", "tgrs.classify"):
        for name in ("generator_matrix", "parity_check_matrix"):
            build = getattr(sys.modules[module], name)
            monkeypatch.setattr(sys.modules[module], name,
                                lambda *a, build=build, name=name, **kw:
                                calls.update([name]) or build(*a, **kw))
    return calls


def refused_check(tmp_path, capsys, monkeypatch, k: int, budget: int) -> str:
    """stderr of ``check`` refused by the distance node budget.

    The input is the [15,4] reference code's spec with dimension k: k = 4
    takes the hyperplane walk, k = 8 (2k >= n) the column walk.
    """
    obj = tgrs_spec_to_json(GOLDEN_CODES[0].spec())
    obj["k"] = k
    path = write_json(tmp_path / "spec.json", obj)
    monkeypatch.setattr(sys.modules["tgrs.classify"], "DISTANCE_NODE_BUDGET", budget)
    assert main(["check", "--input", path, "--distance-cap", "15"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.out + captured.err
    return captured.err


@pytest.fixture
def golden_spec_file(tmp_path):
    return write_json(tmp_path / "spec.json", tgrs_spec_to_json(GOLDEN_CODES[1].spec()))


def recipe_params(gc) -> dict:
    """The recipe parameter file of a reference code: k for recipe 1, m_gap for 2."""
    obj = {"q": gc.q, "n": gc.n, "h": gc.h, "l": gc.l, "lambda": gc.lam,
           "eta": list(gc.eta), "v_head": list(gc.v[: gc.k - 1]),
           "v_tail_signs": list(gc.v[gc.k - 1:]), "alpha": list(gc.alpha)}
    obj.update({"k": gc.k} if gc.klass == 1 else {"m_gap": gc.m_gap})
    return obj


DELETED = "<deleted>"  # an edit that removes the field


def edited(obj: dict, key: str, value) -> dict:
    """A copy of obj with one field set to value, or removed for DELETED."""
    obj = dict(obj)
    if value == DELETED:
        del obj[key]
    else:
        obj[key] = value
    return obj


def bumped_generator(gc, row: int, col: int) -> tuple:
    """gc's expected generator with its entry at (row, col), 1-based, raised by 1."""
    rows = [list(r) for r in gc.expected_generator]
    rows[row - 1][col - 1] += 1
    return tuple(map(tuple, rows))


def patch_golden(monkeypatch, index: int, **change) -> None:
    """Make ``paper-examples`` read reference code ``index`` (0-based) changed by ``change``."""
    codes = list(GOLDEN_CODES)
    codes[index] = dataclasses.replace(codes[index], **change)
    monkeypatch.setattr(sys.modules["tgrs.cli"], "GOLDEN_CODES", codes)


def search_template(gc) -> dict:
    """A reference code's recipe parameters with the twist vector left free."""
    obj = {"class": gc.klass, "k": gc.k, **recipe_params(gc)}
    del obj["eta"]
    return obj


@pytest.fixture
def recipe1_params_file(tmp_path):
    return write_json(tmp_path / "params1.json", recipe_params(GOLDEN_CODES[1]))


@pytest.fixture
def recipe2_params_file(tmp_path):
    return write_json(tmp_path / "params2.json", recipe_params(GOLDEN_CODES[3]))


class TestCheck:
    def test_reports_published_mds_code(self, golden_spec_file, capsys):
        assert main(["check", "--input", golden_spec_file]) == 0
        out = capsys.readouterr().out
        assert "[9,3,7]" in out
        assert "lcd True" in out and "mds True" in out

    def test_text_notes_boundary_hook(self, tmp_path, capsys):
        obj = tgrs_spec_to_json(GOLDEN_CODES[1].spec())
        obj["h"] = obj["k"] - 1
        assert main(["check", "--input", write_json(tmp_path / "spec.json", obj)]) == 0
        assert "\nnote: hook at the upper boundary h = k-1\n" in capsys.readouterr().out

    def test_json_output_parses(self, golden_spec_file, capsys):
        assert main(["check", "--input", golden_spec_file, "--output", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["report"]["is_lcd"] is True
        assert blob["report"]["min_distance"] == 7
        assert blob["generator"] == GOLDEN_CODES[1].normalized_generator()

    def test_duplicate_alpha_exits_2(self, tmp_path, capsys):
        obj = tgrs_spec_to_json(GOLDEN_CODES[1].spec())
        obj["alpha"][4] = obj["alpha"][1]
        code = main(["check", "--input", write_json(tmp_path / "bad.json", obj)])
        assert code == 2
        assert "positions 1 and 4" in capsys.readouterr().err

    def test_twist_bound_violation_exits_2(self, tmp_path, capsys):
        obj = tgrs_spec_to_json(GOLDEN_CODES[1].spec())
        obj["l"] = obj["n"] - obj["k"]  # one past the allowed maximum
        obj["eta"] = [1] * (obj["l"] + 1)
        code = main(["check", "--input", write_json(tmp_path / "bad.json", obj)])
        assert code == 2
        assert "n-k-1" in capsys.readouterr().err

    def test_malformed_json_exits_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"n": 5,,}')
        assert main(["check", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["check", "--input", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("name,value", [("l", True), ("k", 3.0)])
    def test_non_integer_field_exits_2(self, tmp_path, capsys, name, value):
        obj = tgrs_spec_to_json(GOLDEN_CODES[1].spec())
        obj[name] = value
        assert main(["check", "--input", write_json(tmp_path / "bad.json", obj)]) == 2
        captured = capsys.readouterr()
        assert f"'{name}' must be an integer" in captured.err
        assert captured.out == ""

    def test_distance_budget_refusal_exits_2(self, tmp_path, capsys, monkeypatch):
        err = refused_check(tmp_path, capsys, monkeypatch, k=4, budget=65)  # 66 nodes
        assert "budget of 65 nodes" in err and "8 <= d <= 10" in err

    def test_column_walk_budget_refusal_exits_2(self, tmp_path, capsys, monkeypatch):
        err = refused_check(tmp_path, capsys, monkeypatch, k=8, budget=1000)  # 1,946 nodes
        assert "budget of 1000 nodes" in err and "d <= 6" in err

    def test_criterion_row_budget_refusal_exits_2(self, golden_spec_file, capsys,
                                                  monkeypatch):
        # the [9,3,7] code is MDS, so its criterion walk needs all C(9,3) = 84 rows
        monkeypatch.setattr(sys.modules["tgrs.classify"], "CRITERION_ROW_BUDGET", 83)
        assert main(["check", "--input", golden_spec_file]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "budget of 83 rows" in captured.err
        assert captured.out == ""

    def test_builds_one_symmetric_context(self, golden_spec_file, capsys, monkeypatch):
        # one point-set context per check, built for the parity check
        built = []
        init = SymContext.__init__
        monkeypatch.setattr(SymContext, "__init__",
                            lambda self, points: built.append(points) or init(self, points))
        assert main(["check", "--input", golden_spec_file]) == 0
        assert "[9,3,7]" in capsys.readouterr().out
        assert len(built) == 1

    def test_builds_each_matrix_once(self, golden_spec_file, capsys, monkeypatch):
        # the printed matrices are the ones the classification built
        calls = count_matrix_builds(monkeypatch)
        assert main(["check", "--input", golden_spec_file, "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["generator"] == (
            GOLDEN_CODES[1].normalized_generator())
        assert calls == {"generator_matrix": 1, "parity_check_matrix": 1}

    def test_distance_cap_beyond_length_runs_distance(self, golden_spec_file, capsys):
        assert main(["check", "--input", golden_spec_file, "--distance-cap", "30"]) == 0
        assert "min_distance 7" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["check", "search"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        budget = ["--budget", "5"] if command == "search" else []
        assert main([command, "--input", str(path), *budget]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: not UTF-8")
        assert "Traceback" not in captured.out + captured.err


class TestBuild:
    def test_emits_both_matrices(self, golden_spec_file, capsys):
        assert main(["build", "--input", golden_spec_file]) == 0
        out = capsys.readouterr().out
        assert "generator matrix" in out and "parity-check matrix" in out

    def test_json_matrices(self, golden_spec_file, capsys):
        assert main(["build", "--input", golden_spec_file, "--output", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert len(blob["parity_check"]) == 6


class TestConstruct:
    def test_recipe1_applicable(self, recipe1_params_file, capsys):
        assert main(["construct1", "--input", recipe1_params_file]) == 0
        out = capsys.readouterr().out
        assert "applicable" in out

    def test_recipe2_applicable_json(self, recipe2_params_file, capsys):
        assert main(["construct2", "--input", recipe2_params_file, "--output", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["applicable"] is True
        assert any(c["condition"].startswith("quadratic") for c in blob["record"])

    def test_recipe1_gate_failure_exits_1(self, tmp_path, capsys):
        gc = GOLDEN_CODES[1]
        obj = {
            "q": gc.q, "n": gc.n, "k": gc.k, "h": gc.h, "l": gc.l, "lambda": gc.lam,
            "eta": [0, 20],  # zeroes the gate coefficient
            "v_head": list(gc.v[: gc.k - 1]), "v_tail_signs": list(gc.v[gc.k - 1:]),
            "alpha": list(gc.alpha),
        }
        code = main(["construct1", "--input", write_json(tmp_path / "p.json", obj)])
        assert code == 1
        assert "inapplicable" in capsys.readouterr().out

    @pytest.mark.parametrize("command,name,value", [("construct1", "n", True),
                                                    ("construct2", "m_gap", 2.0),
                                                    ("construct2", "k", True)])
    def test_non_integer_field_exits_2(self, tmp_path, capsys, recipe1_params_file,
                                       recipe2_params_file, command, name, value):
        path = recipe1_params_file if command == "construct1" else recipe2_params_file
        obj = json.loads(Path(path).read_text())
        obj[name] = value
        assert main([command, "--input", write_json(tmp_path / "bad.json", obj)]) == 2
        assert f"'{name}' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command,name", [("construct1", "m_gap"), ("construct2", "k")])
    def test_null_optional_reads_as_absent(self, tmp_path, capsys, recipe1_params_file,
                                           recipe2_params_file, command, name):
        path = recipe1_params_file if command == "construct1" else recipe2_params_file
        obj = json.loads(Path(path).read_text())
        obj.pop(name, None)
        assert main([command, "--input", write_json(tmp_path / "absent.json", obj),
                     "--output", "json"]) == 0
        absent = capsys.readouterr().out
        obj[name] = None
        assert main([command, "--input", write_json(tmp_path / "null.json", obj),
                     "--output", "json"]) == 0
        assert capsys.readouterr().out == absent

    def test_bad_params_exit_2(self, tmp_path, capsys):
        obj = {"q": 31, "n": 7, "k": 2, "h": 1, "l": 0, "lambda": 1, "eta": [1],
               "v_head": [2], "v_tail_signs": [1] * 6}
        assert main(["construct1", "--input", write_json(tmp_path / "p.json", obj)]) == 2


class TestSearch:
    def test_finds_published_twist(self, tmp_path, capsys):
        gc = GOLDEN_CODES[1]
        template = {
            "class": 1, "q": gc.q, "n": gc.n, "k": gc.k, "h": gc.h, "l": gc.l,
            "lambda": gc.lam, "v_head": list(gc.v[: gc.k - 1]),
            "v_tail_signs": list(gc.v[gc.k - 1:]), "alpha": list(gc.alpha),
        }
        path = write_json(tmp_path / "tpl.json", template)
        assert main(["search", "--input", path, "--budget", "1369",
                     "--output", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert [22, 24] in [h["eta"] for h in blob["hits"]]
        assert blob["count"] == len(blob["hits"])

    @pytest.mark.parametrize("name,value", [("k", 3.0), ("l", True), ("class", True),
                                            ("m_gap", 2.0)])
    def test_non_integer_field_exits_2(self, tmp_path, capsys, name, value):
        gc = GOLDEN_CODES[1]
        template = {
            "class": 1, "q": gc.q, "n": gc.n, "k": gc.k, "h": gc.h, "l": gc.l,
            "lambda": gc.lam, "v_head": list(gc.v[: gc.k - 1]),
            "v_tail_signs": list(gc.v[gc.k - 1:]), name: value,
        }
        path = write_json(tmp_path / "tpl.json", template)
        assert main(["search", "--input", path, "--budget", "1369"]) == 2
        captured = capsys.readouterr()
        assert f"'{name}' must be an integer" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["search", "construct1", "construct2"])
    def test_non_object_input_exits_2(self, tmp_path, capsys, command):
        path = write_json(tmp_path / "tpl.json", "q")
        budget = ["--budget", "5"] if command == "search" else []
        assert main([command, "--input", path, *budget]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("klass,key,value,message", [
        (1, "k", DELETED, "parameters missing fields: k"),
        (2, "m_gap", DELETED, "parameters missing fields: m_gap"),
        (1, "class", 3, "template class must be 1 or 2"),
    ], ids=["class1-without-k", "class2-without-m_gap", "class-3"])
    def test_template_structure_errors_exit_2(self, tmp_path, capsys, klass, key, value,
                                              message):
        template = search_template(GOLDEN_CODES[1 if klass == 1 else 3])
        path = write_json(tmp_path / "tpl.json", edited(template, key, value))
        assert main(["search", "--input", path, "--budget", "5"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_extension_field_text_prints_r_as_json(self, tmp_path, capsys):
        template = {"class": 1, "field": {"p": 2, "m": 4, "modulus": [1, 1, 0, 0, 1]},
                    "n": 5, "k": 2, "h": 1, "l": 0, "lambda": 1,
                    "v_head": [[0, 1]], "v_tail_signs": [1, 1, 1, 1]}
        path = write_json(tmp_path / "gf16.json", template)
        assert main(["search", "--input", path, "--budget", "16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("eta [[0, 0, 0, 1]]  r [1, 0, 0, 1]  [5,2]")
        assert len(lines) == 5 and not any("(" in line for line in lines[1:])

    def test_budget_zero_exits_2(self, tmp_path, capsys):
        template = {"class": 1, "q": 37, "n": 9, "k": 3, "h": 1, "l": 1, "lambda": 1,
                    "v_head": [21, 30], "v_tail_signs": [1, 1, -1, 1, 1, 1, -1]}
        path = write_json(tmp_path / "tpl.json", template)
        assert main(["search", "--input", path, "--budget", "0"]) == 2
        err = capsys.readouterr().err
        assert "search budget must be a positive integer, got 0" in err
        assert "Traceback" not in err


class TestPaperExamples:
    def test_all_pass(self, capsys):
        assert main(["paper-examples"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        for shape in ("[15,4]", "[9,3,7]", "[15,6]", "[10,3,8]"):
            assert shape in out

    def test_hermetic_json_output(self, capsys):
        assert main(["paper-examples", "--output", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["all_pass"] is True
        assert [r["r"] for r in blob["results"]] == [14, 3, 15, 7]

    def test_generator_mismatch_in_json(self, capsys, monkeypatch):
        patch_golden(monkeypatch, 0, expected_generator=bumped_generator(GOLDEN_CODES[0], 1, 1))
        assert main(["paper-examples", "--output", "json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["all_pass"] is False
        assert [r["pass"] for r in blob["results"]] == [False, True, True, True]
        assert blob["results"][0]["mismatch"] == {"row": 1, "col": 1, "got": 18, "want": 19}

    @pytest.mark.parametrize("index,change,message", [
        (0, {"expected_r": 15}, "example 1 r coefficient: got 14, want 15"),
        (1, {"expected_distance": 8}, "example 2 classification verdict mismatch"),
        (3, {"expect_mds": False}, "example 4 classification verdict mismatch"),
        (2, {"expected_generator": bumped_generator(GOLDEN_CODES[2], 2, 5)},
         "example 3 generator mismatch at row 2 col 5: got 5, want 6"),
    ])
    def test_expectation_mismatch_named(self, capsys, monkeypatch, index, change, message):
        patch_golden(monkeypatch, index, **change)
        assert main(["paper-examples"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"first failure: {message}\n"
        assert captured.out.count("PASS") == 3 and captured.out.count("FAIL") == 1

    def test_builds_one_generator_per_code(self, capsys, monkeypatch):
        calls = count_matrix_builds(monkeypatch)
        assert main(["paper-examples"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4
        assert calls["generator_matrix"] == 4


BAD_VALUES = (None, 0, -1, 5, "x", [], [1], {}, True, 2.5)
ELEMENT_LISTS = {"alpha", "v", "eta", "v_head", "v_tail_signs"}
BOUNDARY_INPUTS = {
    "check": (["check"], lambda: tgrs_spec_to_json(GOLDEN_CODES[1].spec())),
    "build": (["build"], lambda: tgrs_spec_to_json(GOLDEN_CODES[1].spec())),
    "construct1": (["construct1"], lambda: recipe_params(GOLDEN_CODES[1])),
    "construct2": (["construct2"], lambda: recipe_params(GOLDEN_CODES[3])),
    "search1": (["search", "--budget", "5"], lambda: search_template(GOLDEN_CODES[1])),
    "search2": (["search", "--budget", "5"], lambda: search_template(GOLDEN_CODES[3])),
}


class TestBoundaryFuzz:
    """Every field of every CLI input, replaced by each bad value or deleted."""

    @pytest.mark.parametrize("name", list(BOUNDARY_INPUTS))
    def test_one_bad_field_never_raises(self, tmp_path, capsys, name):
        command, make = BOUNDARY_INPUTS[name]
        base = make()
        path = tmp_path / "input.json"
        raised, cases = [], 0
        for key in base:
            for value in (*BAD_VALUES, DELETED):
                path.write_text(json.dumps(edited(base, key, value)))
                cases += 1
                try:
                    code = main([command[0], "--input", str(path), *command[1:]])
                except Exception as exc:  # what the test is looking for
                    raised.append((key, value, f"{type(exc).__name__}: {exc}"))
                    continue
                out, err = capsys.readouterr()
                assert code in (0, 1, 2), (key, value, code)
                if code == 2:
                    assert err.startswith("error: ") and out == "", (key, value, err)
                if key in ELEMENT_LISTS and value != DELETED and not isinstance(value, list):
                    assert code == 2 and f"field '{key}' must be a list" in err, (key, value)
        assert cases == 11 * len(base)
        assert raised == []


class TestExtensionFieldInput:
    def test_check_over_gf9(self, tmp_path, capsys):
        obj = {
            "field": {"p": 3, "m": 2, "modulus": [1, 0, 1]},
            "n": 4, "k": 2, "l": 1, "h": 1,
            "alpha": [[1, 0], [2, 0], [0, 1], [0, 2]],  # the 4th roots of unity
            "v": [[1, 0], [1, 1], [1, 0], [2, 0]],
            "eta": [[0, 1], [2, 0]],
        }
        path = write_json(tmp_path / "ext.json", obj)
        assert main(["check", "--input", path, "--output", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["report"]["n"] == 4
        assert isinstance(blob["generator"][0][0], list)


    def test_float_twist_exits_2(self, tmp_path, capsys):
        obj = {
            "field": {"p": 3, "m": 2, "modulus": [1, 0, 1]},
            "n": 4, "k": 2, "l": 0, "h": 1,
            "alpha": [[1, 0], [2, 0], [0, 1], [0, 2]],
            "v": [[1, 0], [1, 1], [1, 0], [2, 0]],
            "eta": [1.5],
        }
        path = write_json(tmp_path / "float.json", obj)
        assert main(["check", "--input", path]) == 2
        assert "1.5" in capsys.readouterr().err

    def test_field_over_table_bound_exits_2(self, tmp_path, capsys):
        obj = {
            "field": {"p": 2, "m": 17, "modulus": [1, 0, 0, 1] + [0] * 13 + [1]},
            "n": 4, "k": 2, "l": 0, "h": 1,
            "alpha": [[0], [1], [0, 1], [1, 1]], "v": [[1]] * 4, "eta": [[1]],
        }
        path = write_json(tmp_path / "gf2_17.json", obj)
        assert main(["check", "--input", path]) == 2
        err = capsys.readouterr().err
        assert "131072 exceeds the 2^16 bound" in err and "Traceback" not in err


class TestVerificationFailure:
    @pytest.mark.parametrize("wrong_d,message", [(1, "classification inconsistency"),
                                                 (8, "Singleton")])
    def test_wrong_distance_exits_1(self, golden_spec_file, capsys, monkeypatch,
                                    wrong_d, message):
        # the [9,3,7] code is MDS, so any other distance contradicts the verdicts
        monkeypatch.setattr(sys.modules["tgrs.classify"], "min_distance",
                            lambda H, floor=1: wrong_d)
        assert main(["check", "--input", golden_spec_file]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_search_hit_with_inapplicable_build_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys.modules["tgrs.lcdgen"], "r_coefficient",
                            lambda k, h, eta, head: head[0].field.zero())
        path = write_json(tmp_path / "tpl.json", search_template(GOLDEN_CODES[1]))
        assert main(["search", "--input", path, "--budget", "1369"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: eta ") and "inapplicable" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_exported_as_package_error(self):
        from tgrs import TgrsError, VerificationError
        assert issubclass(VerificationError, TgrsError)


class TestJsonStability:
    def test_report_emission_round_trips(self, golden_spec_file, capsys):
        main(["check", "--input", golden_spec_file, "--output", "json"])
        first = capsys.readouterr().out
        parsed = json.loads(first)
        again = json.dumps(parsed, sort_keys=True, indent=2) + "\n"
        assert first == again


class TestParser:
    def test_built_once_per_process(self, golden_spec_file, capsys):
        parser = build_parser()
        assert main(["check", "--input", golden_spec_file]) == 0
        assert main(["build", "--input", golden_spec_file, "--output", "json"]) == 0
        assert build_parser() is parser


class TestReadmeSynopsis:
    def test_flags_match_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        documented = {}
        for line in block.strip().splitlines():
            words = line.split()
            assert words[0] == "tgrs", line
            documented[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        actual = {name: {opt for act in sub._actions for opt in act.option_strings
                         if opt.startswith("--") and opt != "--help"}
                  for name, sub in subparsers.choices.items()}
        assert documented == actual
