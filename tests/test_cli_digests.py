"""Byte-level pins of the CLI: one digest per run of ``tgrs.cli.main``.

Each digest is the first 16 hex digits of the sha256 of the run's exit
code, stdout and stderr, so a change to any byte any subcommand prints, in
either output format, fails here by name.  The runs cover ``check`` (with
the distance search), ``build`` and the recipe of each reference code, the
exhaustive twist search on the benchmark's two templates plus one seeded
random draw, and ``paper-examples`` as shipped and with one expected
generator entry raised by 1 in a patched reference code (``BUMPED``).
"""

import hashlib
import json

import pytest

from test_cli import bumped_generator, patch_golden, recipe_params, search_template
from tgrs import tgrs_spec_to_json
from tgrs.cli import main
from tgrs.golden import GOLDEN_CODES

# The [9,3] template of the twist-search demo and the benchmark: the head
# and sign tail of the [9,3,7] reference code, points left to the recipe.
NINE = {"class": 1, "q": 37, "n": 9, "k": 3, "h": 1, "l": 1, "lambda": 1,
        "v_head": [21, 30], "v_tail_signs": [1, 1, -1, 1, 1, 1, -1]}


def code_runs() -> dict:
    """run id -> (argv, input object or None) for the per-code subcommands."""
    runs = {}
    for pos, gc in enumerate(GOLDEN_CODES, start=1):
        spec, params = tgrs_spec_to_json(gc.spec()), recipe_params(gc)
        for output in ("json", "text"):
            runs[f"check-{pos}-{output}"] = (
                ["check", "--distance-cap", "15", "--output", output], spec)
            runs[f"build-{pos}-{output}"] = (["build", "--output", output], spec)
            runs[f"construct{gc.klass}-{pos}-{output}"] = (
                [f"construct{gc.klass}", "--output", output], params)
    return runs


def search_runs() -> dict:
    ten = search_template(GOLDEN_CODES[3])
    runs = {}
    for output in ("json", "text"):
        runs[f"search-9-{output}"] = (
            ["search", "--budget", str(37 ** 2), "--output", output], NINE)
        runs[f"search-10-{output}"] = (
            ["search", "--budget", str(31 ** 3), "--output", output], ten)
        runs[f"search-10-seed3-{output}"] = (
            ["search", "--budget", "500", "--seed", "3", "--output", output], ten)
    return runs


RUNS = {
    **code_runs(),
    **search_runs(),
    "paper-examples-json": (["paper-examples", "--output", "json"], None),
    "paper-examples-text": (["paper-examples"], None),
    "paper-examples-corrupt-3-2-5": (["paper-examples"], None),
    "paper-examples-corrupt-1-1-1-json": (["paper-examples", "--output", "json"], None),
}

# run id -> (example, row, col), 1-based: the expected generator entry raised by 1
BUMPED = {"paper-examples-corrupt-3-2-5": (3, 2, 5),
          "paper-examples-corrupt-1-1-1-json": (1, 1, 1)}

PINNED = {
    "check-1-json": "f8a053faafd2cf95",
    "build-1-json": "773f595ed67e5362",
    "construct1-1-json": "4f5111cd9960de96",
    "check-1-text": "8112f73d9406067f",
    "build-1-text": "b968290fca772473",
    "construct1-1-text": "dc7e39058b45da84",
    "check-2-json": "a71ad916a58db86b",
    "build-2-json": "af7a4f3a5f73c81f",
    "construct1-2-json": "afef5ab269f147c2",
    "check-2-text": "a32f3ec2655fe2ca",
    "build-2-text": "1f6e891eb3fed1d8",
    "construct1-2-text": "f7ba90027be39654",
    "check-3-json": "d446af087f47d62a",
    "build-3-json": "bc58e3e3a2f4b690",
    "construct2-3-json": "418e6fe542796f0a",
    "check-3-text": "bcec9ef3df4a6a8c",
    "build-3-text": "d6049355eaeb165e",
    "construct2-3-text": "67e3f112adaa470b",
    "check-4-json": "02138f65fbf77225",
    "build-4-json": "a4d9f68cc3605c0c",
    "construct2-4-json": "1b5d9797996d35f0",
    "check-4-text": "165dbe2bad31f82b",
    "build-4-text": "393854c04964655c",
    "construct2-4-text": "6d900e573299c7c1",
    "search-9-json": "ec5700ff7322e643",
    "search-10-json": "f5a1d704dd8ffdce",
    "search-10-seed3-json": "e9c8e12f5faf0cfb",
    "search-9-text": "acc864a44b4754f0",
    "search-10-text": "591354dc957bdefd",
    "search-10-seed3-text": "b7377e9a89cc0f34",
    "paper-examples-json": "b97533f155b58153",
    "paper-examples-text": "774132d0417c11ac",
    "paper-examples-corrupt-3-2-5": "a04fe136eba17e86",
    "paper-examples-corrupt-1-1-1-json": "4bfba10923a26417",
}


def run_digest(tmp_path, capsys, monkeypatch, run_id: str) -> str:
    argv, obj = RUNS[run_id]
    if run_id in BUMPED:
        pos, row, col = BUMPED[run_id]
        patch_golden(monkeypatch, pos - 1,
                     expected_generator=bumped_generator(GOLDEN_CODES[pos - 1], row, col))
    if obj is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        argv = [argv[0], "--input", str(path), *argv[1:]]
    code = main(argv)
    captured = capsys.readouterr()
    blob = json.dumps([code, captured.out, captured.err])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_every_run_is_pinned():
    assert len(RUNS) == 34
    assert set(PINNED) == set(RUNS)


@pytest.mark.parametrize("run_id", list(RUNS))
def test_output_digest(tmp_path, capsys, monkeypatch, run_id):
    assert run_digest(tmp_path, capsys, monkeypatch, run_id) == PINNED[run_id]
