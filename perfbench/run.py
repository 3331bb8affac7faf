"""Benchmark harness for tgrs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/tgrs``. Workloads are
``distance``, ``search`` and ``mixed_fields`` (see ``workloads.py`` and
``README.md``). A run repeats passes, each in a fresh interpreter with
``TGRS_WORKERS=1``, until ``--seconds`` have gone by (at least
``MIN_PASSES``), and reports medians over the passes.

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the seed, Python, commit, ``nproc`` and CPU model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("distance", "search", "mixed_fields")
MIN_PASSES = 3
RUN_LIMIT_S = 170  # every pass must end within this many seconds of the start
# Self time of these spans is the elimination work behind the distance search.
LINALG_SPANS = ("linalg.rank", "linalg.det", "linalg.submatrix", "classify.min_distance")


class HarnessError(Exception):
    pass


def run_pass(workload: str, seed: int, workdir: Path, deadline: float,
             spans_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(workdir)]
    if spans_file is not None:
        cmd.append(str(spans_file))
    # No pass writes bytecode into the checkout, so set-up is alike in every pass.
    env = dict(os.environ, TGRS_WORKERS="1", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"a {workload} pass ran past the {RUN_LIMIT_S} s limit") from None
    if proc.returncode != 0:
        raise HarnessError(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(passes: list[dict]) -> dict[str, float]:
    # Every pass runs the same items in the same order. Taking each item's
    # median over the passes drops the passes a burst of machine load hit.
    items = [median(lat) for lat in zip(*(p["latencies_s"] for p in passes))]
    wall = sum(items)
    p90 = statistics.quantiles(items, n=10, method="inclusive")[8] if len(items) > 1 else items[0]
    return {
        "setup_s": median(p["setup_s"] for p in passes),
        "wall_s": wall,
        "codes_per_s": median(p["codes"] for p in passes) / wall,
        "candidates_per_s": median(p["candidates"] or p["codes"] for p in passes) / wall,
        "code_p50_ms": median(items) * 1e3,
        "code_p90_ms": p90 * 1e3,
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict],
              summaries: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = median(s[name]["calls"] for s in summaries)
        out[f"{name}.self_s"] = median(s[name]["self_s"] for s in summaries)
    for probe in traced[0]["probes"]:
        out[probe] = median(p["probes"][probe] for p in traced)
    traced_wall = median(p["wall_s"] for p in traced)
    linalg_frac = median(sum(s[name]["self_s"] for name in LINALG_SPANS) / p["wall_s"]
                          for s, p in zip(summaries, traced))
    candidates = median(p["candidates"] for p in traced)
    hits = median(p["hits"] for p in traced)
    out.update({
        "cli.output_bytes": median(p["output_bytes"] for p in traced),
        "lcdgen.candidates": candidates,
        "lcdgen.hits": hits,
        "lcdgen.hit_ratio": hits / candidates if candidates else 0.0,
        "linalg.wall_frac": linalg_frac,
        "trace.overhead_frac": traced_wall / median(p["wall_s"] for p in untraced) - 1,
    })
    return out


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1,  # workloads.DEFAULT_SEED
                        help="workload seed; only mixed_fields draws from it")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tgrs" / "__init__.py").is_file():
        print(f"run.py: no tgrs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    untraced: list[dict] = []
    traced: list[dict] = []
    summaries: list[dict] = []
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        while True:
            untraced.append(run_pass(args.workload, args.seed, workdir, deadline))
            if args.trace:
                out_dir = HERE / "out"
                out_dir.mkdir(exist_ok=True)
                spans_file = out_dir / f"{args.workload}.spans.jsonl"
                traced.append(run_pass(args.workload, args.seed, workdir, deadline,
                                       spans_file))
                summaries.append(tracing.summarize(tracing.read_spans(spans_file)))
            elapsed = time.monotonic() - start
            if elapsed >= args.seconds and (args.trace or len(untraced) >= MIN_PASSES):
                break
            # Stop early rather than let a slow program run past the limit.
            if elapsed * (len(untraced) + 1) / len(untraced) > RUN_LIMIT_S:
                break
        metrics = per_layer(untraced, traced, summaries) if args.trace else end_to_end(untraced)
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"run.py: metrics {sorted(set(metrics) ^ set(names))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for msg in sorted({m for p in passes for m in p["failures"]})[:20]:
        print(f"run.py: check failed: {msg}", file=sys.stderr)
    print(json.dumps({"info": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "passes": len(untraced), "traced_passes": len(traced),
        "items_per_pass": len(untraced[0]["latencies_s"]),
        "error_rate": failed / attempted if attempted else 1.0,
    }}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
