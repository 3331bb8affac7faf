"""One benchmark pass in a fresh interpreter, so no pass reuses tgrs state.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR [SPANS_FILE]

Set-up (import tgrs from the checkout's ``src``, build the fields, generate
the inputs and write the input JSON) is timed separately from the timed
section, which drives the workload and checks its results. With SPANS_FILE
the timed section is traced, the spans are written there, and the gf probes
run after it. Prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    spans_file = argv[3] if len(argv) > 3 else None

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import tgrs
    if Path(tgrs.__file__).resolve().parent != SRC / "tgrs":
        print(f"worker: tgrs imported from {tgrs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    setup, run = workloads.WORKLOADS[workload]
    inputs = setup(workdir, seed)
    setup_s = time.perf_counter() - start

    tracer = None
    if spans_file:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    start = time.perf_counter()
    result = run(inputs)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": [item.latency_s for item in result.items],
        "failures": [f"{item.label}: {msg}" for item in result.items for msg in item.failures]
                    + result.batch_failures,
        "attempted": len(result.items) + result.batch_checks,
        "failed": sum(1 for item in result.items if item.failures) + len(result.batch_failures),
        "codes": result.codes,
        "candidates": result.candidates,
        "hits": result.hits,
        "output_bytes": result.output_bytes,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spans_file)
        out["probes"] = tracing.gf_probes(tgrs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
