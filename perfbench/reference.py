"""Write ``perfbench/reference.json``: the machine, and untraced and
traced runs of every workload in ``workloads.py`` at one seed.

    python3 perfbench/reference.py [--seed 101]

The file records the processor count, the Python and sympy versions,
sympy's ground types, each workload's end-to-end metrics, its per-layer
metrics, and the tracing overhead (traced minus untraced ``solve_s``).
Each workload gets ``PAIRS`` untraced and ``PAIRS`` traced runs,
alternating which goes first; every value is the median over its runs.
Runs go one at a time, each in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 900
PAIRS = 3


def environment() -> dict:
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "sympy_ground_types": GROUND_TYPES,
    }


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def medians(results) -> dict:
    return {k: statistics.median(r["metrics"][k]["value"] for r in results)
            for k in results[0]["metrics"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    doc = {"environment": environment(), "seed": args.seed,
           "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in WORKLOADS:
        plain, traced = [], []
        for i in range(PAIRS):
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                (traced if trace else plain).append(
                    run(name, args.seed, bench["run_seconds"], trace))
        values, layers = medians(plain), medians(traced)
        doc["workloads"][name] = {
            "correct": all(r["correct"] for r in plain + traced),
            "solve_s_runs": [r["metrics"]["solve_s"]["value"] for r in plain],
            "traced_solve_s_runs": [r["metrics"]["trace.solve_s"]["value"]
                                    for r in traced],
            "end_to_end": values,
            "tracing_overhead_s": layers["trace.solve_s"] - values["solve_s"],
            "per_layer": layers,
        }
        print(f"{name}: solve_s {values['solve_s']:.2f} traced "
              f"{layers['trace.solve_s']:.2f}", flush=True)
    with open(os.path.join(BENCH_DIR, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
