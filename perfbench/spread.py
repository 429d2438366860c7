"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload eh-bound --seeds 1-10 [--seconds 10]

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and
third quartile as a share of the median (``statistics.quantiles`` with
``n=4``), next to the metric's bound from ``BENCHMARK.json``.  Every
run's result line is appended to ``perfbench/out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from reference import BENCH_DIR, ROOT, run


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        result = run(args.workload, seed, seconds, 0)
        with open(os.path.join(BENCH_DIR, "out", "spread.jsonl"), "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 **result}) + "\n")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()), flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{args.workload} {m['name']}: median {med:.4g} {m['unit']}  "
              f"IQR/median {(q3 - q1) / med:.3f}  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
