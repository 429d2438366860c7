"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W --seeds A-B

For each seed (a list of seeds ``A`` and ranges ``A-B``, such as
``1-20,101,102``) it runs the untraced ``perfbench/run.py`` of both
checkouts, each in a fresh interpreter and one run at a time: the
parent first in even-numbered pairs and the change first in
odd-numbered ones.  Both checkouts' own
``BENCHMARK.json`` must give the same run length.  For each end-to-end
metric it prints each side's median and quartiles
(``statistics.quantiles`` with ``n=4``), the pairs the change wins
(ties count for neither side) and whether the change shows a gain: it
wins at least nine tenths of the pairs, and its median is better than
the parent's by more than the distance between the parent's quartiles.
It also prints the no-regression verdict of each metric, against the
metric's ``bound`` in ``BENCHMARK.json`` (:func:`regression_verdict`).
It writes nothing itself; each ``run.py`` writes only under its own
``perfbench/out``.  Exit code 1 when any run reports an incorrect
answer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List

from bench_record import run


def parse_seeds(text: str) -> List[int]:
    """The seeds of a comma-separated list of parts, each a seed ``A`` or
    a range ``A-B`` with A <= B, as in ``1-20,101,102``; as an argparse
    type it turns an empty, malformed or descending part into a usage
    error (exit code 2)."""
    seeds: List[int] = []
    for part in text.split(","):
        try:
            lo, hi = part.split("-") if "-" in part else (part, part)
            span = range(int(lo), int(hi) + 1)
        except ValueError:
            span = range(0)
        if not span:
            raise argparse.ArgumentTypeError(
                f"no seeds in {part!r} of {text!r}; give A or A-B with A <= B, "
                "or a comma-separated list of them")
        seeds.extend(span)
    return seeds


def benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def regression_verdict(parent: List[float], change: List[float], sign: int,
                       bound: float) -> str:
    """``regression`` when the change's median is worse than the parent's
    by more than ``bound`` times the parent's median, ``no regression``
    otherwise; but ``unresolved`` when the parent's quartile distance
    exceeds ``bound`` times its median, unless every change run beats
    every parent run.  ``sign`` is 1 when lower is better, -1 when
    higher is."""
    pq1, pmed, pq3 = quartiles(parent)
    if all(sign * (p - c) > 0 for p in parent for c in change):
        return "no regression"
    if pq3 - pq1 > bound * abs(pmed):
        return "unresolved"
    if sign * (statistics.median(change) - pmed) > bound * abs(pmed):
        return "regression"
    return "no regression"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seeds A and ranges A-B, comma-separated")
    args = parser.parse_args()
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    benches = {side: benchmark(root) for side, root in roots.items()}
    seconds = {b["run_seconds"] for b in benches.values()}
    if len(seconds) != 1:
        print(f"the checkouts' run lengths differ: {sorted(seconds)}", file=sys.stderr)
        return 2
    seconds = seconds.pop()
    metrics = benches["change"]["end_to_end"]
    values: Dict[str, Dict[str, List[float]]] = {
        side: {m["name"]: [] for m in metrics} for side in roots}
    incorrect = 0
    for i, seed in enumerate(args.seeds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result = run(roots[side], args.workload, seed, seconds, 0)
            incorrect += not result["correct"]
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"pair {i} seed {seed} {side}: correct {result['correct']}, "
                  + ", ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.4g}"
                              for m in metrics), flush=True)
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        parent, change = values["parent"][name], values["change"][name]
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        gap, iqr = sign * (pmed - cmed), pq3 - pq1
        gain = wins >= 0.9 * len(parent) and gap > iqr
        print(f"{args.workload} {name} ({m['unit']}, {m['better']} is better):\n"
              f"  parent median {pmed:.4g}, quartiles {pq1:.4g} / {pq3:.4g}\n"
              f"  change median {cmed:.4g}, quartiles {cq1:.4g} / {cq3:.4g}\n"
              f"  change wins {wins}, loses {losses} of {len(parent)} pairs; "
              f"median gain {gap:.4g} vs parent IQR {iqr:.4g}: "
              f"{'gain' if gain else 'no gain shown'}\n"
              f"  bound {m['bound']:.4g} of the parent median: "
              f"{regression_verdict(parent, change, sign, m['bound'])}")
    print(f"incorrect runs: {incorrect}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
