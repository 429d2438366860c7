"""geosym benchmark: one run of one workload at one seed.

    python3 perfbench/run.py --workload eh-bound --seed 101 --seconds 10 --trace 0

Run it from the repository root or anywhere else: the program is
imported from the ``src`` directory next to this benchmark, never from
an installed copy.  Without that directory the run exits with code 2
and prints no result.

The run is a closed loop in one process and one thread: a single client
runs one job at a time.  A job runs every task of the workload through
``geosym.cli.run_task`` with the sample seeds ``(s, s+101, s+202)``,
the seeds ``geosym run --seed s`` uses, and checks every answer against
the workload's oracle (see ``workloads.py``).  An exception from the
program counts as a failed check and the run goes on.

``--trace 0`` repeats jobs until ``--seconds`` have been measured (at
least one job) and reports the end-to-end metrics:

- ``solve_s``: median over jobs of the wall seconds from a job's first
  task call to its verified answer, scaled to the reference speed with
  the calibration samples taken during the job (``speed.py``);
- ``setup_s``: median, over ``SETUP_SAMPLES`` fresh interpreters (this
  one included), of importing ``geosym`` and building the model, each
  scaled the same way;
- ``peak_rss_mb``: peak resident set of this process.

The scaling takes the shared host's drifting speed out of the times;
the unscaled wall seconds are printed too.

``--trace 1`` runs one job with per-layer spans (``tracing.py``) and
reports the per-layer metrics instead, with ``trace.solve_s`` the job's
seconds scaled like ``solve_s``; the spans are written to
``perfbench/out/trace-<workload>.jsonl.gz``.

Determinism checks: each task's report is hashed as ``run_task``
returns it (JSON with sorted keys).  Repeated jobs of a run must give
the same hashes, and so must every run at the same seed of the same
program sources; traced runs at the same seed must also give the same
per-layer call counts.  Earlier runs' hashes and counts are kept in
``perfbench/out/determinism.json``, keyed by a digest of the sources.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
from tracing import JOB, LAYERS, Tracer
from workloads import WORKLOADS, check

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120


def setup(workload):
    """Import geosym and build the workload's model; returns
    (cli module, model)."""
    from geosym import cli, modelfile
    return cli, workload.build(modelfile, ROOT)


def timed_setup(workload):
    """``setup`` and its seconds at the reference speed."""
    with speed.Sampler() as sampler:
        cli, model = setup(workload)
    return cli, model, sampler.scaled()


def setup_in_fresh_interpreter(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--setup-probe"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def report_hash(report: dict) -> str:
    blob = json.dumps(report, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def run_job(cli, model, workload, seeds):
    """Run every task once; returns (reports by task, checks).  A task
    that raises fails all of its oracle checks."""
    reports, checks = {}, []
    for task in workload.tasks:
        try:
            report, _ = cli.run_task(model, model.tasks[task], seeds)
        except Exception:  # the program failed; record it and go on
            traceback.print_exc(file=sys.stderr)
            checks += [(f"{task}.{key}", False) for key in workload.oracle[task]]
            continue
        reports[task] = report
        checks += check(workload, task, report)
    return reports, checks


def source_digest() -> str:
    """Digest of the program's sources, so stored hashes and counts are
    compared only against runs of the same code."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "geosym")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith((".py", ".model")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(key: str, kind: str, value: dict):
    """Checks that ``value`` equals what earlier runs stored under
    (key, kind) entry by entry; stores it when absent."""
    path = os.path.join(OUT_DIR, "determinism.json")
    try:
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    except FileNotFoundError:
        store = {}
    entry = store.setdefault(key, {})
    earlier = entry.get(kind)
    if earlier is None:
        entry[kind] = value
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
        return []
    return [(f"same {kind} as earlier runs: {k}", earlier.get(k) == v)
            for k, v in value.items()]


def layer_metrics(tracer, reports, solve_s):
    metrics = {}
    for layer in LAYERS:
        incl, self_s, calls = tracer.layer_totals(layer)
        metrics[f"{layer}_s"] = (incl, "s")
        metrics[f"{layer}_self_s"] = (self_s, "s")
        metrics[f"{layer}_calls"] = (calls, "count")
    eliminations = tracer.layer_totals("prolong.eliminate")[2]
    metrics["prolong.kept_ratio"] = (
        tracer.pivots / eliminations if eliminations else 0.0, "ratio")
    disagree = sum(1 for r in reports.values()
                   if r["data"].get("point_independent") is False)
    metrics["prolong.point_disagree"] = (disagree, "count")
    metrics["trace.solve_s"] = (solve_s, "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time setup and print its scaled seconds")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "geosym", "__init__.py")):
        print(f"error: geosym sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        print(repr(timed_setup(workload)[2]))
        return 0

    tracer = None
    if args.trace:
        # Wrap before the model is built, so that the build is traced too.
        tracer = Tracer()
        tracer.install()
        cli, model = setup(workload)
    else:
        cli, model, setup_s = timed_setup(workload)

    seeds = (args.seed, args.seed + 101, args.seed + 202)
    checks = []
    job_seconds = []  # wall seconds
    job_scaled = []   # seconds at the reference speed
    first_hashes = None
    start = time.perf_counter()
    while True:
        with speed.Sampler() as sampler, \
                tracer.span(JOB) if tracer else contextlib.nullcontext():
            reports, job_checks = run_job(cli, model, workload, seeds)
        job_seconds.append(sampler.wall_s)
        job_scaled.append(sampler.scaled())
        checks += job_checks
        hashes = {task: report_hash(r) for task, r in reports.items()}
        if first_hashes is None:
            first_hashes = hashes
        else:
            checks += [(f"repeat job: same {task} report", first_hashes.get(task) == h)
                       for task, h in hashes.items()]
        if tracer or time.perf_counter() - start >= args.seconds:
            break

    os.makedirs(OUT_DIR, exist_ok=True)
    key = f"{source_digest()}/{args.workload}/{args.seed}"
    checks += compare_with_earlier_runs(key, "reports", first_hashes)

    if tracer:
        metrics = layer_metrics(tracer, reports, job_scaled[0])
        calls = {name: v for name, (v, unit) in metrics.items()
                 if name.endswith("_calls")}
        checks += compare_with_earlier_runs(key, "calls", calls)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl.gz"))
    else:
        setups = [setup_s] + [setup_in_fresh_interpreter(args.workload)
                              for _ in range(SETUP_SAMPLES - 1)]
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "solve_s": (statistics.median(job_scaled), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak, "MB"),
        }

    failed = [label for label, ok in checks if not ok]
    for label in failed:
        print(f"FAILED check: {label}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"failed_frac {len(failed)}/{len(checks)}  job wall seconds "
          + " ".join(f"{t:.3f}" for t in job_seconds))
    if job_scaled:
        print("  job seconds at the reference speed "
              + " ".join(f"{t:.3f}" for t in job_scaled))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
