"""Record one point of the benchmark trajectory: ``BENCH_<date>_<rev>.json``.

    python3 tools/bench_record.py [--root CHECKOUT] [--out-dir DIR]

Runs ``perfbench/run.py`` of the checkout at ``--root`` (default: the
repository holding this script) on the workloads ``eh-bound``,
``eh-certify`` and ``flat8-quaternionic`` (which ``BENCHMARK.json`` does
not list) at seeds 101 and 102, untraced and then traced, one run
at a time, each in a fresh interpreter, with the checkout's own
``BENCHMARK.json`` run length.  It writes the machine, the checkout's
git revision (and whether its tracked files differ from it) and each
run's result line to ``BENCH_<date>_<rev>.json`` in ``--out-dir``
(default: the repository holding this script).  The revision is part
of the name, with ``-modified`` appended when tracked files differ from
it, so a commit and uncommitted changes on top of it, measured on the
same day, get a file each.  A checkout that is not the top of a git
work tree (a ``git archive`` copy, say) has the revision ``unknown``
and no changed files.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from typing import List, Tuple

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(HERE, "perfbench"))
from reference import environment  # noqa: E402

WORKLOADS = ("eh-bound", "eh-certify", "flat8-quaternionic")
SEEDS = (101, 102)
RUN_TIMEOUT_S = 900


def git(root: str, *args: str) -> str:
    return subprocess.run(["git", "-C", root, *args], capture_output=True,
                          text=True, check=True).stdout.rstrip()


def revision(root: str) -> Tuple[str, List[str]]:
    """(the revision of ``root``'s HEAD, its tracked files that differ
    from it), or ("unknown", []) when ``root`` is not the top of a git
    work tree or git cannot run."""
    try:
        top = git(root, "rev-parse", "--show-toplevel")
        if os.path.realpath(top) != os.path.realpath(root):
            return "unknown", []
        head = git(root, "rev-parse", "HEAD")
        changed = git(root, "status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown", []
    return head, [line[3:] for line in changed.splitlines()]


class UsageError(Exception):
    """``perfbench/run.py`` refused its arguments (exit code 2), such as an
    unknown workload; the message is the last line of its error output."""


def run(root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of ``perfbench/run.py``; its last output line, parsed.
    Raises :class:`UsageError` when the run exits with code 2."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode == 2:
        raise UsageError(proc.stderr.strip().splitlines()[-1])
    proc.check_returncode()
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=HERE,
                        help="checkout whose benchmark and sources are run")
    parser.add_argument("--out-dir", default=HERE)
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    head, changed = revision(root)
    doc = {
        "date": datetime.date.today().isoformat(),
        "revision": head,
        "changed_files": changed,
        "run_seconds": seconds,
        "runs": [],
    }
    for trace in (0, 1):
        for workload in WORKLOADS:
            for seed in SEEDS:
                try:
                    result = run(root, workload, seed, seconds, trace)
                except UsageError as ex:
                    parser.error(str(ex))
                doc["runs"].append({"workload": workload, "seed": seed,
                                    "trace": trace, **result})
                solve = result["metrics"].get(
                    "trace.solve_s" if trace else "solve_s", {}).get("value")
                print(f"{workload} seed {seed} trace {trace}: "
                      f"correct {result['correct']}, solve_s {solve:.2f}",
                      flush=True)
    # after the runs: the probe imports sympy, and each forked run would
    # inherit the recorder's larger resident size as its peak RSS
    doc["environment"] = environment()
    suffix = "-modified" if changed else ""
    path = os.path.join(args.out_dir,
                        f"BENCH_{doc['date']}_{head[:7]}{suffix}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
