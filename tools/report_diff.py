"""Compare the JSON reports of two checkouts on the bundled models.

    python3 tools/report_diff.py --parent DIR --change DIR --seeds A-B

For each model bundled in both checkouts (``src/geosym/models``) and
each seed (``A-B`` is a range, ``A,B,...`` a list) it runs
``python -m geosym run <model> --seed s --json <file>`` in both
checkouts, one run at a time, each on its own sources and its own copy
of the model.  It also compares the flat quaternionic model of R^8, a
dimension-8 system that no model file bundles: its text is generated by
``flat_quaternionic_model(2)`` of the parent's ``perfbench/workloads.py``,
and both checkouts run that one file.  It prints every pair of reports
that differ in a byte outside the ``model`` line (which holds the model
file's path) and every pair of exit codes that differ.  Exit code 1 on
any difference, 0 when there is none.  The generated model and the
reports are written to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from typing import List, Sequence, Tuple

from bench_pairs import parse_seeds

RUN_TIMEOUT_S = 900
MODEL_LINE = b'  "model": '  # a top-level key of the report, indented by json.dump
FLAT8 = "flat8-quaternionic"  # the generated model, named as its benchmark workload


def bundled_models(root: str) -> List[str]:
    folder = os.path.join(root, "src", "geosym", "models")
    return sorted(name[:-len(".model")] for name in os.listdir(folder)
                  if name.endswith(".model"))


def compared_models(parent: str, change: str) -> List[str]:
    """The models bundled in both checkouts, then the generated one."""
    return sorted(set(bundled_models(parent)) & set(bundled_models(change))) + [FLAT8]


def write_flat8(parent: str, folder: str) -> str:
    """Write the text of ``flat_quaternionic_model(2)`` of the parent's
    ``perfbench/workloads.py`` into ``folder``; return the file's path."""
    text = subprocess.run(
        [sys.executable, "-c",
         "import sys, workloads; sys.stdout.write(workloads.flat_quaternionic_model(2))"],
        cwd=os.path.join(parent, "perfbench"), capture_output=True, check=True,
        timeout=RUN_TIMEOUT_S).stdout
    path = os.path.join(folder, f"{FLAT8}.model")
    with open(path, "wb") as fh:
        fh.write(text)
    return path


def report(root: str, model: str, seed: int, path: str) -> Tuple[int, List[bytes]]:
    """Exit code and report lines, the ``model`` line left out, of one
    ``geosym run`` of the checkout at ``root`` on the model file at
    ``model``."""
    proc = subprocess.run(
        [sys.executable, "-m", "geosym", "run", model,
         "--seed", str(seed), "--json", path],
        cwd=root, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        capture_output=True, timeout=RUN_TIMEOUT_S)
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
    except FileNotFoundError:
        lines = []
    return proc.returncode, [line for line in lines if not line.startswith(MODEL_LINE)]


def differences(parent: str, change: str, models: Sequence[str],
                seeds: Sequence[int]) -> List[str]:
    """One message per model and seed whose reports or exit codes differ;
    the model named ``FLAT8`` is generated (:func:`write_flat8`)."""
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        flat8 = write_flat8(parent, tmp) if FLAT8 in models else None
        for model in models:
            files = [flat8 if model == FLAT8 else
                     os.path.join(root, "src", "geosym", "models", f"{model}.model")
                     for root in (parent, change)]
            for seed in seeds:
                (p_code, p_lines), (c_code, c_lines) = (
                    report(root, file, seed, os.path.join(tmp, f"{side}.json"))
                    for side, root, file in zip(("parent", "change"), (parent, change), files))
                where = f"{model} seed {seed}"
                if p_code != c_code:
                    found.append(f"{where}: exit code {p_code} -> {c_code}")
                if p_lines != c_lines:
                    diff = difflib.diff_bytes(difflib.unified_diff, p_lines, c_lines,
                                              b"parent", b"change", n=0)
                    found.append(f"{where}: reports differ\n"
                                 + b"".join(diff).decode(errors="replace"))
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B or A,B,...")
    args = parser.parse_args()
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    models = compared_models(parent, change)
    print(f"models: {', '.join(models)}; seeds: {len(args.seeds)}", flush=True)
    found = differences(parent, change, models, args.seeds)
    for message in found:
        print(message)
    print(f"{len(models) * len(args.seeds)} report pairs, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
