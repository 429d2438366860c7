"""Compare the JSON reports of two checkouts on the bundled models.

    python3 tools/report_diff.py --parent DIR --change DIR --seeds 1-20,101,102

For each model bundled in both checkouts (``src/geosym/models``) and
each seed (a list of seeds ``A`` and ranges ``A-B``, such as
``1-20,101,102``) it runs ``python -m geosym run <model> --seed s
--json <file>`` in both checkouts, one run at a time, each on its own
sources and its own copy of the model.  It also compares the flat
quaternionic model of R^8, a dimension-8 system that no model file
bundles: its text is generated by ``flat_quaternionic_model(2)`` of the
parent's ``perfbench/workloads.py``, and both checkouts run that one
file.  It prints every pair of reports
that differ in a byte outside the ``model`` line (which holds the model
file's path) and every pair of exit codes that differ; for reports it
also names the dotted JSON paths whose values differ, such as
``schema_version`` or ``tasks.1.data.primes`` (objects, and lists of
objects, are compared entry by entry; any other value as a whole).
Exit code 1 on any difference, 0 when there is none.  The generated model and the
reports are written to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

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


def report(root: str, model: str, seed: int,
           path: str) -> Tuple[int, List[bytes], Optional[dict]]:
    """Exit code, report lines with the ``model`` line left out, and the
    parsed report without its ``model`` key (None when there is no
    valid report) of one ``geosym run`` of the checkout at ``root`` on
    the model file at ``model``."""
    proc = subprocess.run(
        [sys.executable, "-m", "geosym", "run", model,
         "--seed", str(seed), "--json", path],
        cwd=root, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        capture_output=True, timeout=RUN_TIMEOUT_S)
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except FileNotFoundError:
        text = b""
    try:
        doc = json.loads(text)
        doc.pop("model", None)
    except (ValueError, AttributeError):  # no report, or not a JSON object
        doc = None
    lines = text.splitlines(keepends=True)
    return (proc.returncode, [line for line in lines if not line.startswith(MODEL_LINE)],
            doc)


_MISSING = "(missing)"  # the value of a key that one report lacks


def differing_paths(parent, change, path: str = "") -> List[str]:
    """The dotted paths at which two parsed JSON values differ: objects
    are compared key by key and lists of objects of equal length item
    by item (the path takes the index); any other value is one leaf."""
    if isinstance(parent, dict) and isinstance(change, dict):
        pairs = [(str(k), parent.get(k, _MISSING), change.get(k, _MISSING))
                 for k in dict.fromkeys([*parent, *change])]
    elif (isinstance(parent, list) and isinstance(change, list)
          and len(parent) == len(change)
          and all(isinstance(x, dict) for x in parent + change)):
        pairs = [(str(i), p, c) for i, (p, c) in enumerate(zip(parent, change))]
    else:
        return [] if json.dumps(parent) == json.dumps(change) else [path]
    return [found for key, p, c in pairs
            for found in differing_paths(p, c, f"{path}.{key}" if path else key)]


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
                (p_code, p_lines, p_doc), (c_code, c_lines, c_doc) = (
                    report(root, file, seed, os.path.join(tmp, f"{side}.json"))
                    for side, root, file in zip(("parent", "change"), (parent, change), files))
                where = f"{model} seed {seed}"
                if p_code != c_code:
                    found.append(f"{where}: exit code {p_code} -> {c_code}")
                if p_lines != c_lines:
                    diff = difflib.diff_bytes(difflib.unified_diff, p_lines, c_lines,
                                              b"parent", b"change", n=0)
                    paths = (differing_paths(p_doc, c_doc) if None not in (p_doc, c_doc)
                             else ["(no valid report on one side)"])
                    found.append(f"{where}: reports differ\n  at {', '.join(paths)}\n"
                                 + b"".join(diff).decode(errors="replace"))
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seeds A and ranges A-B, comma-separated")
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
