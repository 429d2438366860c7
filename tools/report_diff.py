"""Compare the JSON reports of two checkouts on the bundled models.

    python3 tools/report_diff.py --parent DIR --change DIR --seeds A-B

For each model bundled in both checkouts (``src/geosym/models``) and
each seed (``A-B`` is a range, ``A,B,...`` a list) it runs
``python -m geosym run <model> --seed s --json <file>`` in both
checkouts, one run at a time, each on its own sources and its own copy
of the model.  It prints every pair of reports that differ in a byte
outside the ``model`` line (which holds the model file's path) and
every pair of exit codes that differ.  Exit code 1 on any difference,
0 when there is none.  The reports are written to a temporary
directory that is removed afterwards.
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


def bundled_models(root: str) -> List[str]:
    folder = os.path.join(root, "src", "geosym", "models")
    return sorted(name[:-len(".model")] for name in os.listdir(folder)
                  if name.endswith(".model"))


def report(root: str, model: str, seed: int, path: str) -> Tuple[int, List[bytes]]:
    """Exit code and report lines, the ``model`` line left out, of one
    ``geosym run`` of the checkout at ``root``."""
    proc = subprocess.run(
        [sys.executable, "-m", "geosym", "run",
         os.path.join(root, "src", "geosym", "models", f"{model}.model"),
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
    """One message per model and seed whose reports or exit codes differ."""
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for model in models:
            for seed in seeds:
                (p_code, p_lines), (c_code, c_lines) = (
                    report(root, model, seed, os.path.join(tmp, f"{side}.json"))
                    for side, root in (("parent", parent), ("change", change)))
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
    models = sorted(set(bundled_models(parent)) & set(bundled_models(change)))
    print(f"models: {', '.join(models)}; seeds: {len(args.seeds)}", flush=True)
    found = differences(parent, change, models, args.seeds)
    for message in found:
        print(message)
    print(f"{len(models) * len(args.seeds)} report pairs, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
