"""The benchmark's workloads: model, tasks and oracle for each.

Each workload loads most of its work onto some layers and leaves others
nearly idle, so that a change to one layer has a workload that uses it
and one that bypasses it:

- ``eh-bound``: the Eguchi-Hanson quaternionic symmetry bound.  Trig
  relations, large rational coefficients, total derivatives, denominator
  clearing and Fraction elimination all weigh.
- ``flat8-quaternionic``: the flat quaternionic structure on R^8.  Its
  177 equations have constant coefficients, so point evaluation
  dominates and kernel reduction, gcd and elimination are nearly idle.
  It is run by hand; ``BENCHMARK.json`` leaves it out to save time
  (see README.md).
- ``eh-certify``: Eguchi-Hanson certificates (Ricci-flatness, Killing
  and quaternionic field checks, closure).  No prolongation; the work is
  ``Expr`` arithmetic, ``is_zero`` with its cross-check, curvature and
  closure.

Oracles are closed-form or published values that do not come from the
model files' own ``expect_*`` keys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

EH_TABLES = [[7, 4], [4, 7, 4], [0, 4, 4, 4], [0, 0, 0, 1, 3]]
EH_FIELDS = ("v1", "v2", "v3", "v4")

# The standard hypercomplex triple on one R^4 block, as
# (value index, argument index, entry): I, J and K = IJ.
_BLOCK_TRIPLE = {
    "I": ((1, 0, 1), (0, 1, -1), (3, 2, 1), (2, 3, -1)),
    "J": ((2, 0, 1), (0, 2, -1), (1, 3, 1), (3, 1, -1)),
    "K": ((3, 0, 1), (0, 3, -1), (2, 1, 1), (1, 2, -1)),
}


def flat_quaternionic_model(n: int) -> str:
    """Model text of the flat quaternionic structure on R^(4n): the
    Euclidean metric and the block-diagonal standard triple, with a frame
    check and a symmetry-bound task."""
    dim = 4 * n
    lines = ["[chart]",
             "coordinates = " + ", ".join(f"x{i}" for i in range(dim)),
             "", "[metric g]"]
    lines += [f"g[x{i},x{i}] = 1" for i in range(dim)]
    for name, entries in _BLOCK_TRIPLE.items():
        lines += ["", f"[endomorphism {name}]"]
        for b in range(n):
            lines += [f"{name}[x{a + 4 * b},x{c + 4 * b}] = {v}"
                      for a, c, v in entries]
    lines += ["", "[frame F]", "members = I, J, K",
              "", "[task structure]", "kind = check-structure",
              "metric = g", "frame = F",
              "", "[task bound]", "kind = symmetry-bound",
              "structure = quaternionic", "metric = g", "frame = F", ""]
    return "\n".join(lines)


@dataclass(frozen=True)
class Workload:
    name: str
    # (geosym.modelfile, repository root) -> Model
    build: Callable[[object, str], object]
    tasks: Tuple[str, ...]
    # task name -> {answer key: expected value}; answer keys index the
    # flattened report (see ``answer``).
    oracle: Dict[str, Dict[str, object]]


def _eh_model(modelfile, root: str):
    return modelfile.load_model(
        os.path.join(root, "src", "geosym", "models", "eguchi_hanson.model"))


_FLAT8_N = 2


def _flat8_model(modelfile, root: str):
    return modelfile.parse_model(flat_quaternionic_model(_FLAT8_N),
                                 "flat8-quaternionic")


_FIELDS_OK = {f"fields.{v}": True for v in EH_FIELDS}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "eh-bound", _eh_model, ("bound",),
        {"bound": {"outcome": "pass", "bound": 4, "conclusive": True,
                   "tables": EH_TABLES}}),
    Workload(
        "flat8-quaternionic", _flat8_model, ("structure", "bound"),
        {"structure": {"outcome": "pass", "metric_nondegenerate": True,
                       "hypercomplex": True},
         # dim sl(n+1, H) = 4(n+1)^2 - 1
         "bound": {"outcome": "pass", "bound": 4 * (_FLAT8_N + 1) ** 2 - 1,
                   "conclusive": True, "final_table": [0, 0, 8, 19, 8]}}),
    Workload(
        "eh-certify", _eh_model,
        ("structure", "killing-fields", "quaternionic-fields", "algebra"),
        {"structure": {"outcome": "pass", "metric_nondegenerate": True,
                       "ricci_flat": True},
         "killing-fields": {"outcome": "pass", **_FIELDS_OK},
         "quaternionic-fields": {"outcome": "pass", **_FIELDS_OK},
         # u(2): centre spanned by v1, derived algebra su(2)
         "algebra": {"outcome": "pass", "dimension": 4,
                     "center_dimension": 1, "derived_dimension": 3}}),
)}


def answer(report: dict) -> Dict[str, object]:
    """Flatten a ``run_task`` report into the keys the oracles use:
    ``outcome``, every data key, ``fields.<name>`` for field results and
    ``final_table`` for the last symbol table."""
    data = report.get("data", {})
    out: Dict[str, object] = {"outcome": report.get("outcome")}
    for key, value in data.items():
        if isinstance(value, dict):
            out.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            out[key] = value
    if data.get("tables"):
        out["final_table"] = data["tables"][-1]
    return out


def check(workload: Workload, task: str, report: dict) -> List[Tuple[str, bool]]:
    """One (label, passed) pair per oracle entry of the task."""
    got = answer(report)
    return [(f"{task}.{key}", got.get(key) == want)
            for key, want in workload.oracle[task].items()]
