"""Command-line front end: run model-file tasks and emit reports.

``geosym run <file> --task <name> [--seed N] [--max-stage K] [--json out]``
executes one task (or all tasks when ``--task`` is omitted) and prints a
human-readable report; ``--json`` additionally writes a machine-readable
report.  ``geosym validate <file>`` parses and checks a model file
without executing anything.

Exit codes: 0 all tasks pass, 1 mathematical failure (an expectation
declared in the file does not hold, a field fails verification, or a
bound search stays inconclusive), 2 usage or parse error.

JSON reports are versioned (``schema_version``) and byte-deterministic
for a fixed (model, task, seed, max_stage): timings appear only in the
text output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import _linalg
from . import geometry as G
from . import liealg as L
from . import prolong as P
from . import symsys as S
from .exprfield import ExprError
from .modelfile import Model, ModelError, Task, load_model

SCHEMA_VERSION = 4

__all__ = ["main", "run_task", "SCHEMA_VERSION"]


class TaskFailure(ExprError):
    """A mathematical expectation declared in the model file failed."""


def _jsonable(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _expect(checks: List[str], label: str, got, want) -> None:
    if want is not None and got != want:
        checks.append(f"{label}: expected {want}, got {got}")


def _symmetry_system(model: Model, params: Dict[str, object]):
    # the structure and the parameters it needs are checked at parse time;
    # ``commute = v`` joins L_X v = 0 (a join concatenates the equations)
    structure = params["structure"]
    if structure == "killing":
        system = S.invariance_system(model.metrics[params["metric"]])
    elif structure == "quaternionic":
        g = model.metrics[params["metric"]]
        if params["frame"] is not None:
            frame = [model.endomorphisms[m]
                     for m in model.frames[params["frame"]]]
        else:
            frame = G.asd_span(g, orientation=params["orientation"])
        system = S.quaternionic_symmetry_system(frame, g)
    else:
        J = model.endomorphisms[params["complex_structure"]]
        D = model.connections[params["connection"]]
        system = S.cprojective_symmetry_system(J, D)
    if params.get("commute") is None:
        return system
    commuting = S.invariance_system(model.vectors[params["commute"]])
    return P.LinearPDESystem(system.chart, system.n_unknowns,
                             system.equations + commuting.equations)


def _run_symmetry_bound(model: Model, task: Task, seeds, max_stage):
    system = _symmetry_system(model, task.params)
    if max_stage is None:
        max_stage = task.params["max_stage"]
    res = P.solution_bound(system, max_stage=max_stage, seeds=seeds)
    data = {
        "bound": res.bound,
        "conclusive": res.conclusive,
        "tables": [list(t.dims) for t in res.tables],
        "point_independent": res.point_independent,
        "seeds": list(res.points),
        "primes": list(res.primes),
        "equations": len(system),
    }
    checks: List[str] = []
    if not res.conclusive and len(res.tables) < max_stage:
        checks.append("bound search inconclusive: no independent equation "
                      f"left after stage {len(res.tables)}")
    elif not res.conclusive:
        checks.append("bound search inconclusive at max_stage "
                      f"{max_stage}")
    _expect(checks, "bound", res.bound, task.params["expect_bound"])
    return data, checks


def _run_verify_fields(model: Model, task: Task, seeds, max_stage):
    system = _symmetry_system(model, task.params)
    names = task.params["fields"]
    n = model.chart.dim
    results = {}
    checks: List[str] = []
    for name in names:
        v = model.vectors[name]
        ok, _ = P.verify_solution(system, [v.comp(i) for i in range(n)])
        results[name] = ok
        if not ok:
            checks.append(f"field {name} does not satisfy the system")
    return {"fields": results, "equations": len(system)}, checks


def _closure(model: Model, names: Sequence[str]) -> L.LieAlgebra:
    fields = [model.vectors[name] for name in names]
    return L.closure_from_fields(fields)


def _run_closure(model: Model, task: Task, seeds, max_stage):
    names = task.params["fields"]
    alg = _closure(model, names)
    center = alg.center()
    derived = alg.derived_algebra()
    data = {
        "dimension": alg.dimension,
        "center_dimension": len(center),
        "center_basis": [[x for x in v] for v in center],
        "derived_dimension": len(derived),
        "labels": list(names),
    }
    checks: List[str] = []
    _expect(checks, "dimension", alg.dimension,
            task.params["expect_dimension"])
    _expect(checks, "center dimension", len(center),
            task.params["expect_center_dimension"])
    _expect(checks, "derived-algebra dimension", len(derived),
            task.params["expect_derived_dimension"])
    return data, checks


def _run_invariant_connections(model: Model, task: Task, seeds, max_stage):
    isotropy = task.params["isotropy"]
    complement = task.params["complement"]
    names = complement + isotropy
    point = dict(zip(model.chart.coordinates, task.params["point"]))
    checks: List[str] = []
    for name in isotropy:
        v = model.vectors[name]
        vals = [v.comp(i).evaluate(point) for i in range(model.chart.dim)]
        if any(val != 0 for val in vals):
            raise TaskFailure(
                f"isotropy field {name} does not vanish at the base point")
    alg = _closure(model, names)
    d = alg.dimension
    unit = lambda i: [Fraction(int(i == k)) for k in range(d)]
    rep = L.reductive_isotropy(
        alg,
        [unit(len(complement) + i) for i in range(len(isotropy))],
        [unit(i) for i in range(len(complement))])
    r, s = task.params["tensor_type"]
    basis = L.equivariant_tensors(rep, (r, s))
    data = {
        "algebra_dimension": d,
        "isotropy_dimension": len(isotropy),
        "tensor_type": [r, s],
        "equivariant_dimension": len(basis),
    }
    _expect(checks, "equivariant dimension", len(basis),
            task.params["expect_dimension"])
    return data, checks


def _run_curvature_type(model: Model, task: Task, seeds, max_stage):
    D = model.connections[task.params["connection"]]
    J = model.endomorphisms[task.params["complex_structure"]]
    split = G.curvature_type_split(G.curvature(D), J)
    zero = {"20": split.r20.is_zero(), "11": split.r11.is_zero(),
            "02": split.r02.is_zero()}
    checks: List[str] = []
    want = task.params["expect_vanishing"]
    if want is not None:
        for part in want:  # a subset of 20, 11, 02 (parse-time check)
            if not zero[part]:
                checks.append(f"curvature part ({part[0]},{part[1]}) "
                              "does not vanish")
    return {"vanishing_parts": sorted(p for p, z in zero.items() if z)}, checks


def _run_vanishing_locus(model: Model, task: Task, seeds, max_stage):
    X = model.vectors[task.params["vector"]]
    loc = L.vanishing_locus(X)
    data = {
        "empty": loc.is_empty,
        "dimension": loc.dimension,
        "zero_coordinates": list(loc.zero_coordinates),
        "description": loc.describe(),
    }
    checks: List[str] = []
    _expect(checks, "locus dimension", loc.dimension,
            task.params["expect_dimension"])
    _expect(checks, "zero coordinates", list(loc.zero_coordinates),
            task.params["expect_zero_coordinates"])
    return data, checks


def _run_obata(model: Model, task: Task, seeds, max_stage):
    I, J, K = (model.endomorphisms[m]
               for m in model.frames[task.params["frame"]])
    D = S.obata_solve(I, J, K)
    flat = G.curvature(D).is_zero()
    data = {"nonzero_christoffels": len(D.gamma), "flat": flat}
    checks: List[str] = []
    _expect(checks, "flatness", flat, task.params["expect_flat"])
    return data, checks


def _run_check_structure(model: Model, task: Task, seeds, max_stage):
    p = task.params
    data: Dict[str, object] = {}
    checks: List[str] = []
    if p["metric"] is not None:
        g = model.metrics[p["metric"]]
        # each raises GeometryError on a degenerate metric
        if p["expect_ricci_flat"] is None:
            G.metric_inverse(g)
            data["metric_nondegenerate"] = True
        else:
            D = G.levi_civita(g)
            data["metric_nondegenerate"] = True
            data["ricci_flat"] = G.ricci(D).is_zero()
            _expect(checks, "Ricci-flatness of the Levi-Civita connection",
                    data["ricci_flat"], p["expect_ricci_flat"])
    if p["frame"] is not None:
        frame = [model.endomorphisms[m] for m in model.frames[p["frame"]]]
        rep = G.check_hypercomplex_frame(*frame)
        data["hypercomplex"] = rep.is_hypercomplex
        if not rep.is_hypercomplex:
            checks.append(f"frame is not hypercomplex: {rep}")
    if p["connection"] is not None:
        D = model.connections[p["connection"]]
        data["torsion_free"] = D.is_torsion_free()
        if not data["torsion_free"]:
            checks.append("connection has torsion")
        if p["complex_structure"] is not None:
            J = model.endomorphisms[p["complex_structure"]]
            data["parallel_complex_structure"] = \
                G.covariant_derivative(D, J).is_zero()
            data["integrable"] = G.nijenhuis(J).is_zero()
            if not data["parallel_complex_structure"]:
                checks.append("DJ != 0")
            if not data["integrable"]:
                checks.append("Nijenhuis tensor of J does not vanish")
    if p["blocks"] is not None:
        mats = [model.matrices[m] for m in p["blocks"]]
        n = len(mats[0])
        total = [[sum(Fraction(m[i][j]) for m in mats) for j in range(n)]
                 for i in range(n)]
        kernel = _linalg.nullspace(total, n)
        data["block_kernel_dimension"] = len(kernel)
        if len(mats) == 2:
            hits = L.block_parameter_search(mats[0], mats[1], len(kernel))
            data["parameter_hits"] = [h for h in hits]
        _expect(checks, "block kernel dimension", len(kernel),
                p["expect_block_kernel_dimension"])
    return data, checks


_RUNNERS = {
    "check-structure": _run_check_structure,
    "symmetry-bound": _run_symmetry_bound,
    "verify-fields": _run_verify_fields,
    "closure": _run_closure,
    "invariant-connections": _run_invariant_connections,
    "curvature-type": _run_curvature_type,
    "vanishing-locus": _run_vanishing_locus,
    "obata": _run_obata,
}


def run_task(model: Model, task: Task, seeds, max_stage=None):
    """Execute one task; returns (report dict, elapsed seconds)."""
    t0 = time.monotonic()
    try:
        data, checks = _RUNNERS[task.kind](model, task, seeds, max_stage)
        outcome = "pass" if not checks else "fail"
    except (TaskFailure, ExprError) as ex:
        data, checks, outcome = {}, [str(ex)], "fail"
    elapsed = time.monotonic() - t0
    report = {
        "name": task.name,
        "kind": task.kind,
        "outcome": outcome,
        "data": _jsonable(data),
        "failures": checks,
    }
    return report, elapsed


def _stage_cap(text: str) -> int:
    """argparse type of --max-stage: an integer of at least 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geosym",
        description="Symbolic symmetry workbench for quaternionic and "
                    "c-projective structures.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute tasks from a model file")
    run.add_argument("file")
    run.add_argument("--task", help="task name (default: all tasks)")
    run.add_argument("--seed", type=int, default=101,
                     help="base seed for generic-point sampling")
    run.add_argument("--max-stage", type=_stage_cap, default=None,
                     help="prolongation stage cap for bound searches")
    run.add_argument("--json", dest="json_path",
                     help="write a machine-readable report here")
    val = sub.add_parser("validate", help="parse and check a model file")
    val.add_argument("file")
    return parser


def _load(path: str) -> Optional[Model]:
    """The parsed model, or None after printing why it cannot be read."""
    try:
        return load_model(path)
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
    except ModelError as ex:
        print(f"{path}: {ex}", file=sys.stderr)
    return None


def _cmd_validate(path: str) -> int:
    model = _load(path)
    if model is None:
        return 2
    print(f"{path}: ok ({len(model.tasks)} task(s), "
          f"{len(model.object_names())} object(s))")
    for w in model.warnings:
        print(f"warning: {w}")
    return 0


def _cmd_run(args) -> int:
    model = _load(args.file)
    if model is None:
        return 2
    if args.task is not None:
        if args.task not in model.tasks:
            print(f"error: no task named {args.task!r}; available: "
                  + ", ".join(model.tasks) if model.tasks else
                  "error: the model file declares no tasks",
                  file=sys.stderr)
            return 2
        tasks = [model.tasks[args.task]]
    else:
        tasks = list(model.tasks.values())
        if not tasks:
            print("error: the model file declares no tasks", file=sys.stderr)
            return 2
    seeds = (args.seed, args.seed + 101, args.seed + 202)
    reports = []
    all_pass = True
    for task in tasks:
        report, elapsed = run_task(model, task, seeds, args.max_stage)
        reports.append(report)
        status = report["outcome"].upper()
        print(f"[{status}] {task.name} ({task.kind}) — {elapsed:.2f}s")
        for key, value in report["data"].items():
            print(f"    {key}: {value}")
        for msg in report["failures"]:
            print(f"    failure: {msg}")
        if report["outcome"] != "pass":
            all_pass = False
    for w in model.warnings:
        print(f"warning: {w}")
    if args.json_path:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "model": args.file,
            "seed": args.seed,
            "max_stage": args.max_stage,
            "tasks": reports,
            "warnings": list(model.warnings),
        }
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0 if all_pass else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    if args.command == "validate":
        return _cmd_validate(args.file)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
