"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces module and class attributes of ``geosym``
with wrappers that open a span around each call; the program's source
is never edited.  Every span has a layer name, a parent span, a start
and an end, read from ``speed.work_clock``, which leaves out the speed
samples taken meanwhile.  Spans are kept in flat arrays while the job runs and are
written out when the benchmark ends.

A layer's inclusive time counts only its outermost spans, so a layer
that calls itself (directly or through another layer) is not counted
twice; its self time is each span's duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from speed import work_clock

# Layer name -> attributes wrapped for it, as "module:attribute" or
# "module:Class.attribute".  Callers inside geosym look these names up
# at call time (module globals, ``P.name``-style module attributes, or
# class attributes), so replacing the attribute catches every call.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "cli.run_task": ("cli:run_task",),
    "modelfile.load": ("modelfile:load_model", "modelfile:parse_model"),
    "symsys.system": ("symsys:invariance_system",
                      "symsys:quaternionic_symmetry_system",
                      "symsys:cprojective_symmetry_system"),
    "symsys.equations": ("symsys:lie_derivative_jet",
                         "symsys:lie_derivative_connection_jet",
                         "prolong:LinearPDESystem.from_coefficient_maps"),
    "geometry.asd_span": ("geometry:asd_span",),
    "geometry.levi_civita": ("geometry:levi_civita",),
    "geometry.curvature": ("geometry:curvature",),
    "geometry.ricci": ("geometry:ricci",),
    "prolong.solution_bound": ("prolong:solution_bound",),
    "prolong.evaluate": ("prolong:Equation.evaluate_sparse",),
    "prolong.eliminate": ("prolong:_GradedElimination.add",),
    "prolong.derive": ("prolong:_total_derivative",),
    "prolong.clear": ("prolong:_clear_denominators",),
    "prolong.verify": ("prolong:verify_solution",),
    "exprfield.reduce": ("exprfield:Chart._reduce_poly",),
    "exprfield.differentiate": ("exprfield:Expr.differentiate",),
    "exprfield.is_zero": ("exprfield:Expr.is_zero",),
    "liealg.closure": ("liealg:closure_from_fields",),
    "linalg.nullspace": ("_linalg:nullspace",),
}

# The benchmark's own span around one job (all tasks of a workload).
JOB = "bench.job"


class Tracer:
    """Span recorder.  One instance per traced run; not thread-safe (the
    benchmark is single-threaded)."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._child: List[float] = []
        self._depth: List[int] = []  # open spans per layer
        self.incl: List[float] = []
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self.pivots = 0  # eliminate calls that returned a pivot

    def layer_id(self, name: str) -> int:
        lid = self._ids.get(name)
        if lid is None:
            lid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
            self.calls.append(0)
        return lid

    def open(self, lid: int) -> int:
        idx = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self._depth[lid] += 1
        self.start.append(work_clock())
        return idx

    def close(self, idx: int, lid: int) -> None:
        t = work_clock()
        self.end[idx] = t
        self._stack.pop()
        dur = t - self.start[idx]
        self.self_s[lid] += dur - self._child.pop()
        self.calls[lid] += 1
        self._depth[lid] -= 1
        if not self._depth[lid]:
            self.incl[lid] += dur
        if self._child:
            self._child[-1] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        lid = self.layer_id(name)
        idx = self.open(lid)
        try:
            yield
        finally:
            self.close(idx, lid)

    def wrap(self, owner, attr: str, layer: str,
             on_result: Optional[Callable[[object], None]] = None) -> None:
        raw = vars(owner)[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        lid = self.layer_id(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx, lid)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, staticmethod(traced) if static else traced)

    def install(self) -> None:
        """Wrap every attribute named in LAYERS."""
        for layer, targets in LAYERS.items():
            for target in targets:
                mod_name, path = target.split(":")
                owner = importlib.import_module(f"geosym.{mod_name}")
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                hook = self._count_pivot if layer == "prolong.eliminate" else None
                self.wrap(owner, attr, layer, hook)

    def _count_pivot(self, result) -> None:
        if result is not None:
            self.pivots += 1

    def layer_totals(self, name: str) -> Tuple[float, float, int]:
        """(inclusive seconds, self seconds, calls) of one layer."""
        lid = self._ids[name]
        return self.incl[lid], self.self_s[lid], self.calls[lid]

    def write(self, path: str) -> None:
        """Write one JSON object per span, gzip-compressed, times in
        seconds relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.layer)):
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.layer[i]],
                    "parent": self.parent[i],
                    "start": round(self.start[i] - t0, 9),
                    "end": round(self.end[i] - t0, 9),
                }, separators=(",", ":")))
                fh.write("\n")

