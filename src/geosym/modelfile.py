"""Declarative model files: charts, geometric objects, and named tasks.

Plain-text format with bracketed section headers and ``key = value``
entries.  The first section must be ``[chart]``; every later section
declares one named object or task over that chart.  Parsing is
deterministic, unknown keys are rejected, and every error carries the
line number it came from.

Section kinds::

    [chart]                 coordinates = x, y / trig_pair = phi
    [metric g]              g[i,j] = expr       (symmetrized convention)
    [endomorphism J]        J[a,b] = expr       (value index first: J^a_b)
    [connection D]          D[k; i,j] = expr    (Gamma^k_{ij}, symmetrized)
    [vector v]              v[i] = expr
    [frame F]               members = I, J, K   (three endomorphism names)
    [matrix M]              row = 0, -1, 0, 0   (repeatable, exact rationals)
    [task name]             kind = symmetry-bound / further task parameters

Metric and Christoffel entries follow the symmetrized-product
convention: one entry per unordered index pair, mirrored automatically.
Giving both orders is tolerated when consistent (with a warning) and
rejected when conflicting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exprfield import Chart, Expr, ExprError, parse_expr, trig_names
from .geometry import Connection, TensorField

__all__ = ["ModelError", "Task", "Model", "parse_model", "load_model",
           "TASK_KINDS"]

TASK_KINDS = (
    "check-structure",
    "symmetry-bound",
    "verify-fields",
    "closure",
    "invariant-connections",
    "curvature-type",
    "vanishing-locus",
    "obata",
)

_TASK_PARAMS = {
    "check-structure": {
        "metric", "frame", "connection", "complex_structure", "blocks",
        "expect_ricci_flat", "expect_block_kernel_dimension",
    },
    "symmetry-bound": {
        "structure", "metric", "frame", "connection", "complex_structure",
        "orientation", "expect_bound", "max_stage",
    },
    "verify-fields": {
        "structure", "metric", "frame", "connection", "complex_structure",
        "orientation", "fields",
    },
    "closure": {
        "fields", "expect_dimension", "expect_center_dimension",
        "expect_derived_dimension",
    },
    "invariant-connections": {
        "fields", "isotropy", "complement", "point", "tensor_type",
        "expect_dimension",
    },
    "curvature-type": {
        "connection", "complex_structure", "expect_vanishing",
    },
    "vanishing-locus": {
        "vector", "expect_dimension", "expect_zero_coordinates",
    },
    "obata": {
        "frame", "expect_flat",
    },
}

# Parameters a task cannot run without; a symmetry structure adds its own.
_REQUIRED_PARAMS = {
    "symmetry-bound": ("structure",),
    "verify-fields": ("structure", "fields"),
    "closure": ("fields",),
    "invariant-connections": ("isotropy", "complement"),
    "curvature-type": ("connection", "complex_structure"),
    "vanishing-locus": ("vector",),
    "obata": ("frame",),
}
_STRUCTURES = {
    "killing": ("metric",),
    "quaternionic": ("metric",),
    "cprojective": ("connection", "complex_structure"),
}

# Task parameters whose values are interpreted when the task runs:
# (the form the value must take, a check that raises or returns False
# for a malformed value given the chart).
_COUNT = ("a non-negative integer", lambda v, ch: int(v) >= 0)
_FLAG = ("true or false", lambda v, ch: v.lower() in ("true", "false"))
_PARAM_FORMS = {
    "max_stage": ("an integer of at least 1", lambda v, ch: int(v) >= 1),
    "orientation": ("1 or -1", lambda v, ch: int(v) in (1, -1)),
    "point": ("one rational per coordinate",
              lambda v, ch: len([Fraction(p) for p in v.split(",")]) == ch.dim),
    "tensor_type": ("two non-negative integers r, s",
                    lambda v, ch: [int(p) >= 0 for p in v.split(",")] == [True, True]),
    "expect_bound": _COUNT,
    "expect_dimension": _COUNT,
    "expect_center_dimension": _COUNT,
    "expect_derived_dimension": _COUNT,
    "expect_block_kernel_dimension": _COUNT,
    "expect_ricci_flat": _FLAG,
    "expect_flat": _FLAG,
    "expect_vanishing": ("a subset of 20, 11, 02",
                         lambda v, ch: set(_name_list(v)) <= {"20", "11", "02"}),
    "expect_zero_coordinates": ("coordinates of the chart",
                                lambda v, ch: set(_name_list(v)) <= set(ch.coordinates)),
    "structure": ("one of " + ", ".join(_STRUCTURES),
                  lambda v, ch: v in _STRUCTURES),
}

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")


class ModelError(ExprError):
    """Parse or validation failure, carrying a line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class Task:
    name: str
    kind: str
    params: Dict[str, str]
    line: int


@dataclass
class Model:
    path: str
    chart: Chart
    metrics: Dict[str, TensorField] = field(default_factory=dict)
    endomorphisms: Dict[str, TensorField] = field(default_factory=dict)
    connections: Dict[str, Connection] = field(default_factory=dict)
    vectors: Dict[str, TensorField] = field(default_factory=dict)
    frames: Dict[str, List[str]] = field(default_factory=dict)
    matrices: Dict[str, List[List[Fraction]]] = field(default_factory=dict)
    tasks: Dict[str, Task] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)

    def object_names(self) -> List[str]:
        out: List[str] = []
        for d in (self.metrics, self.endomorphisms, self.connections,
                  self.vectors, self.frames, self.matrices):
            out.extend(d)
        return out


def _split_sections(text: str) -> List[Tuple[int, str, List[Tuple[int, str]]]]:
    """[(header line number, header body, [(line number, entry line)])]."""
    sections = []
    current = None
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ModelError("unterminated section header", num)
            current = (num, line[1:-1].strip(), [])
            sections.append(current)
        else:
            if current is None:
                raise ModelError("entry before any section header", num)
            current[2].append((num, line))
    return sections


def _entry(line: str, num: int) -> Tuple[str, str]:
    if "=" not in line:
        raise ModelError("expected 'key = value'", num)
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def _parse(chart: Chart, source: str, num: int) -> Expr:
    try:
        return parse_expr(chart, source)
    except ExprError as ex:
        raise ModelError(f"bad expression {source!r}: {ex}", num) from ex


def _coord_index(chart: Chart, name: str, num: int) -> int:
    try:
        return chart.coordinates.index(name)
    except ValueError:
        raise ModelError(f"{name!r} is not a coordinate of the chart", num)


def _parse_chart(entries) -> Chart:
    coords = None
    trig: List[Tuple[int, str]] = []
    for num, line in entries:
        key, value = _entry(line, num)
        if key == "coordinates":
            if coords is not None:
                raise ModelError("coordinates given twice", num)
            coords = [c.strip() for c in value.split(",") if c.strip()]
            if not coords:
                raise ModelError("empty coordinate list", num)
        elif key == "trig_pair":
            trig.append((num, value))
        else:
            raise ModelError(f"unknown chart key {key!r}", num)
    if coords is None:
        raise ModelError("chart section lacks a coordinates entry")
    for num, name in trig:
        if name not in coords:
            raise ModelError(
                f"trig_pair {name!r} is not a coordinate; the relation "
                f"sin({name})^2 + cos({name})^2 = 1 needs its coordinate",
                num)
        for generator in trig_names(name):
            if generator in coords:
                raise ModelError(f"duplicate variable name: {generator!r}", num)
    try:
        return Chart(coords, trig_pairs=[name for _, name in trig])
    except ExprError as ex:
        raise ModelError(str(ex)) from ex


def _component_key(name: str, key: str, num: int) -> List[str]:
    """Parse ``name[i,j,...]`` (';' treated like ',') into index names."""
    m = re.fullmatch(re.escape(name) + r"\[([^\]]*)\]", key)
    if m is None:
        raise ModelError(
            f"expected component key {name}[...], got {key!r}", num)
    parts = [p.strip() for p in re.split(r"[;,]", m.group(1))]
    if any(not p for p in parts):
        raise ModelError(f"empty index in {key!r}", num)
    return parts


def _parse_metric(model: Model, name: str, entries) -> TensorField:
    chart = model.chart
    comps: Dict[Tuple[int, int], Expr] = {}
    explicit = set()
    for num, line in entries:
        key, value = _entry(line, num)
        idx = _component_key(name, key, num)
        if len(idx) != 2:
            raise ModelError("metric components need two indices", num)
        i = _coord_index(chart, idx[0], num)
        j = _coord_index(chart, idx[1], num)
        e = _parse(chart, value, num)
        pair = (min(i, j), max(i, j))
        if pair in comps:
            if not (comps[pair] - e).is_zero():
                raise ModelError(
                    f"conflicting values for the symmetric pair "
                    f"{name}[{idx[0]},{idx[1]}]", num)
            if (i, j) not in explicit:
                model.warnings.append(
                    f"line {num}: both index orders of {name}[{idx[0]},"
                    f"{idx[1]}] given; metric entries follow the "
                    "symmetrized convention, one order suffices")
        comps[pair] = e
        explicit.add((i, j))
    full = {}
    for (i, j), e in comps.items():
        full[(i, j)] = e
        full[(j, i)] = e
    return TensorField(chart, ("d", "d"), full)


def _parse_endomorphism(model: Model, name: str, entries) -> TensorField:
    chart = model.chart
    comps = {}
    for num, line in entries:
        key, value = _entry(line, num)
        idx = _component_key(name, key, num)
        if len(idx) != 2:
            raise ModelError("endomorphism components need two indices", num)
        a = _coord_index(chart, idx[0], num)
        b = _coord_index(chart, idx[1], num)
        if (a, b) in comps:
            raise ModelError(f"duplicate component {key!r}", num)
        comps[(a, b)] = _parse(chart, value, num)
    return TensorField(chart, ("u", "d"), comps)


def _parse_connection(model: Model, name: str, entries) -> Connection:
    chart = model.chart
    gamma: Dict[Tuple[int, int, int], Expr] = {}
    for num, line in entries:
        key, value = _entry(line, num)
        idx = _component_key(name, key, num)
        if len(idx) != 3:
            raise ModelError(
                "Christoffel components need three indices k; i, j", num)
        k = _coord_index(chart, idx[0], num)
        i = _coord_index(chart, idx[1], num)
        j = _coord_index(chart, idx[2], num)
        e = _parse(chart, value, num)
        for pair in {(k, i, j), (k, j, i)}:
            if pair in gamma and not (gamma[pair] - e).is_zero():
                raise ModelError(
                    f"conflicting values for the symmetric pair {key!r}", num)
            gamma[pair] = e
    return Connection(chart, gamma)


def _parse_vector(model: Model, name: str, entries) -> TensorField:
    chart = model.chart
    comps = {}
    for num, line in entries:
        key, value = _entry(line, num)
        idx = _component_key(name, key, num)
        if len(idx) != 1:
            raise ModelError("vector components need one index", num)
        i = _coord_index(chart, idx[0], num)
        if (i,) in comps:
            raise ModelError(f"duplicate component {key!r}", num)
        comps[(i,)] = _parse(chart, value, num)
    return TensorField(chart, ("u",), comps)


def _parse_frame(entries, num0: int) -> List[str]:
    members = None
    for num, line in entries:
        key, value = _entry(line, num)
        if key != "members":
            raise ModelError(f"unknown frame key {key!r}", num)
        if members is not None:
            raise ModelError("members given twice", num)
        members = [m.strip() for m in value.split(",") if m.strip()]
        if len(members) != 3:
            raise ModelError("a frame needs exactly three members I, J, K", num)
    if not members:
        raise ModelError("frame section lacks a members entry", num0)
    return members


def _parse_matrix(entries, num0: int) -> List[List[Fraction]]:
    rows = []
    for num, line in entries:
        key, value = _entry(line, num)
        if key != "row":
            raise ModelError(f"unknown matrix key {key!r}", num)
        try:
            rows.append([Fraction(p.strip())
                         for p in value.split(",") if p.strip()])
        except (ValueError, ZeroDivisionError) as ex:
            raise ModelError(f"bad rational entry: {ex}", num) from ex
    if not rows:
        raise ModelError("matrix section has no rows", num0)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ModelError("matrix rows have unequal lengths", num0)
    return rows


def _parse_task(name: str, entries, num0: int, chart: Chart) -> Task:
    kind = None
    params: Dict[str, str] = {}
    lines: Dict[str, int] = {}
    for num, line in entries:
        key, value = _entry(line, num)
        if key == "kind":
            if kind is not None:
                raise ModelError("kind given twice", num)
            kind = value
            if kind not in TASK_KINDS:
                raise ModelError(
                    f"unknown task kind {kind!r}; expected one of "
                    + ", ".join(TASK_KINDS), num)
        else:
            if key in params:
                raise ModelError(f"duplicate parameter {key!r}", num)
            params[key] = value
            lines[key] = num
    if kind is None:
        raise ModelError(f"task {name!r} lacks a kind entry", num0)
    for key, value in params.items():
        if key not in _TASK_PARAMS[kind]:
            raise ModelError(
                f"parameter {key!r} is not valid for task kind {kind!r}",
                lines[key])
        if key in _PARAM_FORMS:
            want, valid = _PARAM_FORMS[key]
            try:
                ok = valid(value, chart)
            except (ValueError, ZeroDivisionError):
                ok = False
            if not ok:
                raise ModelError(
                    f"parameter {key!r} must be {want}, got {value!r}",
                    lines[key])
    required = (_REQUIRED_PARAMS.get(kind, ())
                + _STRUCTURES.get(params.get("structure"), ()))
    missing = [key for key in required if key not in params]
    if missing:
        raise ModelError(f"task {name!r} of kind {kind!r} needs the parameter(s) "
                         + ", ".join(missing), num0)
    return Task(name, kind, params, num0)


def parse_model(text: str, path: str = "<string>") -> Model:
    sections = _split_sections(text)
    if not sections:
        raise ModelError("empty model file")
    num0, header, entries = sections[0]
    if header != "chart":
        raise ModelError("the first section must be [chart]", num0)
    chart = _parse_chart(entries)
    model = Model(path=path, chart=chart)
    for num0, header, entries in sections[1:]:
        parts = header.split(None, 1)
        kind = parts[0]
        if kind == "chart":
            raise ModelError("duplicate [chart] section", num0)
        if len(parts) != 2:
            raise ModelError(f"section [{header}] needs a name", num0)
        name = parts[1].strip()
        if not _NAME_RE.match(name):
            raise ModelError(f"bad section name {name!r}", num0)
        if name in model.object_names() or name in model.tasks:
            raise ModelError(f"duplicate name {name!r}", num0)
        if kind == "metric":
            model.metrics[name] = _parse_metric(model, name, entries)
        elif kind == "endomorphism":
            model.endomorphisms[name] = _parse_endomorphism(
                model, name, entries)
        elif kind == "connection":
            model.connections[name] = _parse_connection(model, name, entries)
        elif kind == "vector":
            model.vectors[name] = _parse_vector(model, name, entries)
        elif kind == "frame":
            model.frames[name] = _parse_frame(entries, num0)
        elif kind == "matrix":
            model.matrices[name] = _parse_matrix(entries, num0)
        elif kind == "task":
            model.tasks[name] = _parse_task(name, entries, num0, chart)
        else:
            raise ModelError(f"unknown section kind {kind!r}", num0)
    _validate_references(model)
    return model


def _validate_references(model: Model) -> None:
    for fname, members in model.frames.items():
        for m in members:
            if m not in model.endomorphisms:
                raise ModelError(
                    f"frame {fname!r} references unknown endomorphism {m!r}")
    for task in model.tasks.values():
        p = task.params
        for key, pool in (("metric", model.metrics),
                          ("connection", model.connections),
                          ("complex_structure", model.endomorphisms),
                          ("vector", model.vectors),
                          ("frame", model.frames)):
            if key in p and p[key] not in pool:
                raise ModelError(
                    f"task {task.name!r}: {key} {p[key]!r} is not declared",
                    task.line)
        for key in ("fields", "isotropy", "complement"):
            if key in p:
                for v in _name_list(p[key]):
                    if v not in model.vectors:
                        raise ModelError(
                            f"task {task.name!r}: vector {v!r} is not declared",
                            task.line)
        if "blocks" in p:
            for v in _name_list(p["blocks"]):
                if v not in model.matrices:
                    raise ModelError(
                        f"task {task.name!r}: matrix {v!r} is not declared",
                        task.line)
            shapes = {(len(model.matrices[v]), len(model.matrices[v][0]))
                      for v in _name_list(p["blocks"])}
            if len(shapes) != 1 or any(r != c for r, c in shapes):
                raise ModelError(
                    f"task {task.name!r}: blocks must be square matrices of "
                    "one size", task.line)


def _name_list(value: str) -> List[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_model(text, path)
