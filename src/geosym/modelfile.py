"""Declarative model files: charts, geometric objects, and named tasks.

Plain-text format with bracketed section headers and ``key = value``
entries.  The first section must be ``[chart]``; every later section
declares one named object or task over that chart.  Parsing is
deterministic, unknown keys are rejected, and every error is a
:class:`ModelError` carrying the line it came from.

Section kinds::

    [chart]                 coordinates = x, y / trig_pair = phi
    [metric g]              g[i,j] = expr       (symmetric)
    [endomorphism J]        J[a,b] = expr       (value index first: J^a_b)
    [connection D]          D[k; i,j] = expr    (Gamma^k_{ij}, symmetric in i, j)
    [vector v]              v[i] = expr
    [frame F]               members = I, J, K   (three endomorphism names)
    [matrix M]              row = 0, -1, 0, 0   (repeatable, exact rationals)
    [task name]             kind = symmetry-bound / further task parameters

The four tensor sections share one grammar (:func:`_parse_components`).
A component given twice is an error.  In a symmetric section one entry
per unordered index pair suffices and is mirrored; giving the mirrored
order too is tolerated with a warning when the values agree and is an
error when they conflict.

Tasks are declared by one table, ``_TASKS``: each kind's parameters with
their defaults (``REQUIRED`` for none).  Each value is converted once,
here, by ``_PARAM_FORMS``, so ``Task.params`` holds every allowed key
with a typed value (``None`` for an optional parameter left out).  A
parameter the task would ignore is an error at its line: a structure
parameter that the task's ``structure`` does not read (``_STRUCTURES``),
and ``orientation`` next to ``frame``.  A ``check-structure`` task needs
something to check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .exprfield import Chart, Expr, ExprError, parse_expr, trig_names
from .geometry import Connection, TensorField

__all__ = ["ModelError", "Task", "Model", "parse_model", "load_model",
           "TASK_KINDS"]

REQUIRED = object()  # a task parameter without a default

_STRUCTURE_PARAMS = {
    "structure": REQUIRED, "metric": None, "frame": None, "connection": None,
    "complex_structure": None, "orientation": 1,
}
# task kind -> {parameter: default}; point defaults to the chart's origin
_TASKS = {
    "check-structure": {
        "metric": None, "frame": None, "connection": None,
        "complex_structure": None, "blocks": None, "expect_ricci_flat": None,
        "expect_block_kernel_dimension": None,
    },
    "symmetry-bound": {**_STRUCTURE_PARAMS, "commute": None, "expect_bound": None,
                       "max_stage": 6},
    "verify-fields": {**_STRUCTURE_PARAMS, "fields": REQUIRED},
    "closure": {
        "fields": REQUIRED, "expect_dimension": None,
        "expect_center_dimension": None, "expect_derived_dimension": None,
    },
    "invariant-connections": {
        "isotropy": REQUIRED, "complement": REQUIRED,
        "point": lambda chart: (Fraction(0),) * chart.dim,
        "tensor_type": (2, 1), "expect_dimension": None,
    },
    "curvature-type": {
        "connection": REQUIRED, "complex_structure": REQUIRED,
        "expect_vanishing": None,
    },
    "vanishing-locus": {
        "vector": REQUIRED, "expect_dimension": None,
        "expect_zero_coordinates": None,
    },
    "obata": {"frame": REQUIRED, "expect_flat": None},
}
TASK_KINDS = tuple(_TASKS)

# Each symmetry structure's parameters: those it needs, then those it
# also reads.  Any other parameter of _STRUCTURE_PARAMS is an error.
_STRUCTURES = {
    "killing": (("metric",), ()),
    "quaternionic": (("metric",), ("frame", "orientation")),
    "cprojective": (("connection", "complex_structure"), ()),
}
# Parameters of a kind that act only together with another parameter.
_NEEDS = {
    "check-structure": {
        "expect_ricci_flat": "metric",
        "expect_block_kernel_dimension": "blocks",
        "complex_structure": "connection",
    },
}
# Kinds that need at least one of some parameters.
_ANY_OF = {"check-structure": ("metric", "frame", "connection", "blocks")}
# Parameters that another parameter overrides: giving both is an error.
_OVERRIDDEN_BY = {"orientation": "frame"}  # a frame replaces the ASD span


def _names(text: str) -> List[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _rational(text: str) -> Fraction:
    """An integer, p/q or decimal as an exact rational.  Exponent
    notation is refused before the number is built: ``Fraction`` would
    expand 1e100000000 digit by digit."""
    if "e" in text.lower():
        raise ValueError(f"exponent notation in {text.strip()!r}")
    return Fraction(text)


def _flag(text: str) -> bool:
    return {"true": True, "false": False}[text.lower()]


def _any(value, chart: Chart) -> bool:
    return True


# Task parameters whose values are not a single name: parameter ->
# (the form the value must take, its conversion from the entry's text,
# which raises on a malformed value, and a check of the converted value
# against the chart).
_COUNT = ("a non-negative integer", int, lambda n, chart: n >= 0)
_FLAG = ("true or false", _flag, _any)
_NAMES = ("a list of names", _names, _any)
_PARAM_FORMS = {
    "max_stage": ("an integer of at least 1", int, lambda n, chart: n >= 1),
    "orientation": ("1 or -1", int, lambda n, chart: n in (1, -1)),
    "point": ("one rational per coordinate",
              lambda text: tuple(_rational(p) for p in text.split(",")),
              lambda p, chart: len(p) == chart.dim),
    "tensor_type": ("two non-negative integers r, s",
                    lambda text: tuple(int(p) for p in text.split(",")),
                    lambda rs, chart: len(rs) == 2 and min(rs) >= 0),
    "expect_bound": _COUNT,
    "expect_dimension": _COUNT,
    "expect_center_dimension": _COUNT,
    "expect_derived_dimension": _COUNT,
    "expect_block_kernel_dimension": _COUNT,
    "expect_ricci_flat": _FLAG,
    "expect_flat": _FLAG,
    "expect_vanishing": ("a subset of 20, 11, 02", _names,
                         lambda v, chart: set(v) <= {"20", "11", "02"}),
    "expect_zero_coordinates": ("coordinates of the chart", _names,
                                lambda v, chart: set(v) <= set(chart.coordinates)),
    "structure": ("one of " + ", ".join(_STRUCTURES), str,
                  lambda v, chart: v in _STRUCTURES),
    "fields": _NAMES,
    "isotropy": _NAMES,
    "complement": _NAMES,
    "blocks": _NAMES,
}

# Entries that name other sections: key -> the section kind they name.
_REFERENCES = {
    "members": "endomorphism",
    "metric": "metric",
    "connection": "connection",
    "complex_structure": "endomorphism",
    "frame": "frame",
    "vector": "vector",
    "commute": "vector",
    "fields": "vector",
    "isotropy": "vector",
    "complement": "vector",
    "blocks": "matrix",
}

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")


class ModelError(ExprError):
    """Parse or validation failure, carrying a line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass
class Task:
    name: str
    kind: str
    params: Dict[str, object]
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
    # (owner, key, names, line) of each entry naming other sections,
    # checked once the whole file is read
    references: List[Tuple[str, str, List[str], int]] = field(default_factory=list)

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


def _parse_chart(entries, num0: int) -> Chart:
    coords = None
    trig: List[Tuple[int, str]] = []
    for num, line in entries:
        key, value = _entry(line, num)
        if key == "coordinates":
            if coords is not None:
                raise ModelError("coordinates given twice", num)
            coords, coords_line = _names(value), num
            if not coords:
                raise ModelError("empty coordinate list", num)
        elif key == "trig_pair":
            trig.append((num, value))
        else:
            raise ModelError(f"unknown chart key {key!r}", num)
    if coords is None:
        raise ModelError("chart section lacks a coordinates entry", num0)
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
        raise ModelError(str(ex), coords_line) from ex


def _parse_components(model: Model, name: str, entries, rank: int,
                      symmetric: bool) -> Dict[Tuple[int, ...], Expr]:
    """{index tuple: Expr} of the entries ``name[i, ...] = expr`` of a
    tensor section (';' reads like ','); ``symmetric`` makes the last two
    slots symmetric, each entry standing for both of their orders."""
    chart = model.chart
    comps: Dict[Tuple[int, ...], Expr] = {}
    given = set()
    for num, line in entries:
        key, value = _entry(line, num)
        m = re.fullmatch(re.escape(name) + r"\[([^\]]*)\]", key)
        if m is None:
            raise ModelError(
                f"expected component key {name}[...], got {key!r}", num)
        parts = [p.strip() for p in re.split(r"[;,]", m.group(1))]
        if any(not p for p in parts):
            raise ModelError(f"empty index in {key!r}", num)
        if len(parts) != rank:
            raise ModelError(
                f"components of {name} need {rank} indices, got {key!r}", num)
        idx = tuple(_coord_index(chart, p, num) for p in parts)
        if idx in given:
            raise ModelError(f"duplicate component {key!r}", num)
        e = _parse(chart, value, num)
        keys = [idx]
        if symmetric:
            mirror = idx[:-2] + (idx[-1], idx[-2])
            if mirror in given:
                if not (comps[mirror] - e).is_zero():
                    raise ModelError(
                        f"conflicting values for the symmetric pair {key!r}", num)
                model.warnings.append(
                    f"line {num}: both index orders of {key} given; symmetric "
                    "entries follow the symmetrized convention, one order "
                    "suffices")
            keys = sorted({idx, mirror})
        for k in keys:
            comps[k] = e
        given.add(idx)
    return comps


def _tensor(rank: int, symmetric: bool, build):
    """Parser of a tensor section: ``build(chart, components)``."""
    return lambda model, name, entries, num0: build(
        model.chart, _parse_components(model, name, entries, rank, symmetric))


def _parse_frame(model: Model, name: str, entries, num0: int) -> List[str]:
    members = None
    for num, line in entries:
        key, value = _entry(line, num)
        if key != "members":
            raise ModelError(f"unknown frame key {key!r}", num)
        if members is not None:
            raise ModelError("members given twice", num)
        members = _names(value)
        if len(members) != 3:
            raise ModelError("a frame needs exactly three members I, J, K", num)
        model.references.append((f"frame {name!r}", key, members, num))
    if not members:
        raise ModelError("frame section lacks a members entry", num0)
    return members


def _parse_matrix(model: Model, name: str, entries, num0: int) -> List[List[Fraction]]:
    rows = []
    for num, line in entries:
        key, value = _entry(line, num)
        if key != "row":
            raise ModelError(f"unknown matrix key {key!r}", num)
        try:
            rows.append([_rational(p) for p in _names(value)])
        except (ValueError, ZeroDivisionError) as ex:
            raise ModelError(f"bad rational entry: {ex}", num) from ex
    if not rows:
        raise ModelError("matrix section has no rows", num0)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ModelError("matrix rows have unequal lengths", num0)
    return rows


def _parse_task(model: Model, name: str, entries, num0: int) -> Task:
    kind = None
    given: Dict[str, Tuple[str, int]] = {}  # parameter -> (text, line)
    for num, line in entries:
        key, value = _entry(line, num)
        if key == "kind":
            if kind is not None:
                raise ModelError("kind given twice", num)
            kind = value
            if kind not in _TASKS:
                raise ModelError(
                    f"unknown task kind {kind!r}; expected one of "
                    + ", ".join(TASK_KINDS), num)
        else:
            if key in given:
                raise ModelError(f"duplicate parameter {key!r}", num)
            given[key] = (value, num)
    if kind is None:
        raise ModelError(f"task {name!r} lacks a kind entry", num0)
    allowed = _TASKS[kind]
    params = {key: default(model.chart) if callable(default) else default
              for key, default in allowed.items()}
    for key, (text, num) in given.items():
        if key not in allowed:
            raise ModelError(
                f"parameter {key!r} is not valid for task kind {kind!r}", num)
        want, convert, valid = _PARAM_FORMS.get(key, (None, str, _any))
        try:
            params[key] = convert(text)
            ok = valid(params[key], model.chart)
        except (ValueError, ZeroDivisionError, KeyError):
            ok = False
        if not ok:
            raise ModelError(f"parameter {key!r} must be {want}, got {text!r}", num)
        if key in _REFERENCES:
            names = params[key] if isinstance(params[key], list) else [params[key]]
            model.references.append((f"task {name!r}", key, names, num))
    needs, reads = _STRUCTURES.get(params.get("structure"), ((), ()))
    required = [key for key, default in allowed.items() if default is REQUIRED] + list(needs)
    missing = [key for key in required if key not in given]
    if missing:
        raise ModelError(f"task {name!r} of kind {kind!r} needs the parameter(s) "
                         + ", ".join(missing), num0)
    unused = (set(_STRUCTURE_PARAMS) - {"structure", *needs, *reads}
              if "structure" in allowed else set())
    for key, (_, num) in given.items():
        if key in unused:
            raise ModelError(f"parameter {key!r} is not used by structure "
                             f"{params['structure']!r}", num)
        needed = _NEEDS.get(kind, {}).get(key)
        if needed is not None and needed not in given:
            raise ModelError(f"parameter {key!r} needs the parameter {needed!r}", num)
        if _OVERRIDDEN_BY.get(key) in given:
            raise ModelError(f"parameter {key!r} is ignored next to the parameter "
                             f"{_OVERRIDDEN_BY[key]!r}", num)
    any_of = _ANY_OF.get(kind, ())
    if any_of and not any(key in given for key in any_of):
        raise ModelError(f"task {name!r} of kind {kind!r} needs at least one of "
                         + ", ".join(any_of), num0)
    return Task(name, kind, params, num0)


# section kind -> (Model attribute, parser(model, name, entries, header line))
_SECTIONS = {
    "metric": ("metrics", _tensor(2, True, lambda chart, c: TensorField(chart, ("d", "d"), c))),
    "endomorphism": ("endomorphisms",
                     _tensor(2, False, lambda chart, c: TensorField(chart, ("u", "d"), c))),
    "connection": ("connections", _tensor(3, True, Connection)),
    "vector": ("vectors", _tensor(1, False, lambda chart, c: TensorField(chart, ("u",), c))),
    "frame": ("frames", _parse_frame),
    "matrix": ("matrices", _parse_matrix),
    "task": ("tasks", _parse_task),
}


def parse_model(text: str, path: str = "<string>") -> Model:
    sections = _split_sections(text)
    if not sections:
        raise ModelError("empty model file; it must start with a [chart] section", 1)
    num0, header, entries = sections[0]
    if header != "chart":
        raise ModelError("the first section must be [chart]", num0)
    model = Model(path=path, chart=_parse_chart(entries, num0))
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
        if kind not in _SECTIONS:
            raise ModelError(f"unknown section kind {kind!r}", num0)
        attribute, parse = _SECTIONS[kind]
        getattr(model, attribute)[name] = parse(model, name, entries, num0)
    _validate_references(model)
    return model


def _validate_references(model: Model) -> None:
    for owner, key, names, num in model.references:
        kind = _REFERENCES[key]
        pool = getattr(model, _SECTIONS[kind][0])
        for ref in names:
            if ref not in pool:
                raise ModelError(f"{owner}: {kind} {ref!r} is not declared", num)
        if key == "blocks":
            shapes = {(len(pool[m]), len(pool[m][0])) for m in names}
            if len(shapes) != 1 or any(r != c for r, c in shapes):
                raise ModelError(
                    f"{owner}: blocks must be square matrices of one size", num)


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_model(text, path)
