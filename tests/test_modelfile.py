"""Model-file parsing: determinism, rejection of unknown keys, and the
symmetrized-entry conventions."""

import importlib.resources
from fractions import Fraction

import pytest

from geosym.cli import main
from geosym.modelfile import ModelError, parse_model


MINIMAL = """
[chart]
coordinates = x, y

[metric g]
g[x,x] = 1
g[y,y] = 1
"""


def test_minimal_model_parses():
    model = parse_model(MINIMAL)
    assert model.chart.coordinates == ["x", "y"]
    assert "g" in model.metrics


def test_chart_must_come_first():
    with pytest.raises(ModelError, match="first section"):
        parse_model("[metric g]\ng[x,x] = 1\n")


def test_unknown_section_kind_rejected():
    with pytest.raises(ModelError, match="unknown section kind"):
        parse_model("[chart]\ncoordinates = x\n\n[widget w]\nfoo = 1\n")


def test_unknown_chart_key_rejected():
    with pytest.raises(ModelError, match="unknown chart key"):
        parse_model("[chart]\ncoordinates = x\nextra = 1\n")


def test_parse_error_carries_line_number():
    text = "[chart]\ncoordinates = x\n\n[metric g]\ng[x,x] = +\n"
    with pytest.raises(ModelError) as exc:
        parse_model(text)
    assert exc.value.line == 5


def test_missing_trig_relation_is_named():
    text = "[chart]\ncoordinates = x\n\n[metric g]\ng[x,x] = sin(x)^2\n"
    with pytest.raises(ModelError, match="sin"):
        parse_model(text)


def test_trig_pair_requires_coordinate():
    text = "[chart]\ncoordinates = x\ntrig_pair = t\n"
    with pytest.raises(ModelError, match=r"sin\(t\)\^2 \+ cos\(t\)\^2 = 1"):
        parse_model(text)


def test_trig_generator_clashing_with_a_coordinate_keeps_its_line(tmp_path):
    text = "[chart]\ncoordinates = x, sin_x\ntrig_pair = x\n"
    with pytest.raises(ModelError, match="line 3: duplicate variable name: 'sin_x'") as exc:
        parse_model(text)
    assert exc.value.line == 3
    path = tmp_path / "clash.model"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2


def test_repeated_trig_pair_line_is_accepted():
    model = parse_model("[chart]\ncoordinates = x, y\ntrig_pair = x\ntrig_pair = x\n")
    assert model.chart.var_names == ["x", "y", "sin_x", "cos_x"]


def test_metric_symmetrized_convention_warning():
    text = (MINIMAL + "\n[metric h]\n"
            "h[x,y] = x\nh[y,x] = x\nh[x,x] = 1\nh[y,y] = 1\n")
    model = parse_model(text)
    assert any("symmetrized convention" in w for w in model.warnings)
    assert (model.metrics["h"].comp(0, 1) - model.metrics["h"].comp(1, 0)).is_zero()


@pytest.mark.parametrize("section, first, repeat", [
    ("metric h", "h[x,y] = x", "h[x,y] = x"),
    ("metric h", "h[x,x] = 1", "h[x,x] = 1"),
    ("endomorphism h", "h[x,y] = 1", "h[x,y] = 1"),
    ("connection h", "h[x; x, y] = x", "h[x; x,y] = x"),
    ("vector h", "h[y] = 1", "h[y] = 1"),
])
def test_exact_repeat_is_a_duplicate_component_in_every_section(section, first, repeat):
    text = MINIMAL + f"\n[{section}]\n{first}\n{repeat}\n"
    with pytest.raises(ModelError, match="duplicate component") as exc:
        parse_model(text)
    assert exc.value.line == len(text.splitlines())


def test_connection_symmetrized_convention_warning():
    text = MINIMAL + "\n[connection D]\nD[x; x, y] = x\nD[x; y, x] = x\n"
    model = parse_model(text)
    assert any("symmetrized convention" in w for w in model.warnings)
    assert model.warnings[0].startswith(f"line {len(text.splitlines())}:")


def test_connection_conflicting_entries_rejected():
    text = MINIMAL + "\n[connection D]\nD[x; x, y] = x\nD[x; y, x] = y\n"
    with pytest.raises(ModelError, match="conflicting") as exc:
        parse_model(text)
    assert exc.value.line == len(text.splitlines())


def test_metric_conflicting_entries_rejected():
    text = (MINIMAL + "\n[metric h]\n" "h[x,y] = x\nh[y,x] = y\n")
    with pytest.raises(ModelError, match="conflicting"):
        parse_model(text)


def test_connection_symmetrization():
    text = """
[chart]
coordinates = x, y

[connection D]
D[x; x, y] = x
"""
    model = parse_model(text)
    D = model.connections["D"]
    assert (D.comp(0, 0, 1) - D.comp(0, 1, 0)).is_zero()
    assert D.is_torsion_free()


def test_duplicate_names_rejected():
    text = MINIMAL + "\n[vector g]\ng[x] = 1\n"
    with pytest.raises(ModelError, match="duplicate name"):
        parse_model(text)


def test_task_unknown_kind_rejected():
    text = MINIMAL + "\n[task t]\nkind = frobnicate\n"
    with pytest.raises(ModelError, match="unknown task kind"):
        parse_model(text)


def test_task_unknown_parameter_rejected():
    text = MINIMAL + "\n[task t]\nkind = closure\nbogus = 1\n"
    with pytest.raises(ModelError, match="not valid for task kind"):
        parse_model(text)


def test_task_reference_validation():
    text = MINIMAL + "\n[task t]\nkind = symmetry-bound\nstructure = killing\nmetric = missing\n"
    with pytest.raises(ModelError, match="not declared") as exc:
        parse_model(text)
    assert exc.value.line == len(text.splitlines())


@pytest.mark.parametrize("params", [
    "kind = closure\nfields = v, w",
    "kind = invariant-connections\nisotropy = v\ncomplement = w",
    "kind = check-structure\nblocks = M, N",
    "kind = check-structure\nblocks = M, R",
])
def test_reference_errors_are_raised_at_the_parameter_line(params):
    """An undeclared name, or blocks of unequal sizes, is an error at the
    line of the parameter that names it, not at the task header."""
    text = (MINIMAL + "\n[vector v]\nv[x] = 1\n\n[matrix M]\nrow = 1\n\n"
            "[matrix R]\nrow = 1, 0\nrow = 0, 1\n\n[task t]\n" + params + "\n")
    with pytest.raises(ModelError) as exc:
        parse_model(text)
    assert exc.value.line == len(text.splitlines())


def test_matrix_rows():
    text = MINIMAL + "\n[matrix M]\nrow = 1, 1/2\nrow = -1, 0\n"
    model = parse_model(text)
    assert model.matrices["M"][0][1] == 0.5


def test_ragged_matrix_rejected():
    text = MINIMAL + "\n[matrix M]\nrow = 1, 2\nrow = 3\n"
    with pytest.raises(ModelError, match="unequal"):
        parse_model(text)


@pytest.mark.parametrize("name", [
    "flat2", "flat4", "eguchi_hanson", "submax_cprojective_n2", "blocks_v"])
def test_bundled_models_parse(name):
    ref = importlib.resources.files("geosym") / "models" / f"{name}.model"
    model = parse_model(ref.read_text(), str(ref))
    assert model.tasks
    assert not model.warnings


@pytest.mark.parametrize("kind, key, value", [
    ("symmetry-bound", "max_stage", "abc"),
    ("symmetry-bound", "max_stage", "0"),
    ("symmetry-bound", "max_stage", "2.5"),
    ("symmetry-bound", "orientation", "2"),
    ("symmetry-bound", "orientation", "up"),
    ("invariant-connections", "point", "1/0, 2"),
    ("invariant-connections", "point", "1"),
    ("invariant-connections", "point", "a, b"),
    ("invariant-connections", "tensor_type", "2"),
    ("invariant-connections", "tensor_type", "2, -1"),
    ("invariant-connections", "tensor_type", "1, 2, 3"),
    ("closure", "point", "0, 0"),  # valid form, wrong task kind
    ("invariant-connections", "fields", "v"),  # the task reads no fields
    ("symmetry-bound", "expect_bound", "abc"),
    ("symmetry-bound", "expect_bound", "-1"),
    ("closure", "expect_dimension", "2.5"),
    ("closure", "expect_center_dimension", "one"),
    ("closure", "expect_derived_dimension", "-3"),
    ("check-structure", "expect_block_kernel_dimension", "x"),
    ("check-structure", "expect_ricci_flat", "yes"),
    ("obata", "expect_flat", "1"),
    ("curvature-type", "expect_vanishing", "20, 12"),
    ("vanishing-locus", "expect_zero_coordinates", "q"),
    ("vanishing-locus", "expect_zero_coordinates", "x, q"),
    ("symmetry-bound", "structure", "conformal"),
    ("verify-fields", "structure", "Killing"),
])
def test_bad_task_parameter_rejected_at_its_line(tmp_path, kind, key, value):
    text = MINIMAL + f"\n[task t]\nkind = {kind}\n{key} = {value}\n"
    bad_line = len(text.splitlines())
    with pytest.raises(ModelError) as exc:
        parse_model(text)
    assert exc.value.line == bad_line
    path = tmp_path / "bad.model"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2


FRAMED = MINIMAL + """
[endomorphism J]
J[x,y] = -1
J[y,x] = 1
"""


@pytest.mark.parametrize("kind, params", [
    ("symmetry-bound", "expect_bound = 3"),
    ("symmetry-bound", "structure = killing"),
    ("symmetry-bound", "structure = quaternionic"),
    ("symmetry-bound", "structure = cprojective\ncomplex_structure = J"),
    ("verify-fields", "structure = killing\nmetric = g"),
    ("closure", "expect_dimension = 2"),
    ("invariant-connections", "isotropy = v"),
    ("curvature-type", "complex_structure = J"),
    ("vanishing-locus", "expect_dimension = 0"),
    ("obata", "expect_flat = true"),
])
def test_missing_task_parameter_rejected_at_task_line(tmp_path, kind, params):
    text = FRAMED + "\n[vector v]\nv[x] = 1\n"
    task_line = len(text.splitlines()) + 2
    text += f"\n[task t]\nkind = {kind}\n{params}\n"
    with pytest.raises(ModelError, match="needs the parameter") as exc:
        parse_model(text)
    assert exc.value.line == task_line
    path = tmp_path / "bad.model"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("members", ["J, J", "J, J, J, J"])
def test_frame_needs_three_members(members):
    # obata unpacks the frame as I, J, K
    text = FRAMED + f"\n[frame F]\nmembers = {members}\n"
    members_line = len(text.splitlines())
    text += "\n[task t]\nkind = obata\nframe = F\n"
    with pytest.raises(ModelError, match="three members") as exc:
        parse_model(text)
    assert exc.value.line == members_line


@pytest.mark.parametrize("text, line", [
    ("[chart]\ncoordinates = x, 1y\n", 2),
    ("[chart]\ncoordinates = x, x\n", 2),
    ("# no coordinates\n[chart]\ntrig_pair = x\n", 2),
    ("[chart]\n", 1),
    (MINIMAL + "\n[frame F]\nmembers = I, J, K\n", len(MINIMAL.splitlines()) + 3),
])
def test_every_model_error_carries_its_line(tmp_path, text, line):
    with pytest.raises(ModelError) as exc:
        parse_model(text)
    assert exc.value.line == line
    path = tmp_path / "bad.model"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("params", [
    "metric = g\nexpect_ricci_flat = true",
    "blocks = M\nexpect_block_kernel_dimension = 1",
    "connection = D\ncomplex_structure = J",
])
def test_check_structure_expectation_without_its_object_is_rejected(tmp_path, params):
    """Each check-structure parameter that acts on another object is a
    parse error at its line when that object is not given."""
    needed, key = params.split("\n")
    text = (FRAMED + "\n[connection D]\n\n[matrix M]\nrow = 1\n\n"
            "[task t]\nkind = check-structure\n" + key + "\n")
    parse_model(text.replace("kind = check-structure\n",
                             "kind = check-structure\n" + needed + "\n"))
    with pytest.raises(ModelError, match="needs the parameter") as exc:
        parse_model(text)
    assert exc.value.line == len(text.splitlines())
    path = tmp_path / "bad.model"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2


def test_task_params_hold_typed_values_with_defaults():
    text = FRAMED + """
[vector v]
v[x] = 1

[task bound]
kind = symmetry-bound
structure = killing
metric = g
expect_bound = 3

[task inv]
kind = invariant-connections
isotropy = v
complement = v

[task inv2]
kind = invariant-connections
isotropy = v
complement = v
point = 1/2, -3
tensor_type = 1, 1

[task check]
kind = check-structure
metric = g
expect_ricci_flat = False
"""
    tasks = parse_model(text).tasks
    assert tasks["bound"].params == {
        "structure": "killing", "metric": "g", "frame": None, "connection": None,
        "complex_structure": None, "orientation": 1, "commute": None,
        "expect_bound": 3, "max_stage": 6}
    assert tasks["inv"].params["point"] == (0, 0)
    assert tasks["inv"].params["tensor_type"] == (2, 1)
    assert tasks["inv"].params["isotropy"] == ["v"]
    assert tasks["inv2"].params["point"] == (Fraction(1, 2), -3)
    assert tasks["inv2"].params["tensor_type"] == (1, 1)
    assert tasks["check"].params["expect_ricci_flat"] is False
    assert tasks["check"].params["blocks"] is None


def test_check_structure_with_nothing_to_check_is_rejected_at_its_header(tmp_path):
    text = MINIMAL + "\n[task t]\nkind = check-structure\n"
    with pytest.raises(ModelError, match="needs at least one of") as exc:
        parse_model(text)
    assert exc.value.line == len(MINIMAL.splitlines()) + 2
    path = tmp_path / "bad.model"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2
    parse_model(text + "metric = g\n")


STRUCTURED = FRAMED + """
[connection D]
D[x; y, y] = x

[frame F]
members = J, J, J

[task t]
kind = symmetry-bound
"""


@pytest.mark.parametrize("kind", ["symmetry-bound", "verify-fields"])
@pytest.mark.parametrize("structure, extra, bad", [
    ("killing\nmetric = g", "frame = F", "frame"),
    ("killing\nmetric = g", "orientation = -1", "orientation"),
    ("killing\nmetric = g", "connection = D", "connection"),
    ("killing\nmetric = g", "complex_structure = J", "complex_structure"),
    ("quaternionic\nmetric = g", "connection = D", "connection"),
    ("quaternionic\nmetric = g", "complex_structure = J", "complex_structure"),
    ("quaternionic\nmetric = g\nframe = F", "orientation = -1", "orientation"),
    ("quaternionic\nmetric = g\norientation = -1", "frame = F", "orientation"),
    ("cprojective\nconnection = D\ncomplex_structure = J", "metric = g", "metric"),
    ("cprojective\nconnection = D\ncomplex_structure = J", "frame = F", "frame"),
    ("cprojective\nconnection = D\ncomplex_structure = J", "orientation = -1",
     "orientation"),
])
def test_structure_parameter_the_structure_ignores_is_rejected_at_its_line(
        tmp_path, kind, structure, extra, bad):
    """Each structure reads only its own parameters, and a frame replaces
    the orientation of the ASD span; any other given parameter would be
    ignored, so it is a parse error at its line."""
    fields = "\nfields = v" if kind == "verify-fields" else ""
    head = (STRUCTURED.replace("kind = symmetry-bound", f"kind = {kind}")
            + f"structure = {structure}{fields}\n")
    vector = "\n[vector v]\nv[x] = 1\n"
    parse_model(head + vector)
    text = head + extra + "\n" + vector
    bad_line = next(i for i, line in enumerate(text.splitlines(), 1)
                    if line.startswith(bad + " ="))
    with pytest.raises(ModelError, match="not used by structure|ignored next to") as exc:
        parse_model(text)
    assert exc.value.line == bad_line
    path = tmp_path / "bad.model"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
