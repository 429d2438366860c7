"""Fuzzed model files: parsing fails only with ModelError, and every task
of a model that parses runs to a report without raising."""

from hypothesis import HealthCheck, given, settings, strategies as st

from geosym.cli import run_task
from geosym.modelfile import TASK_KINDS, ModelError, parse_model

# The variants of each named object.
OBJECTS = {
    "g": ["[metric g]\ng[x,x] = 1\ng[y,y] = 1\n",
          "[metric g]\ng[x,x] = x\ng[y,y] = x\n",
          "[metric g]\ng[x,x] = sin(y)^2\ng[y,y] = 1\n",
          "[metric g]\ng[x,x] = 0\n"],
    "J": ["[endomorphism J]\nJ[x,y] = -1\nJ[y,x] = 1\n",
          "[endomorphism J]\nJ[x,x] = 1\n"],
    "D": ["[connection D]\nD[x; y, y] = x\n",
          "[connection D]\nD[x; x, x] = 1/x\n"],
    "v": ["[vector v]\nv[x] = 1\n", "[vector v]\nv[x] = sin(y)\n"],
    "w": ["[vector w]\nw[y] = x\n"],
    "u": ["[vector u]\nu[x] = x\nu[y] = y\n"],
    "F": ["[frame F]\nmembers = J, J, J\n"],
    "M": ["[matrix M]\nrow = 0, 1\nrow = -1, 0\n", "[matrix M]\nrow = 1, 2, 3\n",
          "[matrix M]\nrow = 1\n"],
    "N": ["[matrix N]\nrow = 1, 0\nrow = 0, 1\n", "[matrix N]\nrow = 2\n"],
}

# Task parameter entries per kind; an entry may set several parameters.
_STRUCTURE = ["structure = killing\nmetric = g",
              "structure = quaternionic\nmetric = g",
              "structure = quaternionic\nmetric = g\nframe = F",
              "structure = cprojective\nconnection = D\ncomplex_structure = J",
              "orientation = -1"]
KIND_PARAMS = {
    "check-structure": [
        "metric = g", "frame = F", "connection = D\ncomplex_structure = J",
        "blocks = M", "blocks = M, N", "expect_ricci_flat = true",
        "expect_block_kernel_dimension = 1"],
    "symmetry-bound": _STRUCTURE + ["expect_bound = 3", "max_stage = 2"],
    "verify-fields": _STRUCTURE + ["fields = v, w", "fields = u"],
    "closure": ["fields = v, w", "fields = u, v, w", "expect_dimension = 2",
                "expect_center_dimension = 0", "expect_derived_dimension = 1"],
    "invariant-connections": [
        "isotropy = u\ncomplement = v, w", "isotropy = v\ncomplement = w",
        "point = 0, 0", "point = 1, 2", "tensor_type = 1, 1",
        "expect_dimension = 1"],
    "curvature-type": ["connection = D\ncomplex_structure = J",
                       "expect_vanishing = 20, 02"],
    "vanishing-locus": ["vector = v", "vector = u", "expect_dimension = 0",
                        "expect_zero_coordinates = x"],
    "obata": ["frame = F", "expect_flat = true"],
}

# malformed sections, inserted now and then at a random place
BROKEN = [None, None, None, None, None, None,
          "[chart]\ncoordinates = x, x\n", "[widget W]\nfoo = 1\n",
          "g[x,x] = 1\n", "[vector t]\nt[t] = 1\n", "[task]\nkind = closure\n",
          "[task b]\nkind = closure\nbogus = 1\n",
          "[task s]\nkind = symmetry-bound\nstructure = bogus\n",
          "[frame E]\nmembers = J\n", "[vector t]\nt[x] = x^-(1.5)\n",
          "g[x,x] = (x+1)^70000\n", None]


def _key(line):
    return line.split("=")[0]


@st.composite
def model_texts(draw):
    sections = ["[chart]\ncoordinates = x, y\ntrig_pair = y\n"]
    sections += [draw(st.sampled_from(variants)) for variants in OBJECTS.values()]
    for i in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(TASK_KINDS))
        params = draw(st.lists(st.sampled_from(KIND_PARAMS[kind]),
                               min_size=1, max_size=4, unique_by=_key))
        sections.append("\n".join([f"[task t{i}]", f"kind = {kind}", *params]) + "\n")
    broken = draw(st.sampled_from(BROKEN))
    if broken is not None:
        sections.insert(draw(st.integers(0, len(sections))), broken)
    return "\n".join(sections)


@settings(derandomize=True, max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model_texts())
def test_fuzzed_models_fail_only_by_model_error_or_report(text):
    try:
        model = parse_model(text)
    except ModelError as exc:
        assert exc.line is not None
        return
    for task in model.tasks.values():
        for max_stage in (1, 2):
            report, _ = run_task(model, task, (101, 202, 303), max_stage)
            assert report["outcome"] in ("pass", "fail")
