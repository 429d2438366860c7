"""Command-line front end: exit codes, report determinism, and task
execution on small models."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geosym.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
MODELS = SRC / "geosym" / "models"

FAILING_MODEL = """
[chart]
coordinates = x, y

[metric g]
g[x,x] = 1
g[y,y] = 1

[task bound]
kind = symmetry-bound
structure = killing
metric = g
expect_bound = 7
"""


def test_validate_ok(capsys):
    assert main(["validate", str(MODELS / "flat2.model")]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/path.model"]) == 2


@pytest.mark.parametrize("text, line", [
    pytest.param("[chart]\ncoordinates = x\nbogus = 1\n", 3, id="unknown-key"),
    # an exponent other than an int literal or its negative
    *(pytest.param(f"[chart]\ncoordinates = x\n[metric g]\ng[x,x] = {exponent}\n", 4,
                   id=exponent) for exponent in ("x^+2", "x**~2", "x^-(1.5)", "x^-True",
                                                 # beyond 65535, refused before any power is taken
                                                 "(x+1)^70000", "3^1000000000000"))])
def test_validate_parse_error(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.model"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 2
    assert f"line {line}" in capsys.readouterr().err


def test_run_all_tasks_pass(capsys):
    assert main(["run", str(MODELS / "flat2.model")]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4


def test_run_single_task(capsys):
    assert main(["run", str(MODELS / "flat2.model"), "--task", "bound"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 1
    assert "bound: 3" in out


def test_missing_task_parameter_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text(FAILING_MODEL.replace("metric = g\n", ""))
    assert main(["run", str(bad)]) == 2
    assert "line 9" in capsys.readouterr().err


def test_false_ricci_flat_expectation_is_checked(tmp_path, capsys):
    """expect_ricci_flat = false computes Ricci like true does: on a flat
    metric the expectation fails."""
    model = tmp_path / "flat.model"
    model.write_text(FAILING_MODEL.split("[task")[0] + "[task structure]\n"
                     "kind = check-structure\nmetric = g\nexpect_ricci_flat = false\n")
    assert main(["run", str(model)]) == 1
    out = capsys.readouterr().out
    assert "ricci_flat: True" in out
    assert "expected False, got True" in out


def test_run_unknown_task():
    assert main(["run", str(MODELS / "flat2.model"),
                 "--task", "nonsense"]) == 2


def test_failed_expectation_gives_exit_one(tmp_path, capsys):
    model = tmp_path / "fail.model"
    model.write_text(FAILING_MODEL)
    assert main(["run", str(model)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "expected 7, got 3" in out


def test_usage_error_exit_two():
    assert main(["frobnicate"]) == 2


def test_json_report_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["run", str(MODELS / "flat2.model"),
                     "--seed", "55", "--json", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["schema_version"] == 2
    assert doc["seed"] == 55
    assert all(t["outcome"] == "pass" for t in doc["tasks"])


def test_json_report_has_no_timings(tmp_path):
    out = tmp_path / "r.json"
    assert main(["run", str(MODELS / "flat2.model"),
                 "--json", str(out)]) == 0
    assert "elapsed" not in out.read_text()
    assert "time" not in json.loads(out.read_text())


def test_seed_changes_sample_points_not_results(tmp_path):
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    assert main(["run", str(MODELS / "flat2.model"), "--task", "bound",
                 "--seed", "11", "--json", str(r1)]) == 0
    assert main(["run", str(MODELS / "flat2.model"), "--task", "bound",
                 "--seed", "12", "--json", str(r2)]) == 0
    d1 = json.loads(r1.read_text())["tasks"][0]["data"]
    d2 = json.loads(r2.read_text())["tasks"][0]["data"]
    assert d1["seeds"] != d2["seeds"]
    assert d1["bound"] == d2["bound"]
    assert d1["tables"] == d2["tables"]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "geosym.cli", "validate",
         str(MODELS / "flat2.model")],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_module_entry_point_runs_from_the_source_tree():
    """``python -m geosym`` with only ``src`` on the path, no install."""
    proc = subprocess.run(
        [sys.executable, "-m", "geosym", "run", str(MODELS / "flat2.model"),
         "--task", "bound"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert "bound: 3" in proc.stdout


@pytest.mark.parametrize("model", sorted(p.name for p in MODELS.glob("*.model")))
def test_bundled_models_run_without_sympy(model):
    """geosym needs no sympy at run time: a fresh interpreter in which
    importing sympy fails runs every task of each bundled model, factoring
    included, and exits 0."""
    code = ("import sys\n"
            "sys.modules['sympy'] = None\n"
            "from geosym.cli import main\n"
            f"sys.exit(main(['run', {str(MODELS / model)!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_blocks_model_runs(capsys):
    assert main(["run", str(MODELS / "blocks_v.model")]) == 0
    out = capsys.readouterr().out
    assert "block_kernel_dimension: 2" in out
    assert "h3" in out and "h8" in out


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_max_stage_below_one_is_a_usage_error(value):
    assert main(["run", str(MODELS / "flat2.model"), "--task", "bound",
                 "--max-stage", value]) == 2


def test_max_stage_cap_makes_bound_inconclusive(capsys):
    assert main(["run", str(MODELS / "flat2.model"), "--task", "bound",
                 "--max-stage", "1"]) == 1
    out = capsys.readouterr().out
    assert "inconclusive" in out


def test_killing_bound_of_zero_metric_is_inconclusive(tmp_path, capsys):
    """An all-zero metric gives no equation; the search reports an
    inconclusive bound with exit 1, not a traceback."""
    model = tmp_path / "zero.model"
    model.write_text(FAILING_MODEL.replace("= 1", "= 0")
                     .replace("expect_bound = 7\n", ""))
    assert main(["run", str(model)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "equations: 0" in out
    assert "no independent equation left after stage 1" in out


def test_closure_with_a_pole_at_the_first_sample_point(tmp_path, capsys):
    """A field with a pole on the line x = 2 closes like any other:
    closure compares coefficients and evaluates at no point."""
    model = tmp_path / "pole.model"
    model.write_text("[chart]\ncoordinates = x, y\n\n[vector a]\na[y] = 1\n\n"
                     "[vector b]\nb[y] = 1/(x-2)\n\n"
                     "[task algebra]\nkind = closure\nfields = a, b\n"
                     "expect_dimension = 2\nexpect_derived_dimension = 0\n")
    assert main(["run", str(model)]) == 0
    assert "dimension: 2" in capsys.readouterr().out
