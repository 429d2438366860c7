"""Bundled model files executed through the CLI entry point.

The Eguchi-Hanson bound task is exercised by the acceptance suite; here
the fast models run end to end with their embedded expectations.
"""

import importlib.resources

import pytest

from geosym import modelfile
from geosym.cli import main, run_task
from geosym.exprfield import Expr


def _bundled(name):
    return str(importlib.resources.files("geosym") / "models" / name)


@pytest.mark.parametrize("name", [
    "flat2.model", "flat4.model", "blocks_v.model",
    "submax_cprojective_n2.model"])
def test_model_tasks_all_pass(name, capsys):
    assert main(["run", _bundled(name)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_flat4_reports_maximal_bounds(capsys):
    assert main(["run", _bundled("flat4.model"), "--task", "bound"]) == 0
    assert "bound: 15" in capsys.readouterr().out
    assert main(["run", _bundled("flat4.model"),
                 "--task", "cprojective-bound"]) == 0
    assert "bound: 16" in capsys.readouterr().out


def test_submax_model_bound_is_eight(capsys):
    assert main(["run", _bundled("submax_cprojective_n2.model"),
                 "--task", "bound"]) == 0
    assert "bound: 8" in capsys.readouterr().out


@pytest.mark.slow
def test_eguchi_hanson_model_runs_completely(capsys):
    assert main(["run", _bundled("eguchi_hanson.model")]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "bound: 4" in out


def test_eguchi_hanson_field_certificates_build_few_exprs(monkeypatch):
    """The killing-fields and quaternionic-fields tasks share each
    constant normal form (the chart's zero, the derivation rules), take
    the equations' polynomial coefficients as they are and sum each
    residual as polynomials over the jets' one denominator: together
    they build at most 1,000 Exprs (729 at these seeds)."""
    model = modelfile.load_model(_bundled("eguchi_hanson.model"))
    built = []
    init = Expr.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Expr, "__init__", recording_init)
    for task in ("killing-fields", "quaternionic-fields"):
        report, _ = run_task(model, model.tasks[task], (101, 202, 303))
        assert report["outcome"] == "pass"
    assert len(built) <= 1000
