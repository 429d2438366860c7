"""Command-line parsing of the benchmark tools in ``tools/``."""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    saved = list(sys.path)
    sys.path.insert(0, str(TOOLS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:] = saved


def _bench_pairs():
    return _tool("bench_pairs")


def test_seed_lists_and_ranges():
    parse = _bench_pairs().parse_seeds
    assert parse("3-5") == [3, 4, 5]
    assert parse("7") == [7]
    assert parse("1,9,4") == [1, 9, 4]
    assert parse("1-20,101,102") == [*range(1, 21), 101, 102]
    assert parse("5,1-3,8-8") == [5, 1, 2, 3, 8]


@pytest.mark.parametrize("seeds", ["10-1", "x", "", "1,,2", "1-2-3", "-4", "3-",
                                   "1-20,", "1-20,x", "1,10-1", ",101"])
def test_malformed_seeds_are_a_usage_error(seeds, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "a", "--change", "b",
                                      "--workload", "eh-bound", "--seeds", seeds])
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert exc.value.code == 2
    assert "no seeds in" in capsys.readouterr().err


@pytest.mark.parametrize("parent, change, sign, verdict", [
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], 1, "regression"),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], 1, "no regression"),
    ([1.0, 1.01, 0.99, 1.0], [0.5, 0.51, 0.49, 0.5], 1, "no regression"),
    ([1.0, 1.01, 0.99, 1.0], [0.7, 0.71, 0.69, 0.7], -1, "regression"),
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], -1, "no regression"),
    # the parent's quartiles 0.625 / 1.375 lie 0.75 apart, above 0.25 x 1.0
    ([0.5, 1.0, 1.0, 1.5], [1.1, 1.0, 0.9, 1.0], 1, "unresolved"),
    ([0.5, 1.0, 1.0, 1.5], [2.0, 2.1, 1.9, 2.0], 1, "unresolved"),
    # ...unless every change run beats every parent run
    ([0.5, 1.0, 1.0, 1.5], [0.4, 0.3, 0.45, 0.2], 1, "no regression"),
    ([0.5, 1.0, 1.0, 1.5], [1.6, 1.7, 1.8, 2.0], -1, "no regression"),
])
def test_regression_verdict(parent, change, sign, verdict):
    """A change median worse than the parent's by more than bound x the
    parent median (bound 0.25 here) is a regression; a parent whose
    quartile distance exceeds bound x its median leaves it unresolved,
    unless every change run beats every parent run."""
    assert _bench_pairs().regression_verdict(parent, change, sign, 0.25) == verdict


@pytest.mark.parametrize("argv", [
    ["--parent", "a", "--change", "b", "--seeds", "10-1"],
    ["--parent", "a", "--change", "b", "--seeds", "x"],
    ["--parent", "a", "--seeds", "1-2"],
    ["--change", "b", "--seeds", "1-2"],
])
def test_report_diff_usage_errors(argv, monkeypatch, capsys):
    report_diff = _tool("report_diff")
    monkeypatch.setattr(sys, "argv", ["report_diff.py", *argv])
    with pytest.raises(SystemExit) as exc:
        report_diff.main()
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_report_diff_of_flat2_against_itself_and_a_changed_copy(tmp_path):
    """A checkout agrees with itself; a copy whose flat2 model expects a
    wrong bound differs in its report, at the dotted paths of the bound
    task's failures and outcome, and in its exit code."""
    report_diff = _tool("report_diff")
    repo = str(TOOLS.parent)
    assert report_diff.differences(repo, repo, ["flat2"], [1]) == []
    shutil.copytree(TOOLS.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    model = tmp_path / "src" / "geosym" / "models" / "flat2.model"
    model.write_text(model.read_text().replace("expect_bound = 3", "expect_bound = 4"))
    found = report_diff.differences(repo, str(tmp_path), ["flat2"], [1])
    assert len(found) == 2
    assert found[0] == "flat2 seed 1: exit code 0 -> 1"
    assert found[1].startswith("flat2 seed 1: reports differ\n"
                               "  at tasks.1.failures, tasks.1.outcome\n")


def test_report_diff_compares_the_bundled_models_and_the_flat_r8_model(tmp_path):
    """The bundled models, then the flat quaternionic model of R^8,
    generated from the parent's perfbench and run by both sides."""
    report_diff = _tool("report_diff")
    repo = str(TOOLS.parent)
    models = report_diff.compared_models(repo, repo)
    assert models == report_diff.bundled_models(repo) + ["flat8-quaternionic"]
    text = Path(report_diff.write_flat8(repo, str(tmp_path))).read_text()
    assert "x7" in text and "structure = quaternionic" in text
    assert report_diff.differences(repo, repo, ["flat8-quaternionic"], [1]) == []


def test_bench_record_reads_the_environment_after_the_last_run(tmp_path, monkeypatch):
    """The environment probe imports sympy; called first, it would raise
    the recorder's resident size, which every forked run then inherits as
    its peak RSS."""
    bench_record = _tool("bench_record")
    calls = []

    def run(root, workload, seed, seconds, trace):
        calls.append("run")
        return {"correct": True, "metrics": {"solve_s": {"value": 1.0},
                                             "trace.solve_s": {"value": 1.0}}}

    def environment():
        calls.append("environment")
        return {}

    monkeypatch.setattr(bench_record, "run", run)
    monkeypatch.setattr(bench_record, "environment", environment)
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--out-dir", str(tmp_path)])
    assert bench_record.main() == 0
    runs = 2 * len(bench_record.WORKLOADS) * len(bench_record.SEEDS)
    assert calls == ["run"] * runs + ["environment"]
    assert len(list(tmp_path.glob("BENCH_*.json"))) == 1


@pytest.mark.parametrize("inside_other_repo", [False, True])
def test_bench_record_outside_a_git_checkout_names_the_revision_unknown(
        tmp_path, monkeypatch, inside_other_repo):
    """A copy of the repository that is not the top of a git work tree (a
    ``git archive`` copy; or one unpacked inside another checkout, whose
    HEAD is not its revision) records the revision ``unknown``."""
    if inside_other_repo:
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        "commit", "-q", "--allow-empty", "-m", "outer"], check=True)
    copy = tmp_path / "copy"
    for name in ("tools", "perfbench"):
        shutil.copytree(TOOLS.parent / name, copy / name,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(TOOLS.parent / "BENCHMARK.json", copy)
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_record_copy", copy / "tools" / "bench_record.py")
        bench_record = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_record)
    finally:
        sys.path[:] = saved
    assert bench_record.HERE == str(copy)
    monkeypatch.setattr(bench_record, "run", lambda *args: {
        "correct": True, "metrics": {"solve_s": {"value": 1.0},
                                     "trace.solve_s": {"value": 1.0}}})
    monkeypatch.setattr(bench_record, "environment", dict)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--out-dir", str(out)])
    assert bench_record.main() == 0
    [path] = out.glob("BENCH_*.json")
    assert path.name.endswith("_unknown.json")
    doc = json.loads(path.read_text())
    assert doc["revision"] == "unknown" and doc["changed_files"] == []
