"""Command-line parsing of the benchmark tools in ``tools/``."""

import importlib
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _bench_pairs():
    saved = list(sys.path)
    sys.path.insert(0, str(TOOLS))
    try:
        return importlib.import_module("bench_pairs")
    finally:
        sys.path[:] = saved


def test_seed_lists_and_ranges():
    parse = _bench_pairs().parse_seeds
    assert parse("3-5") == [3, 4, 5]
    assert parse("7") == [7]
    assert parse("1,9,4") == [1, 9, 4]


@pytest.mark.parametrize("seeds", ["10-1", "x", "", "1,,2", "1-2-3", "-4"])
def test_malformed_seeds_are_a_usage_error(seeds, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "a", "--change", "b",
                                      "--workload", "eh-bound", "--seeds", seeds])
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert exc.value.code == 2
    assert "no seeds in" in capsys.readouterr().err
