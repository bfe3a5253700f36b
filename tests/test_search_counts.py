import importlib.util
import sys
from pathlib import Path

from ncdist import husimi

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "search_counts.py"
_spec = importlib.util.spec_from_file_location("search_counts", _TOOL)
search_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(search_counts)


def test_the_tool_prints_searches_rounds_and_evaluations_per_slot(capsys, monkeypatch):
    # main pins the BLAS threads and prepends the checkout's src and
    # perfbench to the path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    # one input of each slot: one cat/vacuum split, one interferometer and
    # one displaced number state search; the vacuum-number and diagonal
    # mixture reports search nothing
    monkeypatch.setattr(search_counts, "INPUTS_PER_SLOT", 1)
    evaluate = husimi._BargmannTarget.evaluate
    assert search_counts.main([]) == 0
    assert husimi._BargmannTarget.evaluate is evaluate
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["slot", "searches", "rounds", "evaluations"]
    rows = {name: tuple(map(int, counts)) for name, *counts in map(str.split, lines[1:])}
    slots = ["cat_vac", "interferometer", "displaced", "vacuum_number", "mixture"]
    assert list(rows) == slots + ["total"]
    for name in ("cat_vac", "interferometer", "displaced"):
        searches, rounds, evaluations = rows[name]
        # each search evaluates all its starts in its first round
        assert searches == 1 and 1 < rounds < evaluations
    assert rows["vacuum_number"] == rows["mixture"] == (0, 0, 0)
    assert rows["total"] == tuple(sum(rows[name][i] for name in slots) for i in range(3))
