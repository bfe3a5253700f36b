import importlib.util
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "standing_misses.py"
_spec = importlib.util.spec_from_file_location("standing_misses", _TOOL)
standing_misses = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(standing_misses)


def test_the_tool_prints_a_miss_count_per_seed_and_their_mean(capsys, monkeypatch):
    # main pins the BLAS threads and prepends the checkout's src to the path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(standing_misses, "DRAWS", 3)
    assert standing_misses.main(["1729", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["seed 1729", "seed 3"]
    assert all("missed [" in line and "with hint" in line for line in lines[:2])
    assert lines[2].startswith("mean over 2 seeds: ")
