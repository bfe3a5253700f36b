import importlib.util
import json
import math
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay_catalog.py"
_spec = importlib.util.spec_from_file_location("replay_catalog", _TOOL)
replay_catalog = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay_catalog)

_ROWS = [
    {"input": "a", "values": {"best_lower": 0.25, "best_upper": 0.5, "exact": None}},
    {"input": "b", "values": {"best_lower": 0.1, "best_upper": 0.1, "exact": 0.1}},
    {"input": "c", "failure": "TruncationTooSmall: tail"},
]


def _replay(tmp_path, name, rows):
    path = tmp_path / name
    data = {"workloads": {"families": rows, "cat-sweep": [], "mixed-optics": []}}
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _changed(row, **values):
    return {"input": row["input"], "values": {**row["values"], **values}}


@pytest.mark.parametrize(
    "after, code",
    [
        (_ROWS, 0),
        ([_changed(_ROWS[0], best_lower=0.25 + 5e-13)] + _ROWS[1:], 0),
        ([_changed(_ROWS[0], best_lower=0.25 + 2e-12)] + _ROWS[1:], 1),
        ([_changed(_ROWS[0], best_lower=math.nan)] + _ROWS[1:], 1),
        ([_changed(_ROWS[0], exact=0.3)] + _ROWS[1:], 1),
        (_ROWS[:2] + [{"input": "c", "failure": "NumericalInconsistency: LP"}], 1),
    ],
    ids=["identical", "within-tolerance", "moved", "turned-nan", "exact-flip", "failure-changed"],
)
def test_diff_counts_every_move(tmp_path, after, code):
    before = _replay(tmp_path, "before.json", _ROWS)
    assert replay_catalog.diff(before, _replay(tmp_path, "after.json", after)) == code


def test_moved_reads_nan_and_opposite_infinities_as_moves():
    assert replay_catalog._moved(math.nan, math.nan) == 0.0
    assert replay_catalog._moved(math.inf, math.inf) == 0.0
    assert replay_catalog._moved(math.inf, -math.inf) == math.inf
    assert replay_catalog._moved(0.25, math.nan) == math.inf


def test_diff_names_each_bracket_move_and_its_direction(tmp_path, capsys):
    after = [
        _changed(_ROWS[0], best_lower=0.3, best_upper=0.75),
        _changed(_ROWS[1], best_upper=0.1 - 1e-3, exact=0.1 + 5e-13),
        _ROWS[2],
    ]
    before = _replay(tmp_path, "before.json", _ROWS)
    assert replay_catalog.diff(before, _replay(tmp_path, "after.json", after)) == 1
    lines = [ln.strip() for ln in capsys.readouterr().out.splitlines() if "->" in ln]
    assert lines == [
        "best_lower 0.25 -> 0.3 tightened: a",
        "best_upper 0.5 -> 0.75 loosened: a",
        "best_upper 0.1 -> 0.099 tightened: b",
    ]


def test_diff_names_no_move_within_tolerance(tmp_path, capsys):
    after = [_changed(_ROWS[0], best_lower=0.25 + 5e-13)] + _ROWS[1:]
    before = _replay(tmp_path, "before.json", _ROWS)
    assert replay_catalog.diff(before, _replay(tmp_path, "after.json", after)) == 0
    assert "->" not in capsys.readouterr().out
