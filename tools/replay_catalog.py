#!/usr/bin/env python3
"""Replay every benchmark catalog input and compare two replays.

    python3 tools/replay_catalog.py record OUT.json [CHECKOUT]
    python3 tools/replay_catalog.py diff BEFORE.json AFTER.json

``record`` runs every catalog input of the ``families``, ``cat-sweep`` and
``mixed-optics`` workloads once, through ``perfbench/workloads.prepare``
with one BLAS thread, and writes each output's values (or its failure) to
OUT.json.  CHECKOUT is the source tree whose ``src/`` and ``perfbench/``
are used (default: the one holding this script), so two commits can be
replayed from two checkouts.  Nothing under ``perfbench/`` is written.

``diff`` prints, per workload and output field, the largest absolute
difference between two replays, every input whose ``best_lower`` or
``best_upper`` moved by more than 1e-12 (both values, and whether the
bracket ``tightened``, a lower rising or an upper falling, or
``loosened``), every ``exact`` that is set in one and not in the other,
and every input whose failure changed.  It exits 1 when a
value moved by more than 1e-12 (a value that turned NaN, or an infinity
that changed sign, counts as moved) or anything flipped, else 0.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("families", "cat-sweep", "mixed-optics")
VALUE_TOL = 1e-12
# the bracket sides, each with the sign of a move that tightens it
BRACKET_SIDES = {"best_lower": 1.0, "best_upper": -1.0}


def record(out: Path, checkout: Path) -> int:
    for v in THREAD_VARS:
        os.environ[v] = "1"
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads as wl

    data: dict = {"checkout": str(checkout), "workloads": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for name in WORKLOADS:
            rows = []
            t0 = time.perf_counter()
            for inp in wl.catalog(name):
                row = {"input": wl.key(inp)}
                try:
                    row["values"] = wl.prepare(inp, workdir)()
                except Exception as err:  # a failed op is an output too
                    row["failure"] = f"{type(err).__name__}: {err}"
                rows.append(row)
            data["workloads"][name] = rows
            print(f"{name}: {len(rows)} inputs in {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr)
    out.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _by_input(path: Path) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    return {name: {r["input"]: r for r in rows} for name, rows in data["workloads"].items()}


def _moved(x: float, y: float) -> float:
    """How far a value moved: |x - y|, 0 for equal values (NaN on both
    sides included), and inf where the difference is no finite number
    (NaN on one side, or infinities of opposite sign)."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    d = abs(x - y)
    return d if math.isfinite(d) else math.inf


def diff(before: Path, after: Path) -> int:
    a, b = _by_input(before), _by_input(after)
    bad = False
    for name in WORKLOADS:
        ra, rb = a.get(name, {}), b.get(name, {})
        if ra.keys() != rb.keys():
            print(f"{name}: the two replays ran different inputs")
            bad = True
        worst: dict[str, float] = {}
        flips, failures, moves = [], [], []
        for k in sorted(ra.keys() & rb.keys()):
            va, vb = ra[k].get("values"), rb[k].get("values")
            if va is None or vb is None:
                if ra[k].get("failure") != rb[k].get("failure"):
                    failures.append((k, ra[k].get("failure"), rb[k].get("failure")))
                continue
            for field in sorted(va.keys() | vb.keys()):
                x, y = va.get(field), vb.get(field)
                if (x is None) != (y is None):
                    flips.append((k, field, x, y))
                elif x is not None:
                    moved = _moved(x, y)
                    worst[field] = max(worst.get(field, 0.0), moved)
                    if field in BRACKET_SIDES and moved > VALUE_TOL:
                        moves.append((k, field, x, y))
        print(f"{name}: {len(ra.keys() & rb.keys())} inputs in both")
        for field in sorted(worst):
            mark = "" if worst[field] <= VALUE_TOL else "  > 1e-12"
            print(f"  {field:18s} max |diff| {worst[field]:.3e}{mark}")
            bad |= worst[field] > VALUE_TOL
        for k, field, x, y in moves:
            how = "tightened" if BRACKET_SIDES[field] * (y - x) > 0 else "loosened"
            print(f"  {field} {x!r} -> {y!r} {how}: {k}")
        for k, field, x, y in flips:
            print(f"  {field} flipped {x} -> {y}: {k}")
        for k, x, y in failures:
            print(f"  failure changed {x!r} -> {y!r}: {k}")
        bad |= bool(flips or failures)
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) in (2, 3) and argv[0] == "record":
        here = Path(__file__).resolve().parent.parent
        return record(Path(argv[1]), Path(argv[2]).resolve() if len(argv) == 3 else here)
    if len(argv) == 3 and argv[0] == "diff":
        return diff(Path(argv[1]), Path(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
