#!/usr/bin/env python3
"""Record the reference output of every catalog input into reference.json.

    python3 perfbench/record_reference.py [workload ...]

Run this only at the commit whose outputs are the reference; the benchmark
counts an op as drifted when its output leaves the recorded value by more
than the recorded tolerance.  Inputs that fail keep their failure and get
no value.  Each report value gets the report tolerance (1e-12), or the
multistart tolerance (1e-9) when the Husimi search ran for that input;
figure columns that derive from the search get 1e-9.  Named workloads are
re-recorded; the others are kept as they are.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run  # the benchmark's paths, thread settings and ncdist import
import workloads as wl
from tracer import Tracer

EXACT_COLUMNS = ("beta", "d_sigma_beta")  # figure columns not fed by the search


def record(workload: str, workdir: Path) -> list[dict]:
    entries = []
    tracer = Tracer()
    with tracer:
        for i, inp in enumerate(wl.catalog(workload)):
            before = len(tracer.spans)
            dt, values, failure = wl.execute(inp, str(workdir), tracer=tracer, op_id=i)
            entry = {"input": inp, "seconds": round(dt, 4)}
            if values is None:
                entry["failure"] = failure
            else:
                searched = any(s["name"] == "husimi.q_sup" for s in tracer.spans[before:])
                entry["values"] = values
                entry["tol"] = {
                    name: wl.REPORT_TOL if (name in EXACT_COLUMNS or (
                        inp["op"] != "fig_row" and not searched)) else wl.SEARCH_TOL
                    for name in values
                }
            entries.append(entry)
            print(f"{workload} {len(entries)} {dt:.3f}s {failure or ''}", file=sys.stderr)
    return entries


def main(argv: list[str]) -> int:
    names = argv or sorted(wl.WORKLOADS)
    for v in run.THREAD_VARS:
        os.environ[v] = str(run.BLAS_THREADS)
    run._import_ncdist()
    data = {"workloads": {}}
    if run.REFERENCE.exists():
        with open(run.REFERENCE, encoding="utf-8") as fh:
            data = json.load(fh)
    workdir = run.OUT_DIR / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        recorded = {name: record(name, workdir) for name in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=run.ROOT).stdout.strip() or "unknown"
    # re-read so that recorders of different workloads may run side by side
    if run.REFERENCE.exists():
        with open(run.REFERENCE, encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault("workloads", {}).update(recorded)
    data.setdefault("recorded_at", {}).update(
        {name: {"commit": commit, "date": time.strftime("%Y-%m-%d")} for name in names})
    data["tolerances"] = {"report": wl.REPORT_TOL, "search": wl.SEARCH_TOL}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
