#!/usr/bin/env python3
"""End-to-end benchmark of ncdist, run from the root of a source checkout.

    python3 perfbench/run.py --workload families --seed 1 --seconds 35 --trace 0

One client runs ops in a closed loop: each op is one user waiting for one
bracket, and the next op starts when the previous one returns.  Ops are
drawn from the workload's seeded schedule (``workloads.py``) until
``--seconds`` have passed; every output is checked, and compared with the
output recorded for the same input at the seed commit (``reference.json``).

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics; its ``failed`` counts failed output checks and failures that the
seed commit did not have, while ``success_ratio`` counts every failure.
Op times are scaled to a reference CPU speed, sampled between ops with a
fixed kernel (``speed.py``); the wall-clock figures are printed beside
them.  A run goes on past ``--seconds`` until enough ops have succeeded for
the workload's fixed tail percentile to have 10 samples beyond it; a run
that cannot get there is marked incorrect.  With ``--trace 1`` the
first ops of the seeded schedule, a fixed number per workload, run with
spans recorded around the public functions of every ncdist module
(``tracer.py``), and then run again untraced; the last line reports
per-layer metrics over that fixed op list and the tracing overhead (traced
minus untraced time, at the reference speed).  The lines before it print
every metric by name with its unit, and the environment.  Results and spans
are also written under ``.perfbench/`` in the checkout.

The program is imported from ``src/``; there is nothing to build.  BLAS
threads are pinned before numpy loads.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

# BLAS threads for the benchmark process and its set-up probes: one client
# on a machine shared with other work gives steadier figures single-threaded
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150
MIN_TAIL_SAMPLES = 10
MAX_EXTRA_S = 90  # how far past --seconds a run may go to reach them
END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "success_ratio",
              "match_ratio", "peak_rss_mb", "setup_s")
TRACING_METRICS = ("tracing.overhead_s", "tracing.overhead_ratio")

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402  (stdlib only at import)
from speed import SpeedProbe, scales  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _import_ncdist():
    sys.path.insert(0, str(SRC))
    import ncdist

    if Path(ncdist.__file__).resolve().parent != SRC / "ncdist":
        raise SystemExit(f"error: imported ncdist from {ncdist.__file__}, not from {SRC}")
    return ncdist


def _setup_probe(workload: str, workdir: Path) -> int:
    """Child process: time importing ncdist plus one warm-up op."""
    t0 = time.perf_counter()
    _import_ncdist()
    _, _, failure = wl.execute(wl.WORKLOADS[workload].warmup, str(workdir))
    elapsed = time.perf_counter() - t0
    if failure is not None:
        print(f"error: warm-up op failed: {failure}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


def measure_setup(workload: str) -> list[float]:
    """Set-up times of fresh processes, as measured: the speed kernel does
    not track import work (``WORKLOADS.md``)."""
    samples = []
    for i in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--workdir", str(OUT_DIR / f"setup-{os.getpid()}-{i}")],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up probe exited {proc.returncode}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_text = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "figure_max_workers": 1,
        "clients": 1,
    }


def min_successes(pct: float) -> int:
    """Successful ops needed for MIN_TAIL_SAMPLES to lie beyond ``pct``."""
    return math.ceil(MIN_TAIL_SAMPLES / (1.0 - pct / 100.0) - 1e-9)


def run_ops(inputs, workdir, checker, refs, seconds=None, need_ok=0, tracer=None,
            probe=None) -> list[dict]:
    """Closed loop over ``inputs``.  With ``seconds``, stop once they have
    passed and ``need_ok`` ops have succeeded, or MAX_EXTRA_S later at most;
    without, run every input.  With ``probe``, each op's ``scale`` turns its
    wall time into a time at the reference speed (``speed.py``)."""
    records = []
    ok = 0
    start = time.perf_counter()
    kernel = [probe.sample()] if probe is not None else None
    for i, inp in enumerate(inputs):
        if seconds is not None:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (ok >= need_ok or elapsed >= seconds + MAX_EXTRA_S):
                break
        dt, values, failure = wl.execute(inp, str(workdir), tracer=tracer, op_id=i)
        rec = {"input": inp, "seconds": dt, "scale": 1.0, "values": values, "failure": failure,
               "problems": [], "drift": False, "reference": "missing", "as_at_seed": False}
        if probe is not None:
            kernel.append(probe.sample())
            rec["kernel_s"] = kernel[-1]
        if values is not None:
            rec["problems"] = checker(inp, values)
        ref = refs.get(wl.key(inp))
        if ref is not None:
            rec["reference"] = "value" if "values" in ref else "failed at seed"
            rec["drift"] = values is not None and "values" in ref and wl.drifted(values, ref)
            # the refusal recorded for this input at the seed commit, unchanged
            rec["as_at_seed"] = failure is not None and failure == ref.get("failure")
        ok += not (failure or rec["problems"])
        records.append(rec)
    if probe is not None:
        for rec, scale in zip(records, scales(kernel)):
            rec["scale"] = scale
    return records


def _percentile(xs: list[float], pct: float) -> float:
    xs = sorted(xs)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _timings(records: list[dict], tail_pct: float, key) -> tuple[float, float, float]:
    """ops_per_s, latency_p50_ms and latency_tail_ms with op times ``key(r)``."""
    ok = [key(r) for r in records if not (r["failure"] or r["problems"])]
    if not ok:
        raise SystemExit("error: no op succeeded")
    return (len(ok) / sum(map(key, records)), 1e3 * _percentile(ok, 50.0),
            1e3 * _percentile(ok, tail_pct))


def end_to_end(records: list[dict], tail_pct: float, setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the facts printed alongside them.  Op
    times are at the reference speed (each op's wall time times its
    ``scale``); their wall-clock figures are among the facts."""
    attempted = len(records)
    failed = [r for r in records if r["failure"] or r["problems"]]
    known = sum(r["as_at_seed"] for r in failed)
    ok = [r for r in records if not (r["failure"] or r["problems"])]
    drift = sum(r["drift"] for r in records)
    wall = sum(r["seconds"] for r in records)
    ops_per_s, p50, tail = _timings(records, tail_pct, lambda r: r["seconds"] * r["scale"])
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "success_ratio": (1.0 - len(failed) / attempted, "ratio"),
        "match_ratio": (1.0 - drift / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    wall_timings = _timings(records, tail_pct, lambda r: r["seconds"])
    facts = {
        "attempted": attempted,
        # ops with a wrong output or a failure the seed commit did not have;
        # the failures recorded at the seed commit count in fail_ratio only
        "failed": len(failed) - known,
        "failed_as_at_seed": known,
        "fail_ratio": len(failed) / attempted,
        "drift_ratio": drift / attempted,
        "drifted": drift,
        "tail_percentile": tail_pct,
        "latency_samples": len(ok),
        "enough_tail_samples": len(ok) >= min_successes(tail_pct),
        "ops_wall_s": wall,
        "speed_scale_median": statistics.median(r["scale"] for r in records),
        "wall_clock": dict(zip(("ops_per_s", "latency_p50_ms", "latency_tail_ms"), wall_timings)),
        "setup_samples_s": setup,
        "unreferenced_successes": sum(
            r["values"] is not None and r["reference"] != "value" for r in records),
        "failures": dict(collections.Counter(
            r["failure"].split(":")[0] if r["failure"] else "output check" for r in failed)),
    }
    return metrics, facts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "ncdist" / "__init__.py").is_file():
        print(f"error: no ncdist sources under {SRC}", file=sys.stderr)
        return 2
    for v in THREAD_VARS:
        os.environ[v] = str(BLAS_THREADS)

    workdir = Path(args.workdir) if args.workdir else OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            return _setup_probe(args.workload, workdir)
        return _bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(records: list[dict], workload, setup: list[float]):
    metrics, facts = end_to_end(records, workload.tail_pct, setup)
    print(f"{workload.name}: {facts['attempted']} ops in {facts['ops_wall_s']:.2f} s, "
          "one client, closed loop; times at the reference speed (median scale "
          f"{facts['speed_scale_median']:.4g})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("  wall clock: " + ", ".join(f"{k} = {v:.6g}" for k, v in facts["wall_clock"].items()))
    print(f"  fail_ratio = {facts['fail_ratio']:.6g} "
          f"({facts['failed'] + facts['failed_as_at_seed']}/{facts['attempted']}; "
          f"{facts['failures']}; {facts['failed_as_at_seed']} of them failed the same way "
          "at the seed commit)")
    print(f"  drift_ratio = {facts['drift_ratio']:.6g} ({facts['drifted']}/{facts['attempted']}; "
          f"{facts['unreferenced_successes']} successes without a reference value)")
    print(f"  latency_tail_ms is p{facts['tail_percentile']:g} of "
          f"{facts['latency_samples']} successful ops "
          f"({min_successes(workload.tail_pct)} needed)")
    return metrics, facts


def _traced(records: list[dict], replay: list[dict], tracer: Tracer):
    mismatched = sum((a["values"], a["failure"]) != (b["values"], b["failure"])
                     for a, b in zip(records, replay))
    # at the reference speed, so that a change of the host's speed between
    # the two passes does not read as tracing overhead
    traced_wall = sum(r["seconds"] * r["scale"] for r in records)
    untraced_wall = sum(r["seconds"] * r["scale"] for r in replay)
    metrics = layer_metrics(tracer)
    metrics["tracing.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["tracing.overhead_ratio"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    facts = {
        "attempted": len(records),
        "failed": sum(bool(r["failure"] or r["problems"]) and not r["as_at_seed"]
                      for r in records),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "outputs_differing_from_untraced": mismatched,
    }
    print(f"traced: {len(records)} ops, {len(tracer.spans)} spans, traced {traced_wall:.3f} s, "
          f"untraced {untraced_wall:.3f} s, outputs differing {mismatched}")
    total_self = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    for name, (value, unit) in metrics.items():
        if value or name.startswith("tracing."):
            share = (f"  ({100 * value / total_self:.1f}% of layer self time)"
                     if name.endswith(".self_s") else "")
            print(f"  {name} = {value:.6g} {unit}{share}")
    return metrics, facts


def _bench(args, workdir: Path) -> int:
    setup = measure_setup(args.workload)
    probe = SpeedProbe()
    _import_ncdist()
    workload = wl.WORKLOADS[args.workload]
    _, _, failure = wl.execute(workload.warmup, str(workdir))
    if failure is not None:
        print(f"error: warm-up op failed: {failure}", file=sys.stderr)
        return 1
    with open(REFERENCE, encoding="utf-8") as fh:
        refs = {wl.key(e["input"]): e for e in json.load(fh)["workloads"][args.workload]}
    checker = wl.Checker()
    inputs = wl.schedule(args.workload, args.seed)

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if not args.trace:
        records = run_ops(inputs, workdir, checker, refs, seconds=args.seconds,
                          need_ok=min_successes(workload.tail_pct), probe=probe)
        metrics, facts = _untraced(records, workload, setup)
        run_ok = facts["enough_tail_samples"]
        if not run_ok:
            print(f"error: {facts['latency_samples']} successful ops, "
                  f"{min_successes(workload.tail_pct)} needed for the tail", file=sys.stderr)
    else:
        # the same fixed op list at every commit, so that per-layer times
        # and counts compare; then the same ops untraced, for the overhead
        ops = list(itertools.islice(inputs, workload.traced_ops))
        tracer = Tracer()
        with tracer:
            records = run_ops(ops, workdir, checker, refs, tracer=tracer, probe=probe)
        replay = run_ops(ops, workdir, checker, refs, probe=probe)
        metrics, facts = _traced(records, replay, tracer)
        run_ok = facts["outputs_differing_from_untraced"] == 0
        with open(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(tracer.spans, fh)

    for r in records:
        for p in r["problems"]:
            print(f"  check failed: {wl.key(r['input'])}: {p}", file=sys.stderr)
        if r["reference"] == "missing":
            print(f"  no reference entry: {wl.key(r['input'])}", file=sys.stderr)
    correct = run_ok and not any(r["problems"] or r["reference"] == "missing" for r in records)
    env = environment()
    print(f"  environment: {json.dumps(env, sort_keys=True)}")

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct, "facts": facts,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "ops": [{"input": wl.key(r["input"]), "seconds": r["seconds"], "scale": r["scale"],
                 "kernel_s": r.get("kernel_s"), "failure": r["failure"],
                 "as_at_seed": r["as_at_seed"], "problems": r["problems"], "drift": r["drift"]}
                for r in records],
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
