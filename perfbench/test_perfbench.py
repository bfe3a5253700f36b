"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

They check that tracing changes no output and misses no call, that each
layer shows up on the workload it dominates, that schedules depend on the
seed and only on it, and that every catalog input has a reference entry.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, SPAN_NAMES, Tracer, layer_metrics, self_times  # noqa: E402

run._import_ncdist()


def _cheapest_per_slot(workload: str) -> list[dict]:
    return [s.entries[0] for s in wl.WORKLOADS[workload].slots]


@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path)


def _traced(inputs, workdir):
    tracer = Tracer()
    with tracer:
        out = [wl.execute(inp, workdir, tracer=tracer, op_id=i)[1:] for i, inp in enumerate(inputs)]
    return out, layer_metrics(tracer)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_traced_outputs_equal_untraced(workload, workdir):
    inputs = _cheapest_per_slot(workload)
    plain = [wl.execute(inp, workdir)[1:] for inp in inputs]
    traced, _ = _traced(inputs, workdir)
    assert traced == plain


def test_install_replaces_every_binding_and_uninstall_restores():
    import ncdist
    import ncdist.cli  # noqa: F401

    mods = [m for k, m in sys.modules.items() if k == "ncdist" or k.startswith("ncdist.")]
    originals = {}
    for mod, fns in LAYERS.items():
        home = sys.modules[f"ncdist.{mod}"]
        for fn in fns:
            owner, attr = (getattr(home, fn.split(".")[0]), fn.split(".")[1]) if "." in fn else (home, fn)
            originals[f"{mod}.{fn}"] = vars(owner)[attr]
    tracer = Tracer()
    with tracer:
        for name, orig in originals.items():
            for m in mods:
                stale = [a for a, v in vars(m).items() if v is orig]
                assert not stale, f"{m.__name__}.{stale} still binds the unwrapped {name}"
        assert ncdist.bounds.q_sup is ncdist.husimi.q_sup is not originals["husimi.q_sup"]
    assert ncdist.bounds.q_sup is originals["husimi.q_sup"]
    assert vars(ncdist.StateSpec)["build"] is originals["states.StateSpec.build"]


def test_layers_show_where_they_dominate(workdir):
    _, fam = _traced(_cheapest_per_slot("families"), workdir)
    assert fam["husimi.q_sup.calls"][0] == 0
    for name in ("cli.main", "states.parse_state", "states.StateSpec.build",
                 "metrics.trace_distance", "metrics.trace_distance_pure_diag", "bounds.report"):
        assert fam[f"{name}.calls"][0] > 0, name
    assert fam["metrics.trace_distance.dim3_sum"][0] > 0

    _, cat = _traced(_cheapest_per_slot("cat-sweep"), workdir)
    for name in ("figures.fig1_rows", "figures.fig2_rows", "husimi.q_sup", "bounds.upper_witness"):
        assert cat[f"{name}.calls"][0] > 0, name
    assert cat["fock.passive_unitary.calls"][0] == 0
    assert cat["bounds.diag_classical_minimize.calls"][0] == 0
    assert cat["husimi.q_sup.evals"][0] > 0

    _, mixed = _traced(_cheapest_per_slot("mixed-optics"), workdir)
    for name in ("fock.passive_unitary", "fock.displacement", "channels.apply_affine",
                 "husimi.q_sup", "bounds.diag_classical_minimize"):
        assert mixed[f"{name}.calls"][0] > 0, name
        assert mixed[f"{name}.self_s"][0] > 0, name
    assert mixed["fock.passive_unitary.dim_sum"][0] > 0
    assert mixed["bounds.diag_classical_minimize.iterations"][0] > 0


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_schedule_depends_on_the_seed_only(workload):
    def first(seed):
        return [wl.key(x) for x in itertools.islice(wl.schedule(workload, seed), 60)]

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_every_catalog_input_has_a_reference():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"]
    for workload in wl.WORKLOADS:
        keys = {wl.key(e["input"]) for e in ref[workload]}
        missing = [k for k in map(wl.key, wl.catalog(workload)) if k not in keys]
        assert not missing, f"{workload}: {len(missing)} inputs without reference, e.g. {missing[0]}"


def test_tail_percentile_is_fixed_and_short_runs_are_flagged():
    assert [run.min_successes(p) for p in (75.0, 85.0, 90.0)] == [40, 67, 100]
    ops = [{"seconds": 0.001 * (i + 1), "failure": None, "problems": [], "drift": False,
            "values": {}, "reference": "value", "as_at_seed": False, "scale": 1.0}
           for i in range(41)]
    metrics, facts = run.end_to_end(ops, 75.0, [1.0])
    assert facts["tail_percentile"] == 75.0 and facts["enough_tail_samples"]
    assert metrics["latency_tail_ms"][0] == pytest.approx(31.0)
    _, facts = run.end_to_end(ops[:39], 75.0, [1.0])
    assert facts["tail_percentile"] == 75.0 and not facts["enough_tail_samples"]


def test_only_failures_new_since_the_seed_commit_count_as_failed(monkeypatch):
    inputs = [{"op": "cli_report", "state": {"kind": "number", "ns": [k]}} for k in range(4)]
    refs = {wl.key(inputs[0]): {"failure": "exit 3"}, wl.key(inputs[1]): {"failure": "exit 4"},
            wl.key(inputs[2]): {"values": {}, "tol": {}}, wl.key(inputs[3]): {"values": {}, "tol": {}}}
    outcomes = iter([(0.1, None, "exit 3"), (0.1, None, "exit 3"), (0.1, None, "exit 4"),
                     (0.1, {}, None)])
    monkeypatch.setattr(wl, "execute", lambda inp, workdir, tracer=None, op_id=0: next(outcomes))
    records = run.run_ops(inputs, ".", lambda inp, values: [], refs)
    assert [r["as_at_seed"] for r in records] == [True, False, False, False]
    metrics, facts = run.end_to_end(records, 50.0, [1.0])
    assert facts["failed"] == 2 and facts["failed_as_at_seed"] == 1
    assert metrics["success_ratio"][0] == pytest.approx(0.25)


def test_speed_scale_is_the_windowed_median_of_kernel_samples():
    nominal = speed.NOMINAL_S
    samples = [nominal] * 5 + [2 * nominal] * 5 + [nominal / 3]
    got = speed.scales(samples, half_width=2)
    assert len(got) == len(samples) - 1
    assert got[0] == pytest.approx(1.0) and got[6] == pytest.approx(0.5)
    assert got[4] == pytest.approx(1.0 / 1.5)  # median of two slow and two fast samples


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "c", "parent": 1, "start": 2.0, "end": 3.0},
        {"name": "d", "parent": 0, "start": 6.0, "end": 7.5},
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_benchmark_json_lists_the_emitted_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = set(layer_metrics(Tracer())) | set(run.TRACING_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {f"{n}.{s}" for n in SPAN_NAMES for s in ("calls", "self_s", "errors")} <= per_layer
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
