"""In-memory span recorder wrapped around the public functions of ncdist.

Every layer function is replaced, on every module attribute and class that
binds it, by a wrapper that records a span (name, start, end, parent span,
op id) and a few work counters.  Spans are kept in a list and written out
only when the run ends.  Wrappers record nothing unless an op is active, so
input generation and output checks between ops leave no spans.

The parent of a span is the innermost open span of the process, not of the
thread.  That is exact here because the benchmark runs one client and the
figure sweeps with ``max_workers=1``: the thread that submits a row is
blocked while the worker thread computes it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# module -> functions, as named in src/ncdist; "Class.method" entries are
# patched on the class
LAYERS = {
    "cli": ("main",),
    "states": (
        "parse_state",
        "StateSpec.build",
        "ClassicalEnsemble.realize",
        "ClassicalEnsemble.realize_diag",
    ),
    "husimi": ("q_sup", "cat_qmax", "noon_qmax_analytic", "q_tilde"),
    "metrics": (
        "trace_distance",
        "trace_distance_pure_diag",
        "trace_distance_diag",
        "fidelity",
    ),
    "bounds": ("report", "upper_witness", "diag_classical_minimize"),
    "fock": ("passive_unitary", "displacement"),
    "channels": ("apply_affine",),
    "figures": ("fig1_rows", "fig2_rows"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# work counters read from the arguments or the result of a call
COUNTER_NAMES = (
    "husimi.q_sup.evals",
    "husimi.q_sup.unconverged",
    "metrics.trace_distance.dim3_sum",
    "metrics.trace_distance_pure_diag.support_sum",
    "states.realize.dim_sum",
    "fock.passive_unitary.dim_sum",
    "bounds.diag_classical_minimize.iterations",
)


# the argument each counter reads, by span name
_COUNTED_ARGS = {
    "metrics.trace_distance": "a",
    "metrics.trace_distance_pure_diag": "psi",
    "states.ClassicalEnsemble.realize": "trunc",
    "states.ClassicalEnsemble.realize_diag": "trunc",
    "fock.passive_unitary": "trunc",
}


def _count(counters: dict, name: str, arg, result) -> None:
    if name == "husimi.q_sup":
        counters["husimi.q_sup.evals"] += result.n_evaluations
        counters["husimi.q_sup.unconverged"] += int(not result.converged)
    elif name == "metrics.trace_distance":
        counters["metrics.trace_distance.dim3_sum"] += arg.dim ** 3
    elif name == "metrics.trace_distance_pure_diag":
        counters["metrics.trace_distance_pure_diag.support_sum"] += int((arg.flat != 0).sum())
    elif name.startswith("states.ClassicalEnsemble.realize"):
        counters["states.realize.dim_sum"] += arg.dim
    elif name == "fock.passive_unitary":
        counters["fock.passive_unitary.dim_sum"] += arg.dim
    elif name == "bounds.diag_classical_minimize":
        counters["bounds.diag_classical_minimize.iterations"] += result.witness["iterations"]


class Tracer:
    """Records spans of the layer calls made while an op is active."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        sig = inspect.signature(fn) if name in _COUNTED_ARGS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            span = {
                "name": name,
                "op": tracer.op_id,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "error": False,
            }
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            arg = sig.bind(*args, **kwargs).arguments[_COUNTED_ARGS[name]] if sig else None
            _count(tracer.counters, name, arg, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace each layer function wherever an ncdist module binds it."""
        homes = {mod: importlib.import_module(f"ncdist.{mod}") for mod in LAYERS}
        modules = [m for k, m in sys.modules.items() if k == "ncdist" or k.startswith("ncdist.")]
        for mod, fns in LAYERS.items():
            home = homes[mod]
            for fn in fns:
                name = f"{mod}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                orig = getattr(home, fn)
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer calls, self time and errors, plus the work counters."""
    selfs = self_times(tracer.spans)
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (0, "count")
        out[f"{name}.self_s"] = (0.0, "s")
        out[f"{name}.errors"] = (0, "count")
    for s, st in zip(tracer.spans, selfs):
        name = s["name"]
        out[f"{name}.calls"] = (out[f"{name}.calls"][0] + 1, "count")
        out[f"{name}.self_s"] = (out[f"{name}.self_s"][0] + st, "s")
        out[f"{name}.errors"] = (out[f"{name}.errors"][0] + int(s["error"]), "count")
    for name in COUNTER_NAMES:
        out[name] = (tracer.counters[name], "count")
    calls = out["husimi.q_sup.calls"][0]
    unconverged = tracer.counters["husimi.q_sup.unconverged"]
    # with no search run there is nothing unconverged
    out["husimi.q_sup.converged_ratio"] = ((calls - unconverged) / calls if calls else 1.0, "ratio")
    return out
