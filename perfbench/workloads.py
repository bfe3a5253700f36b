"""Workload catalogs, seeded schedules, op execution and output checks.

Each workload is a list of slots.  A slot is a fixed, finite catalog of
inputs of one family, sorted by what drives its cost and cut into
contiguous strata.  Round after round, each slot gives one input (or
``per_round``): strata are visited dearest first and then in a
low-discrepancy order, and the seed draws the input inside each stratum
and the order of each round.  Every prefix of a run therefore covers each
slot's cost range evenly, which keeps the mix, and the figures, steady
from seed to seed.  The catalogs are finite so that every input a seed can
draw has a reference output recorded at the seed commit
(``reference.json``).

Inputs are plain JSON objects; the program sees only what ``prepare``
builds from them.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

# Value tolerances for drift against the seed-commit outputs: report values,
# and values that come out of the multistart Husimi search.
REPORT_TOL = 1e-12
SEARCH_TOL = 1e-9

ORDER_SLACK = 1e-8  # best_lower may exceed best_upper by this much
EXACT_SLACK = 1e-9  # an exact value lies this close to both bounds
CLOSED_FORM_TOL = 1e-10
CLASSICAL_TOL = 1e-12
CAT_QMAX_TOL = 1e-7


STRATA = 32  # strata per slot (fewer when the catalog is smaller)


@dataclass(frozen=True)
class Slot:
    name: str
    entries: tuple  # catalog inputs, sorted by what drives their cost
    per_round: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple
    warmup: dict  # fixed input run once before timing; also the set-up op
    tail_pct: float  # latency percentile reported as latency_tail_ms
    traced_ops: int  # length of the schedule prefix a traced run measures


def _c(z: complex) -> list:
    return [round(z.real, 6), round(z.imag, 6)]


def _unit_vector(rng: random.Random, m: int) -> list:
    """Random complex unit vector in [re, im] pairs, normalized after rounding."""
    zs = [complex(round(rng.gauss(0, 1), 4), round(rng.gauss(0, 1), 4)) for _ in range(m)]
    nrm = math.sqrt(sum(abs(z) ** 2 for z in zs))
    return [[z.real / nrm, z.imag / nrm] for z in zs]


def _dense_dim(amplitudes) -> int:
    """Dense dimension of a witness distance at these mode amplitudes, with
    the program's default cutoff a^2 + 8a + 20; sorts inputs by cost."""
    return math.prod(math.ceil(a * a + 8 * a + 20) + 1 for a in amplitudes)


def _report(state: dict) -> dict:
    return {"op": "cli_report", "state": state}


def _families() -> Workload:
    rng = random.Random("ncdist-families-catalog")
    slots = []
    for m in range(1, 7):
        if m <= 3:
            tuples = [tuple((k // 4**i) % 4 for i in range(m)) for k in range(4**m)]
        else:
            seen: set = set()
            while len(seen) < 48:
                seen.add(tuple(rng.randrange(4) for _ in range(m)))
            tuples = sorted(seen)
        tuples.sort(key=lambda ns: (sum(ns), ns))
        entries = tuple(_report({"kind": "number", "ns": list(ns)}) for ns in tuples)
        slots.append(Slot(f"number{m}", entries))

    photon = [(m, _unit_vector(rng, m)) for m in (1, 2, 3, 4) for _ in range(8)]
    slots.append(Slot("single_photon", tuple(
        _report({"kind": "single_photon", "c": c}) for _, c in photon)))
    # half of the N00N states have equal weights on every mode, where the
    # Q lower bound is the distance; the rest have random weights
    noon = [(n, m, _unit_vector(rng, m)) for n in (2, 3) for m in (2, 3, 4) for _ in range(3)]
    noon += [(n, m, [[math.cos(t := rng.uniform(0, 2 * math.pi)) / math.sqrt(m),
                      math.sin(t) / math.sqrt(m)] for _ in range(m)])
             for n in (2, 3) for m in (2, 3, 4) for _ in range(3)]
    noon.sort(key=lambda t: (t[0], t[1]))
    slots.append(Slot("noon", tuple(
        _report({"kind": "noon", "n": n, "c": c}) for n, _, c in noon)))

    betas = [round(0.05 + 0.025 * k, 3) for k in range(159)]  # [0.05, 4]
    for parity in ("even", "odd"):
        slots.append(Slot(f"cat_{parity}", tuple(
            _report({"kind": "cat", "parity": parity, "beta": b}) for b in betas)))

    grid = [(p, round(0.1 * k, 1), eta) for p in ("even", "odd")
            for k in range(2, 26) for eta in (0.1, 0.3, 0.5, 0.7, 0.9)]
    ec = sorted(rng.sample(grid, 64), key=lambda t: _dense_dim(
        (t[1] * math.sqrt(t[2]), t[1] * math.sqrt(1 - t[2]))))
    slots.append(Slot("entangled_coherent", tuple(
        _report({"kind": "entangled_coherent", "parity": p, "beta": b, "eta": eta})
        for p, b, eta in ec)))

    coherent = []
    for m in (1, 2):
        for _ in range(24):
            alpha = [complex(round(rng.uniform(0, 1.7), 4), 0) * complex(
                math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t)) for _ in range(m)]
            coherent.append((_dense_dim([abs(a) for a in alpha]), [_c(a) for a in alpha]))
    coherent.sort(key=lambda t: t[0])
    slots.append(Slot("coherent", tuple(
        _report({"kind": "coherent", "alpha": a}) for _, a in coherent)))

    energies = sorted(round(rng.uniform(0.01, 9.0), 4) for _ in range(32))
    slots.append(Slot("phase_randomized", tuple(
        _report({"kind": "phase_randomized", "energy": e}) for e in energies)))
    return Workload("families", tuple(slots), _report({"kind": "number", "ns": [1, 1]}),
                    95.0, 104)


def _cat_sweep() -> Workload:
    fig1 = tuple({"op": "fig_row", "fig": "fig1", "beta": round(0.05 + 0.02 * k, 3)}
                 for k in range(148))  # fig1 grid range [0.05, 3]
    fig2 = tuple({"op": "fig_row", "fig": "fig2", "beta": b}
                 for b in [0.001] + [round(0.02 * k, 3) for k in range(1, 151)])  # [0.001, 3]
    return Workload(
        "cat-sweep",
        (Slot("fig1", fig1), Slot("fig2", fig2)),
        {"op": "fig_row", "fig": "fig1", "beta": 1.0},
        90.0,
        100,
    )


def _mixed_optics() -> Workload:
    rng = random.Random("ncdist-mixed-optics-catalog")
    cat_vac = []
    for cutoff in (20, 23, 26, 29, 32, 35):
        for _ in range(6):
            cat_vac.append({
                "op": "cat_vac",
                "parity": rng.choice(("even", "odd")),
                "beta": round(rng.uniform(0.4, 1.5 + 0.05 * (cutoff - 20)), 3),
                "eta": round(rng.uniform(0.1, 0.9), 3),
                "cutoff": cutoff,
            })

    interferometer = []
    for m in (2, 3):
        for _ in range(12):
            ns = [rng.randrange(3) for _ in range(m)]
            ns[rng.randrange(m)] += 1
            pairs = [(0, 1)] if m == 2 else [(0, 1), (1, 2), (0, 1)]
            angles = [[i, j, round(rng.uniform(0, math.pi / 2), 4),
                       round(rng.uniform(0, 2 * math.pi), 4)] for i, j in pairs]
            interferometer.append({"op": "interferometer", "ns": ns, "angles": angles})

    displaced = []
    for n in (1, 2, 3):
        for _ in range(12):
            g = rng.uniform(0.2, 1.2) * complex(math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t))
            displaced.append({"op": "displaced", "n": n, "gamma": _c(g), "cutoff": 24 + 2 * n})

    vacuum_number = tuple(
        _report({"kind": "vacuum_number_mixture", "n": n, "eta": round(0.05 + 0.1 * k, 2)})
        for n in (1, 2, 3, 4) for k in range(10))

    mixtures = []
    for _ in range(12):  # diagonal: number states on one mode
        ns = rng.sample(range(4), rng.choice((2, 3)))
        ws = [round(rng.uniform(0.1, 1.0), 3) for _ in ns]
        ws = [w / sum(ws) for w in ws]
        mixtures.append(_report({"kind": "mixture", "terms": [
            {"w": w, "state": {"kind": "number", "ns": [n]}} for w, n in zip(ws, ns)]}))
    for _ in range(12):  # off-diagonal: a number state and a coherent state
        w = round(rng.uniform(0.2, 0.8), 3)
        a = rng.uniform(0.3, 1.5) * complex(math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t))
        mixtures.append(_report({"kind": "mixture", "terms": [
            {"w": w, "state": {"kind": "number", "ns": [rng.randrange(1, 4)]}},
            {"w": 1.0 - w, "state": {"kind": "coherent", "alpha": [_c(a)]}}]}))

    return Workload(
        "mixed-optics",
        (
            Slot("cat_vac", tuple(cat_vac)),
            Slot("interferometer", tuple(interferometer)),
            Slot("displaced", tuple(displaced), per_round=2),
            Slot("vacuum_number", vacuum_number, per_round=3),
            Slot("mixture", tuple(mixtures), per_round=3),
        ),
        {"op": "displaced", "n": 1, "gamma": [0.5, 0.0], "cutoff": 26},
        75.0,
        30,
    )


WORKLOADS = {w.name: w for w in (_families(), _cat_sweep(), _mixed_optics())}


def key(inp: dict) -> str:
    """Canonical text of an input, the key of its reference output."""
    return json.dumps(inp, sort_keys=True, separators=(",", ":"))


def _radical_inverse(i: int) -> float:
    """Van der Corput radical inverse of i in base 2: 0, 1/2, 1/4, 3/4, ..."""
    x, f = 0.0, 0.5
    while i:
        x += f * (i & 1)
        i >>= 1
        f /= 2
    return x


class _StrataPicker:
    """Draws one slot input per call.  The strata are visited dearest first,
    then in van der Corput order, so that any first n draws spread evenly
    over the slot's cost range and every run includes its dearest inputs;
    the input inside each stratum is drawn at random."""

    def __init__(self, slot: Slot, rng: random.Random):
        n = len(slot.entries)
        k = min(STRATA, n)
        self.strata = [slot.entries[i * n // k:(i + 1) * n // k] for i in range(k)]
        self.rng = rng
        self.draws = 0

    def next(self) -> dict:
        k = len(self.strata)
        stratum = k - 1 - int(_radical_inverse(self.draws % k) * k)
        self.draws += 1
        return self.rng.choice(self.strata[stratum])


def schedule(workload: str, seed: int):
    """Endless, seed-determined sequence of inputs for one workload."""
    rng = random.Random(f"{workload}:{seed}")
    slots = WORKLOADS[workload].slots
    pickers = [_StrataPicker(s, rng) for s in slots]
    while True:
        batch = [p.next() for p, s in zip(pickers, slots) for _ in range(s.per_round)]
        rng.shuffle(batch)
        yield from batch


def catalog(workload: str) -> list[dict]:
    return [e for s in WORKLOADS[workload].slots for e in s.entries]


# ---------------------------------------------------------------------------
# executing one op


class OpFailed(Exception):
    """The command-line op exited non-zero."""


def _interferometer_matrix(m: int, angles) -> "np.ndarray":
    import numpy as np

    u = np.eye(m, dtype=np.complex128)
    for i, j, theta, phi in angles:
        t = np.eye(m, dtype=np.complex128)
        t[i, i] = np.exp(1j * phi) * math.cos(theta)
        t[i, j] = -math.sin(theta)
        t[j, i] = np.exp(1j * phi) * math.sin(theta)
        t[j, j] = math.cos(theta)
        u = t @ u
    return u


def _report_values(d: dict) -> dict:
    return {k: d[k] for k in ("best_lower", "best_upper", "exact")}


def prepare(inp: dict, workdir: str):
    """Build the op's inputs and return a zero-argument callable that runs
    the op (the timed part) and returns its output values."""
    import numpy as np
    from ncdist import channels, cli, figures, fock, states, bounds

    op = inp["op"]
    if op == "cli_report":
        src = os.path.join(workdir, "state.json")
        out = os.path.join(workdir, "report.json")
        with open(src, "w", encoding="utf-8") as fh:
            json.dump(inp["state"], fh)
        if os.path.exists(out):
            os.remove(out)

        def run():
            code = cli.main(["report", src, "--out", out])
            if code != 0:
                raise OpFailed(f"exit {code}")
            with open(out, encoding="utf-8") as fh:
                return _report_values(json.load(fh))

        return run

    if op == "fig_row":
        name = f"{inp['fig']}_rows"
        cols = figures.FIG1_COLUMNS if inp["fig"] == "fig1" else figures.FIG2_COLUMNS

        def run():
            # one worker: the default pool is slower on a two-core machine
            row = getattr(figures, name)([inp["beta"]], max_workers=1)[0]
            return dict(zip(cols, (float(v) for v in row)))

        return run

    if op == "cat_vac":
        tr = fock.TruncationSpec((inp["cutoff"],))
        state = fock.tensor(
            states.cat_vector(states.CatParams(inp["parity"], inp["beta"]), tr),
            fock.number_basis_vector((0,), tr),
        )
        channel = channels.AffineOptics(fock.beam_splitter(inp["eta"]), np.zeros(2))
    elif op == "interferometer":
        m, total = len(inp["ns"]), sum(inp["ns"])
        state = fock.number_basis_vector(inp["ns"], fock.TruncationSpec((total,) * m))
        channel = channels.AffineOptics(_interferometer_matrix(m, inp["angles"]), np.zeros(m))
    elif op == "displaced":
        state = fock.number_basis_vector((inp["n"],), fock.TruncationSpec((inp["cutoff"],)))
        channel = channels.AffineOptics(np.eye(1), np.array([complex(*inp["gamma"])]))
    else:
        raise ValueError(f"unknown op {op!r}")

    def run():
        image = channels.apply_affine(channel, state)
        return _report_values(bounds.report(image).to_dict())

    return run


def execute(inp: dict, workdir: str, tracer=None, op_id: int = 0):
    """Run one op; returns (seconds, values, failure text or None).

    Only the op itself is timed, and only it is traced: building its inputs
    and checking its output are not.
    """
    import time

    run = prepare(inp, workdir)
    if tracer is not None:
        tracer.op_id = op_id
    t0 = time.perf_counter()
    try:
        values = run()
        failure = None
    except OpFailed as err:
        values, failure = None, str(err)
    except Exception as err:  # every other exception is a failed op too
        values, failure = None, f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.op_id = None
    return elapsed, values, failure


# ---------------------------------------------------------------------------
# output checks


# closed forms are computed here, independently of the program under test
def _gamma(n: int) -> float:
    """Husimi peak of the number state |n>: e^-n n^n / n!."""
    return math.exp(-n) * n**n / math.factorial(n) if n else 1.0


def _product_value(ns) -> float:
    return 1.0 - math.prod(_gamma(n) for n in ns)


class Checker:
    """Checks one op's output; brackets of reference cats are cached."""

    def __init__(self):
        self._cat_brackets: dict = {}

    def _cat_bracket(self, parity: str, beta: float) -> tuple[float, float]:
        k = (parity, beta)
        if k not in self._cat_brackets:
            from ncdist import StateSpec, report

            rep = report(StateSpec("cat", {"parity": parity, "beta": beta}))
            self._cat_brackets[k] = (rep.best_lower, rep.best_upper)
        return self._cat_brackets[k]

    def __call__(self, inp: dict, v: dict) -> list[str]:
        if inp["op"] == "fig_row":
            return self._fig_row(inp, v)
        problems = []
        lo, hi, exact = v["best_lower"], v["best_upper"], v["exact"]
        if not lo <= hi + ORDER_SLACK:
            problems.append(f"best_lower {lo} above best_upper {hi}")
        if exact is not None and max(abs(exact - lo), abs(exact - hi)) > EXACT_SLACK:
            problems.append(f"exact {exact} not within {EXACT_SLACK} of [{lo}, {hi}]")

        # closed forms: the distance, or for unequal N00N weights only the
        # Q lower bound, which the upper bound must then not undercut
        closed = None
        upper_is_closed = True
        state = inp.get("state", {})
        kind = state.get("kind")
        if kind == "number":
            closed = _product_value(state["ns"])
        elif kind == "single_photon":
            closed = 1.0 - math.exp(-1.0)
        elif kind == "noon":
            weights = [a * a + b * b for a, b in state["c"]]
            closed = 1.0 - _gamma(state["n"]) * max(weights)
            upper_is_closed = max(weights) - min(weights) <= 1e-12
        if closed is not None:
            if abs(lo - closed) > CLOSED_FORM_TOL:
                problems.append(f"best_lower {lo} differs from closed form {closed}")
            if upper_is_closed and abs(hi - closed) > CLOSED_FORM_TOL:
                problems.append(f"best_upper {hi} differs from closed form {closed}")
            if hi < closed - CLOSED_FORM_TOL:
                problems.append(f"best_upper {hi} below the Q lower bound {closed}")
        if kind in ("coherent", "phase_randomized") and hi > CLASSICAL_TOL:
            problems.append(f"classical state has best_upper {hi}")

        # bracket containment and overlap: [lo, hi] must meet [a, b]
        target = None
        if inp["op"] in ("interferometer", "displaced"):
            d = _product_value(inp["ns"] if "ns" in inp else [inp["n"]])
            target = (d, d)
        elif inp["op"] == "cat_vac":
            target = self._cat_bracket(inp["parity"], inp["beta"])
        elif kind == "vacuum_number_mixture":
            eta, g = state["eta"], _gamma(state["n"])
            target = (max(0.0, eta - g), eta * (1.0 - g))
        elif kind == "mixture":
            convex = sum(
                t["w"] * (_product_value(t["state"]["ns"]) if t["state"]["kind"] == "number" else 0.0)
                for t in state["terms"]
            )
            if hi > convex + ORDER_SLACK:
                problems.append(f"best_upper {hi} above the convex combination {convex}")
        if target is not None and (lo > target[1] + ORDER_SLACK or target[0] > hi + ORDER_SLACK):
            problems.append(f"bracket [{lo}, {hi}] misses [{target[0]}, {target[1]}]")
        return problems

    def _fig_row(self, inp: dict, v: dict) -> list[str]:
        from ncdist import CatParams, cat_qmax

        parity = "even" if inp["fig"] == "fig1" else "odd"
        want = 1.0 - cat_qmax(CatParams(parity, inp["beta"])).value
        problems = []
        if abs(v["lb_q"] - want) > CAT_QMAX_TOL:
            problems.append(f"lb_q {v['lb_q']} differs from 1 - cat_qmax = {want}")
        uppers = [x for k, x in v.items() if k not in ("beta", "alpha_star", "lb_q")]
        if v["lb_q"] > min(uppers) + ORDER_SLACK:
            problems.append(f"lb_q {v['lb_q']} above the upper columns {uppers}")
        return problems


def drifted(values: dict, ref: dict) -> bool:
    """Whether an output differs from its seed-commit reference."""
    for name, r in ref["values"].items():
        x = values.get(name)
        if (x is None) != (r is None):
            return True
        if r is not None and abs(x - r) > ref["tol"].get(name, REPORT_TOL):
            return True
    return False
