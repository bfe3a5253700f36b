"""Acceptance corpus: named checks shared by the CLI and the test suite.

Every check returns a list of :class:`CheckLine` rows carrying the
expected value, the computed value, and the tolerance, so both the
``verify`` subcommand and the acceptance tests render identical evidence.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .bounds import diag_classical_minimize, report
from .channels import AffineOptics, adjoin, apply_affine, dephase_number
from .figures import compute_rows, default_grid, write_figure
from .fock import (
    DEFAULT_TAIL_TOL,
    DensityMatrix,
    FockVector,
    TruncationSpec,
    beam_splitter,
    mean_total_energy,
    minimal_cutoff_for_tail,
    number_basis_vector,
    outer,
    tensor,
)
from .husimi import _bisect, cat_qmax, gamma_n, noon_qmax_analytic, q_sup
from .metrics import fuchs_vdg_check, helstrom_saturation, trace_distance
from .states import (
    CatParams,
    StateSpec,
    phase_ring,
    two_point_mixture,
    uniform_axis_rings,
    vacuum_number_diag,
)

CORPUS_SEED = 20260816


@dataclass
class CheckLine:
    label: str
    expected: str
    computed: str
    tol: str
    ok: bool


def _value(label, computed, expected, atol) -> CheckLine:
    return CheckLine(
        label,
        "%.12g" % expected,
        "%.12g" % computed,
        "%.1e" % atol,
        bool(abs(computed - expected) <= atol),
    )


def _at_most(label, computed, limit, slack=0.0) -> CheckLine:
    return CheckLine(
        label,
        "<= %.12g" % limit,
        "%.12g" % computed,
        "%.1e" % slack if slack else "exact",
        bool(computed <= limit + slack),
    )


def _flag(label, ok, detail="") -> CheckLine:
    return CheckLine(label, "true", detail or str(bool(ok)).lower(), "exact", bool(ok))


def _ring_trunc(n: int) -> TruncationSpec:
    cutoff = max(8 * n, minimal_cutoff_for_tail(float(n), 1e-12))
    return TruncationSpec((cutoff,))


# ---------------------------------------------------------------------------
# 1. exact single-mode number-state distances


def check_number_exact() -> list[CheckLine]:
    lines = []
    for n in range(1, 7):
        tr = _ring_trunc(n)
        sigma = phase_ring(float(n)).realize(tr)
        psi = number_basis_vector((n,), tr)
        d = trace_distance(sigma, outer(psi))
        target = 1.0 - float(gamma_n(n))
        lines.append(_value(f"D(ring_{n}, |{n}>) cutoff={tr.cutoffs[0]}", d, target, 1e-10))
        rep = report(StateSpec("number", {"ns": (n,)}))
        if rep.exact is None:
            lines.append(_flag(f"report(|{n}>) marks exact", False, "exact=None"))
        else:
            lines.append(_value(f"report(|{n}>) exact", rep.exact, target, 1e-10))
    return lines


# ---------------------------------------------------------------------------
# 2. multimode number states and energy partitions


def check_multimode_number() -> list[CheckLine]:
    lines = []
    rep = report(StateSpec("number", {"ns": (1, 1)}))
    lines.append(_value("delta(|1,1>)", rep.exact, 1.0 - math.exp(-2.0), 1e-10))

    partitions = ((4,), (2, 2), (1, 1, 1, 1))
    vals = {}
    for ns in partitions:
        r = report(StateSpec("number", {"ns": ns}))
        target = 1.0 - float(np.prod([gamma_n(n) for n in ns]))
        label = "delta(|" + ",".join(map(str, ns)) + ">)"
        if r.exact is None:
            lines.append(_flag(label + " marks exact", False, "exact=None"))
            vals[ns] = math.nan
        else:
            lines.append(_value(label, r.exact, target, 1e-10))
            vals[ns] = r.exact
    spread = vals[(1, 1, 1, 1)]
    lines.append(
        _flag(
            "four singles beat coarser splits of n=4",
            spread > vals[(2, 2)] and vals[(2, 2)] > vals[(4,)],
            "%.6f > %.6f > %.6f" % (spread, vals[(2, 2)], vals[(4,)]),
        )
    )
    return lines


# ---------------------------------------------------------------------------
# 3. single-photon superpositions: coefficient independence


def check_single_photon() -> list[CheckLine]:
    rng = np.random.default_rng(CORPUS_SEED)
    target = 1.0 - math.exp(-1.0)
    lines = []
    for i, m in enumerate((2, 3, 5, 3, 2)):
        c = rng.normal(size=m) + 1j * rng.normal(size=m)
        c = c / np.linalg.norm(c)
        rep = report(StateSpec("single_photon", {"c": tuple(c)}))
        if rep.exact is None:
            lines.append(_flag(f"random direction #{i + 1} (M={m}) exact", False, "exact=None"))
        else:
            lines.append(_value(f"random direction #{i + 1} (M={m})", rep.exact, target, 1e-8))
    return lines


# ---------------------------------------------------------------------------
# 4. N00N states: axis-ring witness meets the Q lower bound


def check_noon_witness() -> list[CheckLine]:
    lines = []
    for n, m in ((2, 2), (2, 4), (3, 3)):
        c = (1.0 / math.sqrt(m),) * m
        rep = report(StateSpec("noon", {"n": n, "c": c}))
        target = 1.0 - float(gamma_n(n)) / m
        rings = [b for b in rep.uppers if b.name == "axis-rings"]
        lines.append(_value(f"witness distance n={n} M={m}", rings[0].value, target, 1e-9))
        lines.append(_value(f"Q lower bound n={n} M={m}", rep.best_lower, target, 1e-9))
        if rep.exact is None:
            lines.append(_flag(f"report n={n} M={m} marks exact", False, "exact=None"))
    inv2 = 1.0 / math.sqrt(2.0)
    chi = report(StateSpec("noon", {"n": 2, "c": (inv2, inv2)}))
    pair = report(StateSpec("number", {"ns": (1, 1)}))
    lines.append(_value("two-photon splitter image vs |1,1>", chi.exact, pair.exact, 1e-9))
    return lines


# ---------------------------------------------------------------------------
# 5. Husimi supremum against analytic values and brute force


def _brute_disk_max(psi: FockVector) -> float:
    """Dense 401x401 grid search over the disk |alpha| <= sqrt(E) + 3."""
    amps = psi.amps.ravel()
    cutoff = psi.trunc.cutoffs[0]
    coeffs = amps / np.sqrt(
        np.exp([math.lgamma(k + 1.0) for k in range(cutoff + 1)])
    )
    radius = math.sqrt(max(0.0, mean_total_energy(psi))) + 3.0
    xs = np.linspace(-radius, radius, 401)
    re, im = np.meshgrid(xs, xs)
    alpha = re + 1j * im
    poly = np.polyval(coeffs[::-1], np.conj(alpha))
    q = np.exp(-np.abs(alpha) ** 2) * np.abs(poly) ** 2
    q[np.abs(alpha) > radius] = 0.0
    return float(q.max())


def check_qsup_oracle() -> list[CheckLine]:
    lines = []
    for n in range(1, 7):
        psi = number_basis_vector((n,), _ring_trunc(n))
        lines.append(
            _value(f"q_sup |{n}>", q_sup(psi).value, float(gamma_n(n)), 1e-7)
        )
    for beta in (0.5, 1.0, 1.5, 2.0):
        for parity in ("even", "odd"):
            psi = StateSpec("cat", {"parity": parity, "beta": beta}).build()
            ref = cat_qmax(CatParams(parity, beta)).value
            lines.append(
                _value(f"q_sup cat[{parity},beta={beta}]", q_sup(psi).value, ref, 1e-7)
            )
    for n, m in ((1, 2), (2, 2), (2, 3), (2, 4), (3, 3), (3, 2)):
        c = (1.0 / math.sqrt(m),) * m
        psi = StateSpec("noon", {"n": n, "c": c}).build()
        ref = noon_qmax_analytic(n, c).value
        lines.append(
            _value(f"q_sup noon n={n} M={m}", q_sup(psi).value, ref, 1e-7)
        )
    brute_states = [
        ("|1>", number_basis_vector((1,), _ring_trunc(1))),
        ("|3>", number_basis_vector((3,), _ring_trunc(3))),
        ("cat[even,1.2]", StateSpec("cat", {"parity": "even", "beta": 1.2}).build()),
        ("cat[odd,0.7]", StateSpec("cat", {"parity": "odd", "beta": 0.7}).build()),
        ("cat[even,2.5]", StateSpec("cat", {"parity": "even", "beta": 2.5}).build()),
    ]
    for name, psi in brute_states:
        lines.append(
            _value(f"grid search {name}", q_sup(psi).value, _brute_disk_max(psi), 1e-4)
        )
    return lines


# ---------------------------------------------------------------------------
# 6. cat-state figure features
#
# The even-cat curves have closed forms in the Husimi supremum m(b), which is
# sech(b^2) for b <= 1 and the stationarity root of ``cat_qmax`` beyond:
# lb_q = 1 - m, ub_q = sqrt(1 - m) and d(sigma_b) = (1 - e^{-2b^2})/2 (for the
# odd cat, d(sigma_b) = (1 + e^{-2b^2})/2). The feature locations follow:
#   beta_c, where ub_q meets d(sigma_b):    sqrt(1 - sech(b^2)) = (1 - e^{-2b^2})/2
#   beta_p, peak of the gap d(sigma_b) - lb_q:  tanh(b^2) sech(b^2) = e^{-2b^2}
#   beta_5, where that gap closes to 5e-3:  m(b) - (1 + e^{-2b^2})/2 = 5e-3


def _even_cat_features() -> tuple[float, float, float]:
    """(beta_c, beta_p, beta_5) from the closed forms above, bisected to 1e-12."""

    def crossing(b):
        x = b * b
        return math.sqrt(1.0 - 1.0 / math.cosh(x)) - 0.5 * (1.0 - math.exp(-2.0 * x))

    def gap_slope(b):
        x = b * b
        return math.tanh(x) / math.cosh(x) - math.exp(-2.0 * x)

    def gap_excess(b):
        m = cat_qmax(CatParams("even", b)).value
        return m - 0.5 * (1.0 + math.exp(-2.0 * b * b)) - 5e-3

    beta_c = _bisect(crossing, 0.1, 1.0, 1e-12)
    beta_p = _bisect(gap_slope, 0.1, 1.0, 1e-12)
    beta_5 = _bisect(gap_excess, beta_p, 3.0, 1e-12)
    return beta_c, beta_p, beta_5


def _qmax_oracle_line(label, beta, lb_q, parity) -> CheckLine:
    """lb_q against 1 - cat_qmax at criterion 5's tolerance."""
    exact = np.array([1.0 - cat_qmax(CatParams(parity, float(b))).value for b in beta])
    return _at_most(label, float(np.abs(lb_q - exact).max()), 0.0, slack=1e-7)


def check_cat_figures() -> list[CheckLine]:
    beta_c, beta_p, beta_5 = _even_cat_features()
    lines = []
    _, rows = compute_rows("fig1")
    beta = rows[:, 0]
    lb_q, ub_q, d_sb = rows[:, 2], rows[:, 3], rows[:, 4]
    best_up = rows[:, 3:6].min(axis=1)

    # ub_q below d(sigma_beta) before the crossing, above it after
    margin = np.where(beta < beta_c, ub_q - d_sb, d_sb - ub_q)
    lines.append(
        _at_most(
            f"fig1(a) max(ub_q - d_sigma_beta on beta < beta_c={beta_c:.6f},"
            " d_sigma_beta - ub_q on beta > beta_c)",
            float(margin.max()),
            0.0,
        )
    )
    gap = d_sb - lb_q
    lines.append(
        _at_most(
            f"fig1(b) max(d_sigma_beta - lb_q) on beta >= beta_5={beta_5:.6f}",
            float(gap[beta >= beta_5].max()),
            5e-3,
        )
    )
    lines.append(
        _at_most(
            f"fig1(b) max step of (d_sigma_beta - lb_q) on beta > beta_p={beta_p:.6f}",
            float(np.diff(gap[beta > beta_p]).max()),
            0.0,
            slack=DEFAULT_TAIL_TOL,
        )
    )
    cap = 0.5 * (1.0 - np.exp(-2.0 * beta**2))
    lines.append(
        _at_most(
            "fig1(c) max(best upper - (1-e^{-2b^2})/2)",
            float((best_up - cap).max()),
            0.0,
            slack=1e-9,
        )
    )
    lines.append(_at_most("fig1(c) max best upper", float(best_up.max()), 0.5, slack=1e-9))
    lines.append(
        _at_most(
            "fig1 rows: max(lb_q - min upper)",
            float((lb_q - best_up).max()),
            0.0,
            slack=1e-8,
        )
    )
    lines.append(
        _at_most(
            "fig1 max|d_sigma_beta - (1-e^{-2b^2})/2|",
            float(np.abs(d_sb - cap).max()),
            0.0,
            slack=DEFAULT_TAIL_TOL,
        )
    )
    lines.append(_qmax_oracle_line("fig1 max|lb_q - (1 - cat_qmax)|", beta, lb_q, "even"))

    _, rows2 = compute_rows("fig2")
    beta2, lb_q2, d_sb2 = rows2[:, 0], rows2[:, 2], rows2[:, 4]
    best_up2 = rows2[:, 3:7].min(axis=1)
    lines.append(_at_most("fig2 odd-cat max best upper", float(best_up2.max()), 0.66))
    lines.append(
        _value(
            "fig2 lb_q at beta=0.001",
            float(lb_q2[0]),
            1.0 - math.exp(-1.0),
            1e-4,
        )
    )
    lines.append(
        _at_most(
            "fig2 rows: max(lb_q - min upper)",
            float((lb_q2 - best_up2).max()),
            0.0,
            slack=1e-8,
        )
    )
    lines.append(
        _at_most(
            "fig2 max|d_sigma_beta - (1+e^{-2b^2})/2|",
            float(np.abs(d_sb2 - 0.5 * (1.0 + np.exp(-2.0 * beta2**2))).max()),
            0.0,
            slack=DEFAULT_TAIL_TOL,
        )
    )
    lines.append(_qmax_oracle_line("fig2 max|lb_q - (1 - cat_qmax)|", beta2, lb_q2, "odd"))
    return lines


# ---------------------------------------------------------------------------
# 7. eigenvector identities behind the exactness mechanism


def check_eigen_witness() -> list[CheckLine]:
    lines = []
    for beta in (0.5, 1.0, 2.0):
        for parity, sign in (("even", 1.0), ("odd", -1.0)):
            psi = StateSpec("cat", {"parity": parity, "beta": beta}).build()
            sigma = two_point_mixture([beta], [-beta]).realize(psi.trunc)
            f = psi.amps.ravel()
            lam = 0.5 * (1.0 + sign * math.exp(-2.0 * beta * beta))
            resid = float(np.linalg.norm(sigma.mat @ f - lam * f))
            lines.append(
                _at_most(f"sigma_beta residual {parity} beta={beta}", resid, 0.0, slack=1e-10)
            )
    n, m = 2, 3
    ens = uniform_axis_rings(float(n), m)
    tr = TruncationSpec(ens.required_cutoffs(1e-12))
    c = (1.0 / math.sqrt(m),) * m
    psi = StateSpec("noon", {"n": n, "c": c}, tr).build()
    q = ens.realize_diag(tr)
    f = psi.amps.ravel()
    lam = float(gamma_n(n)) / m
    resid = float(np.linalg.norm(q * f - lam * f))
    lines.append(_at_most("axis-ring residual n=2 M=3", resid, 0.0, slack=1e-10))
    lines.append(_value("axis-ring eigenvalue n=2 M=3", float(q[f != 0][0]), lam, 1e-10))
    return lines


# ---------------------------------------------------------------------------
# 8. vacuum-number mixture bracket


def check_mixture_bracket() -> list[CheckLine]:
    lines = []
    grid = np.linspace(0.0, 8.0, 41)
    etas = np.linspace(0.0, 1.0, 21)
    for n in range(1, 5):
        g = float(gamma_n(n))
        tr = _ring_trunc(n)
        worst_lo = -math.inf
        worst_hi = -math.inf
        for eta in etas:
            rho = vacuum_number_diag(n, float(eta), tr)
            val = diag_classical_minimize(rho, grid).value
            worst_lo = max(worst_lo, max(0.0, eta - g) - val)
            worst_hi = max(worst_hi, val - eta * (1.0 - g))
        lines.append(
            _at_most(f"n={n} max(lower - value) over eta grid", worst_lo, 0.0, slack=1e-6)
        )
        lines.append(
            _at_most(f"n={n} max(value - upper) over eta grid", worst_hi, 0.0, slack=1e-6)
        )
        rho1 = vacuum_number_diag(n, 1.0, tr)
        lines.append(
            _value(f"n={n} value at eta=1", diag_classical_minimize(rho1, grid).value, 1.0 - g, 1e-6)
        )
    return lines


# ---------------------------------------------------------------------------
# 9. metric and channel property suites


def _random_density(rng, dim: int, rank: int) -> DensityMatrix:
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = a @ a.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(TruncationSpec((dim - 1,)), mat)


def _random_two_mode(rng, trunc: TruncationSpec, support: int, rank: int) -> DensityMatrix:
    shape = trunc.shape
    mat = np.zeros((trunc.dim, trunc.dim), dtype=np.complex128)
    for _ in range(rank):
        amps = np.zeros(shape, dtype=np.complex128)
        block = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
        amps[:support, :support] = block
        v = amps.ravel()
        v /= np.linalg.norm(v)
        mat += np.outer(v, v.conj()) / rank
    return DensityMatrix(trunc, mat)


def check_property_suites() -> list[CheckLine]:
    rng = np.random.default_rng(CORPUS_SEED + 1)
    lines = []

    worst = -math.inf
    for _ in range(50):
        a = _random_density(rng, 7, int(rng.integers(1, 4)))
        b = _random_density(rng, 7, int(rng.integers(1, 4)))
        lo, d, hi = fuchs_vdg_check(a, b)
        worst = max(worst, lo - d, d - hi)
    lines.append(_at_most("fidelity sandwich: max violation (50 pairs)", worst, 0.0, slack=1e-9))

    worst = 0.0
    for _ in range(20):
        a = _random_density(rng, 6, int(rng.integers(1, 3)))
        b = _random_density(rng, 6, int(rng.integers(1, 3)))
        kd, d = helstrom_saturation(a, b)
        worst = max(worst, abs(kd - d))
    lines.append(_at_most("optimal measurement meets D (20 pairs)", worst, 0.0, slack=1e-9))

    worst = -math.inf
    tr = TruncationSpec((14, 14))
    for _ in range(20):
        a = _random_two_mode(rng, tr, 4, 2)
        b = _random_two_mode(rng, tr, 4, 2)
        theta = rng.uniform(0.2, 0.8)
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
        u = beam_splitter(theta) @ np.diag(phases)
        # displacements small enough that nothing measurable leaks past the cutoffs
        gam = 0.12 * np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
        ch = AffineOptics(u, gam)
        worst = max(
            worst,
            trace_distance(apply_affine(ch, a), apply_affine(ch, b)) - trace_distance(a, b),
        )
    lines.append(_at_most("affine channel: max D increase (20 pairs)", worst, 0.0, slack=1e-8))

    worst = -math.inf
    for _ in range(20):
        a = _random_density(rng, 7, 2)
        b = _random_density(rng, 7, 3)
        worst = max(
            worst,
            trace_distance(dephase_number(a), dephase_number(b)) - trace_distance(a, b),
        )
    lines.append(_at_most("dephasing: max D increase (20 pairs)", worst, 0.0, slack=1e-8))

    worst = -math.inf
    ring = phase_ring(1.0)
    for _ in range(20):
        a = _random_density(rng, 5, 2)
        b = _random_density(rng, 5, 2)
        worst = max(
            worst,
            trace_distance(adjoin(a, ring), adjoin(b, ring)) - trace_distance(a, b),
        )
    lines.append(_at_most("adjoining a ring: max D increase (20 pairs)", worst, 0.0, slack=1e-8))

    rho = _random_density(rng, 9, 3)
    once = dephase_number(rho)
    twice = dephase_number(once)
    lines.append(_flag("dephasing idempotent (bitwise)", bool(np.array_equal(once.mat, twice.mat))))

    cat = StateSpec("cat", {"parity": "even", "beta": 1.0}).build()
    single = q_sup(cat).value
    joint = q_sup(tensor(cat, cat)).value
    lines.append(_value("product rule m(psi x psi)", joint, single * single, 1e-9))

    ns = np.arange(1, 201)
    g = gamma_n(ns)
    upper = 1.0 / np.sqrt(2.0 * math.pi * ns)
    lower = upper * np.exp(-1.0 / (12.0 * ns))
    worst = float(max((lower - g).max(), (g - upper).max()))
    lines.append(_at_most("Stirling squeeze n<=200: max violation", worst, 0.0, slack=1e-12))
    return lines


# ---------------------------------------------------------------------------
# 10. determinism of the figure artifacts


def check_determinism() -> list[CheckLine]:
    lines = []
    with tempfile.TemporaryDirectory() as td:
        for which, steps in (("fig1", 12), ("fig3", None)):
            texts = []
            for i in (0, 1):
                path = write_figure(which, os.path.join(td, f"{which}_{i}.csv"), steps=steps)
                with open(path, "rb") as fh:
                    texts.append(fh.read())
            n_rows = texts[0].count(b"\n") - 1
            want = steps or len(default_grid(which))
            lines.append(_flag(f"{which} rows written", n_rows == want, f"{n_rows} rows"))
            lines.append(_flag(f"{which} byte-identical across runs", texts[0] == texts[1]))
    return lines


# ---------------------------------------------------------------------------
# registry and runner


CHECKS = {
    "number-exact": check_number_exact,
    "multimode-number": check_multimode_number,
    "single-photon": check_single_photon,
    "noon-witness": check_noon_witness,
    "qsup-oracle": check_qsup_oracle,
    "cat-figures": check_cat_figures,
    "eigen-witness": check_eigen_witness,
    "mixture-bracket": check_mixture_bracket,
    "property-suites": check_property_suites,
    "determinism": check_determinism,
}


def run_checks(only: str | None = None):
    """Run matching checks; returns [(name, [CheckLine, ...]), ...]."""
    selected = {
        name: fn for name, fn in CHECKS.items() if only is None or only in name
    }
    if not selected:
        raise ValueError(
            f"no check matches {only!r}; available: {', '.join(CHECKS)}"
        )
    return [(name, fn()) for name, fn in selected.items()]


def format_results(results) -> tuple[str, bool]:
    out = []
    all_ok = True
    for name, rows in results:
        for row in rows:
            status = "PASS" if row.ok else "FAIL"
            all_ok = all_ok and row.ok
            out.append(
                f"[{status}] {name}: {row.label}  expected={row.expected}  "
                f"computed={row.computed}  tol={row.tol}"
            )
    n_fail = sum(1 for _, rows in results for r in rows if not r.ok)
    n_all = sum(len(rows) for _, rows in results)
    out.append(f"{n_all - n_fail}/{n_all} checks passed")
    return "\n".join(out), all_ok


__all__ = ["CheckLine", "CHECKS", "run_checks", "format_results", "CORPUS_SEED"]
