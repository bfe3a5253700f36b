import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdist import (
    BoundReport,
    ClassicalEnsemble,
    DensityMatrix,
    FockVector,
    NumericalInconsistency,
    StateSpec,
    TruncationSpec,
    convexity_upper,
    diag_classical_minimize,
    diag_mixture_distance,
    number_basis_vector,
    outer,
    parse_state,
    phase_ring,
    report,
    tensor,
    uniform_axis_rings,
    upper_q,
    upper_witness,
    vacuum_number_diag,
)
from ncdist import bounds, channels, fock, husimi, metrics, states
from ncdist.fock import coherent_amps, poisson_pmf, poisson_tail
from ncdist.husimi import cat_qmax, gamma_n, q_sup
from ncdist.metrics import cat_span_distance, trace_distance
from ncdist.states import CatParams

G1 = math.exp(-1.0)
G2 = 2.0 * math.exp(-2.0)
G3 = 4.5 * math.exp(-3.0)


def _spec_report(kind, params):
    return report(StateSpec(kind, params))


# ---------------------------------------------------------------------------
# elementary operations


def test_upper_q_single_photon():
    b = upper_q(G1)
    assert b.provenance == "eq31-upper"
    assert abs(b.value - math.sqrt(1.0 - G1)) < 1e-9


def test_upper_witness_number_states():
    psi1 = number_basis_vector((1,), TruncationSpec((16,)))
    b = upper_witness(psi1, phase_ring(1.0))
    assert abs(b.value - (1.0 - G1)) < 1e-10
    assert b.witness is not None

    psi11 = number_basis_vector((1, 1), TruncationSpec((16, 16)))
    from ncdist import number_ring_product

    b2 = upper_witness(psi11, number_ring_product((1, 1)))
    assert abs(b2.value - (1.0 - math.exp(-2.0))) < 1e-10


def _reference_distance(state, ens):
    """The trace distance from ``state`` to ``ens`` and, for a vector, the
    eigenvector residual: a number-diagonal witness by ``upper_witness``, any
    other realized densely to the state's own tail budget on the state's
    truncation padded to hold it."""
    if ens.is_diagonal():
        b = upper_witness(state, ens)
        return b.value, b.candidate.residual
    return _padded_dense_distance(state, ens)


def _padded(state, cutoffs, tail_tol):
    """``state`` embedded in a truncation with at least ``cutoffs`` and a
    budget of at most ``tail_tol``."""
    cuts = tuple(max(a, b) for a, b in zip(state.trunc.cutoffs, cutoffs))
    trunc = TruncationSpec(cuts, min(state.trunc.tail_tol, tail_tol))
    own = tuple(slice(0, n + 1) for n in state.trunc.cutoffs)
    if isinstance(state, FockVector):
        amps = np.zeros(trunc.shape, dtype=np.complex128)
        amps[own] = state.amps
        return FockVector(trunc, amps)
    mat = np.zeros(trunc.shape * 2, dtype=np.complex128)
    mat[own * 2] = state.mat.reshape(state.trunc.shape * 2)
    return DensityMatrix(trunc, mat.reshape(trunc.dim, trunc.dim))


def _padded_dense_distance(state, ens):
    """The dense half of :func:`_reference_distance`, for any witness."""
    tol = state.trunc.tail_tol
    s = _padded(state, ens.required_cutoffs(tol), tol)
    sigma = ens.realize(s.trunc)
    if isinstance(s, DensityMatrix):
        return trace_distance(s, sigma), None
    f = s.flat / s.norm()
    sigma_f = sigma.mat @ f
    residual = float(np.linalg.norm(sigma_f - np.vdot(f, sigma_f).real * f))
    return trace_distance(outer(s), sigma), residual


def test_upper_witness_cat_two_point():
    from ncdist import two_point_mixture

    psi = StateSpec("cat", {"parity": "even", "beta": 2.0}).build()
    with pytest.raises(ValueError, match="number-diagonal"):
        upper_witness(psi, two_point_mixture([2.0], [-2.0]))
    d, _ = _reference_distance(psi, two_point_mixture([2.0], [-2.0]))
    assert abs(d - 0.5 * (1.0 - math.exp(-8.0))) < 1e-9
    assert abs(cat_span_distance("even", 2.0, 2.0)[0] - d) < 1e-12


def test_convexity_upper_weighted_sum():
    rep_hi = BoundReport("a", [], [], 0.0, 1.0 - G2, None)
    rep_lo = BoundReport("b", [], [], 0.0, 0.0, 0.0)
    b = convexity_upper([(0.5, rep_hi), (0.5, rep_lo)])
    assert abs(b.value - 0.5 * (1.0 - G2)) < 1e-12
    with pytest.raises(ValueError):
        convexity_upper([(0.4, rep_hi), (0.4, rep_lo)])


# ---------------------------------------------------------------------------
# diagonal classical minimization


def test_diag_minimize_exact_on_ring():
    # a ring already on the grid is matched perfectly, tail row included:
    # the target equals one column of the design matrix
    tr = TruncationSpec((6,), 1e-6)
    rho = DensityMatrix(tr, np.diag(poisson_pmf(1.0, 6)).astype(complex))
    b = diag_classical_minimize(rho, np.linspace(0.0, 4.0, 17))
    assert b.value <= 1e-12
    assert b.witness["type"] == "ring-mixture"
    assert b.witness["iterations"] == 0  # the best single ring is optimal


def test_diag_minimize_number_states():
    grid = np.linspace(0.0, 8.0, 41)
    gammas = {1: G1, 2: G2, 3: G3}
    for n in (1, 2, 3):
        rho = outer(number_basis_vector((n,), TruncationSpec((8 * n,))))
        b = diag_classical_minimize(rho, grid)
        assert abs(b.value - (1.0 - gammas[n])) < 1e-6


def test_diag_minimize_feasibility_and_refinement():
    from ncdist import vacuum_number_diag

    rho = vacuum_number_diag(1, 0.3, TruncationSpec((20,)))
    coarse = diag_classical_minimize(rho, np.linspace(0.0, 8.0, 21))
    fine = diag_classical_minimize(rho, np.linspace(0.0, 8.0, 41))
    # the coarse grid is a subset of the fine one
    assert fine.value <= coarse.value + 1e-12
    # bracket from the convex split and the triangle step
    assert max(0.0, 0.3 - G1) - 1e-9 <= fine.value <= 0.3 * (1.0 - G1) + 1e-6
    # the reported value is reproducible from the returned weights
    re_eval = diag_mixture_distance(
        rho, fine.witness["energies"], fine.witness["weights"]
    )
    assert abs(re_eval - fine.value) < 1e-9


def test_diag_minimize_input_validation():
    tr = TruncationSpec((4,))
    rho = DensityMatrix(tr, np.diag([0.5, 0.5, 0.0, 0.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        diag_classical_minimize(rho, [])
    off = np.diag([0.5, 0.5, 0.0, 0.0, 0.0]).astype(complex)
    off[0, 1] = off[1, 0] = 0.1
    with pytest.raises(ValueError):
        diag_classical_minimize(DensityMatrix(tr, off), np.linspace(0, 2, 5))


def test_diag_minimize_raises_when_the_lp_fails(monkeypatch):
    def failed(cols, target):
        raise NumericalInconsistency("solver gave up")

    monkeypatch.setattr(bounds, "_ring_lp", failed)
    rho = vacuum_number_diag(1, 0.3, TruncationSpec((20,)))
    with pytest.raises(NumericalInconsistency):
        diag_classical_minimize(rho, np.linspace(0.0, 8.0, 41))


def test_diag_minimize_raises_on_non_finite_solver_output(monkeypatch):
    def nan_weights(cols, target):
        return np.full(cols.shape[1], np.nan), np.zeros(len(target)), 0

    monkeypatch.setattr(bounds, "_ring_lp", nan_weights)
    rho = vacuum_number_diag(1, 0.3, TruncationSpec((20,)))
    with pytest.raises(NumericalInconsistency):
        diag_classical_minimize(rho, np.linspace(0.0, 8.0, 41))


def test_ring_lp_raises_at_its_pivot_cap(monkeypatch):
    # this input needs pivots from its best single ring (see below)
    monkeypatch.setattr(bounds, "_RING_LP_PIVOTS_PER_COLUMN", 0)
    rho = vacuum_number_diag(1, 0.3, TruncationSpec((20,)))
    with pytest.raises(NumericalInconsistency, match="pivot cap"):
        diag_classical_minimize(rho, np.linspace(0.0, 8.0, 41))


def test_diag_minimize_raises_above_the_dual_bound(monkeypatch):
    # a feasible but suboptimal primal point (the best single grid atom)
    # handed back with the true optimum's duals must fail the certificate
    rho = vacuum_number_diag(1, 0.3, TruncationSpec((20,)))
    grid = np.linspace(0.0, 8.0, 41)
    single = [diag_mixture_distance(rho, [e], [1.0]) for e in grid]
    best = int(np.argmin(single))
    optimum = diag_classical_minimize(rho, grid)
    assert isinstance(optimum.witness["iterations"], int)  # simplex pivots
    assert optimum.witness["iterations"] > 0
    assert single[best] > optimum.value + 1e-7
    real = bounds._ring_lp

    def one_hot(cols, target):
        w, y, pivots = real(cols, target)
        x = np.zeros_like(w)
        x[best] = 1.0
        return x, y, pivots

    monkeypatch.setattr(bounds, "_ring_lp", one_hot)
    with pytest.raises(NumericalInconsistency):
        diag_classical_minimize(rho, grid)


def test_diag_minimize_reads_duals_only_inside_their_box(monkeypatch):
    # y.p - max_j c_j.y is a lower bound only for |y_r| <= 1/2; scaled-up
    # duals would certify the suboptimal best single ring if read unclipped
    rho = vacuum_number_diag(1, 0.3, TruncationSpec((20,)))
    grid = np.linspace(0.0, 8.0, 41)
    best = int(np.argmin([diag_mixture_distance(rho, [e], [1.0]) for e in grid]))
    real = bounds._ring_lp

    def inflated(cols, target):
        w, y, pivots = real(cols, target)
        x = np.zeros_like(w)
        x[best] = 1.0
        return x, 100.0 * y, pivots

    monkeypatch.setattr(bounds, "_ring_lp", inflated)
    with pytest.raises(NumericalInconsistency):
        diag_classical_minimize(rho, grid)


def _highs_ring_value(cols, target):
    """The ring-mixture LP solved by HiGHS, valued as the package values it."""
    from scipy.optimize import linprog

    m, k = cols.shape
    lp = linprog(
        np.concatenate([np.zeros(k), 0.5 * np.ones(m)]),
        A_ub=np.block([[cols, -np.eye(m)], [-cols, -np.eye(m)]]),
        b_ub=np.concatenate([target, -target]),
        A_eq=np.concatenate([np.ones(k), np.zeros(m)])[None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * (k + m),
        method="highs",
    )
    assert lp.success
    w = np.clip(lp.x[:k], 0.0, None)
    return bounds._ring_distance(target, cols, w / w.sum())


def _check_against_highs(rho, grid):
    p, p_ext = bounds._diag_profile(rho)
    target = np.append(p, p_ext)
    cols = fock._poisson_columns(rho.trunc.cutoffs[0], np.asarray(grid, dtype=float))
    highs = _highs_ring_value(cols, target)
    b = diag_classical_minimize(rho, grid)
    # HiGHS stops at its 1e-7 feasibility tolerance: never below the
    # simplex, at most slightly above it
    assert highs - 1e-9 <= b.value <= highs + 1e-12
    weights = np.array(b.witness["weights"])
    assert np.all(weights > 0.0) and abs(weights.sum() - 1.0) < 1e-12
    w, y, _ = bounds._ring_lp(cols, target)
    y = np.clip(y, -0.5, 0.5)
    assert b.value - (y @ target - (y @ cols).max()) <= 1e-9


def test_ring_lp_matches_highs_on_vacuum_number_mixtures():
    for n in range(1, 5):
        for eta in np.round(np.arange(0.05, 0.951, 0.05), 2):
            spec = parse_state({"kind": "vacuum_number_mixture", "n": n, "eta": float(eta)})
            grid = np.unique(
                np.concatenate([bounds.default_energy_grid(eta * n), [0.0, float(n)]])
            )
            for trunc in (spec.default_trunc(), *(TruncationSpec((c,)) for c in (20, 30, 60))):
                _check_against_highs(vacuum_number_diag(n, float(eta), trunc), grid)


def test_ring_lp_matches_highs_on_random_diagonal_targets():
    rng = np.random.default_rng(19)
    for _ in range(64):
        cutoff = int(rng.integers(1, 41))
        p = rng.random(cutoff + 1) * (rng.random(cutoff + 1) < 0.6)
        p[rng.integers(cutoff + 1)] += 0.1
        p *= rng.uniform(0.9, 1.0) / p.sum()
        rho = DensityMatrix(TruncationSpec((cutoff,)), np.diag(p).astype(complex))
        _check_against_highs(rho, bounds.default_energy_grid(float(np.arange(cutoff + 1) @ p)))


def test_ring_lp_breaks_ties_between_equally_good_rings():
    # the even mixture of two grid rings: each ring alone fits it equally
    # well (half the distance between them), and together they fit it exactly
    cutoff = 12
    target = 0.5 * fock._poisson_columns(cutoff, np.array([1.0, 3.0])).sum(axis=1)
    rho = DensityMatrix(TruncationSpec((cutoff,)), np.diag(target[:-1]).astype(complex))
    single = [diag_mixture_distance(rho, [e], [1.0]) for e in (1.0, 3.0)]
    assert abs(single[0] - single[1]) < 1e-15 and single[0] > 0.1
    for grid in ([1.0, 3.0], [3.0, 1.0], [1.0, 1.0, 3.0, 3.0], [0.0, 1.0, 2.0, 3.0]):
        b = diag_classical_minimize(rho, grid)
        assert b.value <= 1e-12
        assert b.witness["energies"] == [1.0, 3.0] or b.witness["energies"] == [3.0, 1.0]
        assert b.witness["weights"] == pytest.approx([0.5, 0.5], abs=1e-12)
        _check_against_highs(rho, grid)


def test_ring_lp_matches_highs_on_a_degenerate_optimum():
    # the even mixture of two rings of this grid: at the optimum every row
    # is tight, and on the true target the simplex from the best single ring
    # met a run of more than m degenerate pivots
    cutoff = 9
    grid = np.array([
        0.09173793958026932, 0.9658385470146418, 1.2896517813706105,
        1.5242454827558356, 2.2084796499856276, 2.314944225535191,
        2.5689869945616506, 3.3464672841941527, 3.668058650993883,
        4.418315223079719,
    ])
    p = 0.5 * fock._poisson_columns(cutoff, grid[[6, 3]]).sum(axis=1)[:-1]
    rho = DensityMatrix(TruncationSpec((cutoff,)), np.diag(p).astype(complex))
    b = diag_classical_minimize(rho, grid)
    assert b.value <= 1e-12
    _check_against_highs(rho, grid)


# even two-ring mixtures on which the simplex cycled until its pivot cap
# (11226, 13179, 13348, 16354) or stopped on a vertex above its dual bound
# (18368, after making the row past the cutoff, of entries near 1e-13 and
# 1e-18, tight), and two where a basis recurs in rounding (2640, 3468)
# and two where the perturbed problem's optimal basis, solved on the true
# target, held weights near -5e-10 and stopped 1.9e-11 (13179) and 2.4e-11
# (15044) above the optimum 0, until a dual pivot took them out
@pytest.mark.parametrize("s", [2640, 3468, 11226, 13179, 13348, 15044, 16354, 18368])
def test_ring_lp_solves_even_two_ring_mixtures(s):
    r = np.random.default_rng(s)
    cutoff = int(r.integers(1, 12))
    k = int(r.integers(2, 12))
    grid = np.sort(r.uniform(0, 6, k))
    i, j = r.choice(k, 2, replace=False)
    p = 0.5 * fock._poisson_columns(cutoff, grid[[i, j]]).sum(axis=1)[:-1]
    rho = DensityMatrix(TruncationSpec((cutoff,)), np.diag(p).astype(complex))
    b = diag_classical_minimize(rho, grid)
    # the two rings at weight 1/2 each are at distance 0
    assert b.value <= (1e-13 if s in (13179, 15044) else 1e-10)
    heavy = {e for e, w in zip(b.witness["energies"], b.witness["weights"]) if w > 1e-6}
    assert heavy == {float(grid[i]), float(grid[j])}


def test_ring_columns_equal_the_poisson_pmf_bit_for_bit():
    energies = np.concatenate([bounds.default_energy_grid(1.7), [0.0, 3.0, 25.0]])
    for cutoff in (0, 1, 6, 40):
        cols = fock._poisson_columns(cutoff, energies)
        for k, e in enumerate(energies):
            ref = np.append(poisson_pmf(float(e), cutoff), poisson_tail(cutoff, float(e)))
            assert np.array_equal(cols[:, k], ref)
    with pytest.raises(ValueError):
        fock._poisson_columns(4, np.array([1.0, -0.5]))


# ---------------------------------------------------------------------------
# full reports: exactly solvable families


def test_family_reports_read_overlaps_from_the_support_only(monkeypatch):
    # the attainment checks of closed-form families never run the Bargmann
    # contraction over the state's whole truncation
    def refuse(self, x):
        raise AssertionError("Bargmann evaluator called")

    monkeypatch.setattr(husimi._BargmannTarget, "evaluate", refuse)
    inv2 = 1.0 / math.sqrt(2.0)
    exact = [
        StateSpec("number", {"ns": (1, 2)}),
        StateSpec("noon", {"n": 2, "c": (inv2, inv2)}),
        StateSpec("single_photon", {"c": (0.6, 0.8j, 0.0)}),
    ]
    for spec in exact:
        rep = report(spec)
        assert rep.exact is not None and rep.saturation["ok"]
    for parity, beta in (("even", 0.7), ("even", 1.6), ("odd", 1.1)):
        rep = report(StateSpec("cat", {"parity": parity, "beta": beta}))
        assert rep.best_lower <= rep.best_upper


def test_report_number_single_mode_exact():
    rep = _spec_report("number", {"ns": (1,)})
    assert rep.exact is not None
    assert abs(rep.exact - (1.0 - G1)) < 1e-10
    assert rep.saturation["ok"]

    rep2 = _spec_report("number", {"ns": (2,)})
    assert abs(rep2.exact - (1.0 - G2)) < 1e-10

    # past n = 745 the ring's e^-n underflows: its pmf is seeded at the mode
    rep3 = _spec_report("number", {"ns": (800,)})
    assert abs(rep3.exact - (1.0 - gamma_n(800))) < 1e-10


def test_report_number_product_exact():
    rep = _spec_report("number", {"ns": (1, 1)})
    assert abs(rep.exact - (1.0 - math.exp(-2.0))) < 1e-10
    # the witness on the best upper is the ring product
    assert rep.uppers[0].witness is not None


def test_report_single_photon_any_direction():
    rng = np.random.default_rng(23)
    for m in (2, 3, 5):
        c = rng.normal(size=m) + 1j * rng.normal(size=m)
        c = c / np.linalg.norm(c)
        rep = _spec_report("single_photon", {"c": tuple(c)})
        assert rep.exact is not None
        assert abs(rep.exact - (1.0 - G1)) < 1e-8


def _refuse_optics(*args, **kwargs):
    raise AssertionError("an interferometer or a one-photon superposition was built")


@pytest.mark.parametrize(
    "kind, params",
    [("single_photon", {}), ("noon", {"n": 1})],
)
def test_one_photon_reports_are_images_of_the_number_state(monkeypatch, kind, params):
    # sum_m c_m |1_m> is W(u)|1, 0, ..., 0>: the number state's report is
    # carried through u, and neither the interferometer nor the
    # superposition itself is built
    m = 10
    for mod in (channels, fock):
        monkeypatch.setattr(mod, "passive_unitary", _refuse_optics)
    monkeypatch.setattr(states, "noon_vector", _refuse_optics)
    c = np.exp(1j * np.arange(m)) / math.sqrt(m)
    rep = _spec_report(kind, {**params, "c": tuple(c)})
    assert abs(rep.exact - (1.0 - G1)) < 1e-12 and rep.saturation["ok"]
    ring, point = rep.uppers
    assert ring.name == "ring-product-image" and point.name == "best-point"
    # the ring rides on an interferometer whose first column is c, and the
    # point where the Q function of |1, 0, ..., 0> peaks maps to c
    u = rep.best_witness.rotation
    assert np.abs(u[:, 0] - c).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(m)).max() < 1e-12
    alpha = np.array([complex(*a) for a in point.witness["alpha"]])
    assert np.abs(alpha - c).max() < 1e-12


def test_report_noon_equal_amplitudes_exact():
    inv2 = 1.0 / math.sqrt(2.0)
    rep = _spec_report("noon", {"n": 2, "c": (inv2, inv2)})
    assert abs(rep.exact - (1.0 - G2 / 2.0)) < 1e-9

    rep4 = _spec_report("noon", {"n": 2, "c": (0.5, 0.5, 0.5, 0.5)})
    assert abs(rep4.exact - (1.0 - G2 / 4.0)) < 1e-9

    inv3 = 1.0 / math.sqrt(3.0)
    rep3 = _spec_report("noon", {"n": 3, "c": (inv3, inv3, inv3)})
    assert abs(rep3.exact - (1.0 - G3 / 3.0)) < 1e-9


def test_report_noon_unequal_amplitudes_open_bracket():
    rep = _spec_report("noon", {"n": 2, "c": (0.8, 0.6)})
    assert rep.exact is None
    assert abs(rep.best_lower - (1.0 - G2 * 0.64)) < 1e-9
    # equal ring weights, no longer listed by the report, reach 1 - gamma_2 / M
    psi = StateSpec("noon", {"n": 2, "c": (0.8, 0.6)}).build()
    uniform = upper_witness(psi, uniform_axis_rings(2.0, 2))
    assert abs(uniform.value - (1.0 - G2 / 2.0)) < 1e-9
    # skewing the ring weights toward the heavy mode does strictly better
    assert rep.best_lower < rep.best_upper < uniform.value


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_weighted_axis_rings_never_lose_to_equal_weights(m, n):
    # the secular root at weights |c_k|^2 is at most the one at 1/M
    rng = np.random.default_rng(100 * m + n)
    for _ in range(3):
        c = rng.normal(size=m) + 1j * rng.normal(size=m)
        c = c / np.linalg.norm(c)
        spec = StateSpec("noon", {"n": n, "c": tuple(c)})
        (rings,) = [b for b in report(spec).uppers if b.name == "axis-rings"]
        uniform = upper_witness(spec.build(), uniform_axis_rings(float(n), m))
        assert abs(uniform.value - (1.0 - gamma_n(n) / m)) < 1e-12
        assert rings.value <= uniform.value + 1e-15


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [11, 14, 28, 64])
def test_uniform_noon_reaches_its_closed_form_at_many_modes(m, n):
    # the distance 1 - gamma_n / M approaches 1 as the modes grow; the
    # support holds M entries, whatever the basis size (n + 1)^M
    rep = _spec_report("noon", {"n": n, "c": (1.0 / math.sqrt(m),) * m})
    assert abs(rep.exact - (1.0 - gamma_n(n) / m)) <= 1e-12
    assert rep.saturation["ok"]


def test_many_mode_number_and_one_photon_reports_are_exact():
    rep = _spec_report("single_photon", {"c": (0.125,) * 64})
    assert abs(rep.exact - (1.0 - G1)) <= 1e-12 and rep.saturation["ok"]
    rep = _spec_report("number", {"ns": (3,) * 12})
    assert abs(rep.exact - (1.0 - G3**12)) <= 1e-12 and rep.saturation["ok"]


def test_number_one_photon_and_noon_reports_build_no_fock_vector(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Fock vector was built")

    for mod in (fock, states):
        monkeypatch.setattr(mod, "number_basis_vector", refuse)
    monkeypatch.setattr(states, "noon_vector", refuse)
    monkeypatch.setattr(states.StateSpec, "build", refuse)
    half = 1.0 / math.sqrt(2.0)
    exact = [
        ("number", {"ns": (1, 0, 2)}, 1.0 - G1 * G2),
        ("single_photon", {"c": (0.6, 0.8j)}, 1.0 - G1),
        ("noon", {"n": 1, "c": (half, -half)}, 1.0 - G1),
        ("noon", {"n": 3, "c": (half, 0.0, half * 1j)}, 1.0 - G3 / 2.0),
    ]
    for kind, params, want in exact:
        rep = _spec_report(kind, params)
        assert abs(rep.exact - want) <= 1e-12 and rep.saturation["ok"]
    rep = _spec_report("noon", {"n": 2, "c": (0.8, 0.6)})
    assert rep.best_lower < rep.best_upper


def test_report_affine_pair_noon_vs_number():
    # two photons split over two modes and |1,1> are images of each other
    # under a balanced coupler, so their brackets must agree
    inv2 = 1.0 / math.sqrt(2.0)
    rep_noon = _spec_report("noon", {"n": 2, "c": (inv2, inv2)})
    rep_num = _spec_report("number", {"ns": (1, 1)})
    assert abs(rep_noon.exact - rep_num.exact) < 1e-9


# ---------------------------------------------------------------------------
# full reports: open brackets and classical states


def test_report_cat_interval():
    rep = _spec_report("cat", {"parity": "even", "beta": 1.0})
    m = 1.0 / math.cosh(1.0)
    assert rep.exact is None
    assert abs(rep.best_lower - (1.0 - m)) < 1e-9
    assert abs(rep.best_upper - 0.5 * (1.0 - math.exp(-2.0))) < 1e-9
    names = {b.name for b in rep.uppers}
    assert {"sigma-beta", "sigma-alpha-star", "dephased-ring"} <= names


def test_report_odd_cat_small_beta():
    # odd cats approach a single photon as beta -> 0
    rep = _spec_report("cat", {"parity": "odd", "beta": 0.05})
    assert rep.best_lower > 0.6
    assert rep.best_lower <= rep.best_upper + 1e-8


def test_report_entangled_coherent_matches_cat():
    for parity, beta, eta in (("even", 0.5, 0.3), ("odd", 1.0, 0.7), ("odd", 0.3, 0.5)):
        spec = StateSpec("entangled_coherent", {"parity": parity, "beta": beta, "eta": eta})
        ecs = report(spec)
        # every image witness, measured densely against the two-mode state
        psi = spec.build()
        images = [b for b in ecs.uppers if b.name.endswith("-image")]
        assert {b.name for b in images} == {"sigma-beta-image", "sigma-alpha-star-image"}
        for b in images:
            dense, _ = _reference_distance(psi, b.candidate.ensemble)
            assert abs(b.value - dense) < 1e-12, (spec.state_id(), b.name)
        # the bracket is the cat's without its ring
        cat = report(StateSpec("cat", {"parity": parity, "beta": beta}))
        no_ring = [b for b in cat.uppers if b.name != "dephased-ring"]
        assert ecs.best_lower == cat.best_lower
        assert ecs.best_upper == min(b.value for b in no_ring)


@pytest.mark.parametrize("parity, beta", [("odd", 1e-5), ("odd", 0.3), ("odd", 2.5), ("even", 2.0)])
@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_report_entangled_coherent_keeps_the_ring_where_the_splitter_mixes_nothing(parity, beta, eta):
    # at eta 0 or 1 the splitter only moves the cat to a mode, so every
    # witness, the ring too, carries over and the report is the cat's
    spec = StateSpec("entangled_coherent", {"parity": parity, "beta": beta, "eta": eta})
    ecs = report(spec)
    cat = report(StateSpec("cat", {"parity": parity, "beta": beta}))
    assert (ecs.best_lower, ecs.best_upper, ecs.exact) == (cat.best_lower, cat.best_upper, cat.exact)
    images = [b for b in ecs.uppers if b.name.endswith("-image")]
    assert "dephased-ring-image" in {b.name for b in images}
    psi = spec.build()
    for b in images:
        dense, _ = _reference_distance(psi, b.candidate.ensemble)
        assert abs(b.value - dense) < 1e-14, b.name


def test_report_entangled_coherent_builds_no_two_mode_state(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("the report built the two-mode state")

    monkeypatch.setattr(states, "entangled_coherent_vector", no_build)
    rep = _spec_report("entangled_coherent", {"parity": "odd", "beta": 2.5, "eta": 0.3})
    assert rep.exact is not None and rep.saturation["ok"]


def test_report_classical_states_are_exactly_zero():
    for alphas in ((0.5 + 0.2j,), (2.0, 1.5 + 0.3j, 1.0 + 1.0j)):
        rep = _spec_report("coherent", {"alpha": alphas})
        assert rep.best_lower == rep.best_upper == rep.exact == 0.0

    rep2 = _spec_report("phase_randomized", {"energy": 1.0})
    assert rep2.best_lower == rep2.best_upper == rep2.exact == 0.0


def test_ring_reports_realize_nothing_and_search_nothing(monkeypatch):
    # a ring is its own witness: its report reads the ensemble, never the
    # density that StateSpec.build realizes
    def refuse(*args, **kwargs):
        raise AssertionError("a ring was realized or searched")

    monkeypatch.setattr(states.ClassicalEnsemble, "realize", refuse)
    monkeypatch.setattr(states.StateSpec, "build", refuse)
    monkeypatch.setattr(bounds, "q_sup", refuse)
    ring = {"kind": "phase_randomized", "energy": 2.5}
    for source in (ring, {"kind": "mixture", "terms": [
        {"w": 0.4, "state": ring},
        {"w": 0.6, "state": {"kind": "coherent", "alpha": [[1, 0]]}},
    ]}):
        assert report(parse_state(source)).exact == 0.0


_RAW_TWO_MODE = FockVector(
    TruncationSpec((2, 2)), np.array([[0, 0.6, 0], [0.48j, 0, 0], [0, 0, 0.64]])
)
_INV2 = 1.0 / math.sqrt(2.0)
_ONE = number_basis_vector((1,), TruncationSpec((1,)))
# |1> (x) |0.5>: a pure product with a coherent factor
_ONE_COHERENT = tensor(_ONE, coherent_amps([0.5], TruncationSpec((12,))))
_DIAG = DensityMatrix(TruncationSpec((2,)), np.diag([0.5, 0.3, 0.2]))


@pytest.mark.parametrize(
    "state, lowers, uppers",
    [
        (StateSpec("number", {"ns": (1, 2)}), ["pure-overlap"], ["ring-product", "best-point"]),
        (
            StateSpec("single_photon", {"c": (0.6, 0.8j)}),
            ["pure-overlap"],
            ["ring-product-image", "best-point"],
        ),
        (
            StateSpec("noon", {"n": 2, "c": (_INV2, _INV2)}),
            ["pure-overlap"],
            ["axis-rings", "best-point"],
        ),
        (StateSpec("noon", {"n": 2, "c": (0.8, 0.6)}), ["pure-overlap"], ["axis-rings", "best-point"]),
        (
            StateSpec("cat", {"parity": "even", "beta": 1.0}),
            ["pure-overlap"],
            ["sigma-beta", "best-point", "sigma-alpha-star", "dephased-ring"],
        ),
        (
            StateSpec("cat", {"parity": "odd", "beta": 1.5}),
            ["pure-overlap"],
            ["sigma-alpha-star", "sigma-beta", "best-point", "dephased-ring"],
        ),
        (
            StateSpec("entangled_coherent", {"parity": "odd", "beta": 1.5, "eta": 0.3}),
            ["pure-overlap"],
            ["sigma-alpha-star-image", "sigma-beta-image", "best-point"],
        ),
        (StateSpec("coherent", {"alpha": (0.5 + 0.2j,)}), [], ["self-witness"]),
        (StateSpec("phase_randomized", {"energy": 1.0}), [], ["self-witness"]),
        (_RAW_TWO_MODE, ["pure-overlap"], ["best-point", "mode-energy-rings"]),
        (outer(_RAW_TWO_MODE), ["pure-overlap"], ["best-point", "mode-energy-rings"]),
        (_DIAG, [], ["diag-minimize"]),
        (DensityMatrix(TruncationSpec((2,)), np.diag([0.6, 0.0, 0.4])), ["triangle"], ["diag-minimize"]),
        (
            DensityMatrix(TruncationSpec((1,)), np.array([[0.5, 0.3], [0.3, 0.5]])),
            [],
            ["mode-energy-rings", "overlap-sqrt"],
        ),
        (_ONE_COHERENT, ["pure-overlap"], ["factor-witness", "overlap-sqrt"]),
        (tensor(outer(_ONE), _DIAG), ["factor-monotone"], ["factor-witness", "overlap-sqrt"]),
    ],
    ids=[
        "number", "single-photon", "noon-equal", "noon-unequal", "even-cat",
        "odd-cat", "entangled-coherent", "coherent", "phase-randomized", "raw-vector",
        "rank-one-density", "one-mode-diagonal", "raw-vacuum-number", "one-mode-coherences",
        "pure-product", "mixed-product",
    ],
)
def test_report_lists_only_bounds_that_can_set_the_bracket(state, lowers, uppers):
    rep = report(state)
    assert [b.name for b in rep.lowers] == lowers
    assert [b.name for b in rep.uppers] == uppers


@pytest.mark.parametrize(
    "state",
    [
        StateSpec("number", {"ns": (2,)}),
        StateSpec("cat", {"parity": "odd", "beta": 1.5}),
        StateSpec("noon", {"n": 2, "c": (0.8, 0.6)}),
        _RAW_TWO_MODE,
    ],
    ids=["number", "odd-cat", "noon-unequal", "raw-vector"],
)
def test_best_point_is_the_distance_to_the_peak_coherent_point(state):
    rep = report(state)
    # the one sqrt(1 - m) entry, and a computed witness distance
    assert not [b for b in rep.uppers if b.provenance == "eq31-upper"]
    (point,) = [b for b in rep.uppers if b.name == "best-point"]
    assert point.witness["type"] == "coherent-point"
    psi = state.build() if isinstance(state, StateSpec) else state
    alpha = [complex(*a) for a in point.witness["alpha"]]
    big = _padded(psi, (30,) * psi.trunc.nmodes, 1e-13)
    dense = trace_distance(outer(big), outer(coherent_amps(alpha, big.trunc)))
    assert abs(point.value - dense) <= 1e-9


def test_report_vacuum_number_brackets():
    for eta in (0.3, 0.7, 1.0):
        rep = _spec_report("vacuum_number_mixture", {"n": 1, "eta": eta})
        assert rep.best_lower >= max(0.0, eta - G1) - 1e-9
        assert rep.best_upper <= eta * (1.0 - G1) + 1e-6
        assert rep.best_lower <= rep.best_upper + 1e-8
    rep = _spec_report("vacuum_number_mixture", {"n": 1, "eta": 1.0})
    assert abs(rep.exact - (1.0 - G1)) < 1e-6


def test_report_vacuum_number_is_one_triangle_step_and_one_lp(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the vacuum-number report ran a Husimi search")

    monkeypatch.setattr(bounds, "q_sup", no_search)
    rep = _spec_report("vacuum_number_mixture", {"n": 2, "eta": 0.4})
    assert [b.name for b in rep.lowers] == ["triangle"]
    assert [b.name for b in rep.uppers] == ["diag-minimize"]
    assert rep.best_upper <= 0.4 * (1.0 - G2) + 1e-12

    rep = _spec_report("vacuum_number_mixture", {"n": 2, "eta": 1.0})
    assert abs(rep.exact - (1.0 - G2)) < 1e-9
    assert rep.saturation["checked"] and rep.saturation["ok"]


def test_vacuum_number_triangle_lower_is_the_closed_form():
    # the triangle step from |n>'s exact distance 1 - gamma_n along the
    # dense d(rho, |n>) is max(0, eta - gamma_n)
    for n in range(1, 5):
        g = float(gamma_n(n))
        for eta in np.linspace(0.0, 1.0, 101):
            spec = StateSpec("vacuum_number_mixture", {"n": n, "eta": float(eta)})
            rho = spec.build()
            d = trace_distance(rho, outer(number_basis_vector((n,), rho.trunc)))
            (lo,) = report(spec).lowers
            assert (lo.name, lo.provenance) == ("triangle", "eq32-triangle-lower")
            assert abs(lo.value - max(0.0, eta - g)) <= 1e-15
            assert abs(lo.value - max(0.0, 1.0 - g - d)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_pure_vacuum_number_reports_stay_exact_and_saturated(n, eta):
    rep = _spec_report("vacuum_number_mixture", {"n": n, "eta": eta})
    want = eta * (1.0 - float(gamma_n(n)))
    assert abs(rep.exact - want) <= 1e-12
    sat = rep.saturation
    assert sat["checked"] and sat["ok"]
    # |0> or |n> is an eigenvector of the ring mixture
    assert sat["eigenvector_residual"] == 0.0
    assert sat["attainment_defect"] <= 1e-15


def test_vacuum_number_reports_lie_inside_the_fig3_bracket():
    from ncdist.figures import default_grid, fig3_rows

    etas = default_grid("fig3")
    rows = fig3_rows(etas)
    for n in range(1, 5):
        for eta, lo, hi in zip(etas, rows[:, 2 * n - 1], rows[:, 2 * n]):
            rep = _spec_report("vacuum_number_mixture", {"n": n, "eta": float(eta)})
            assert abs(rep.best_lower - lo) <= 1e-15
            assert rep.best_upper <= hi + 1e-12


def test_one_mode_diagonal_reports_run_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a one-mode diagonal report ran a Husimi search")

    rng = np.random.default_rng(28)
    mixed = 0
    for _ in range(200):
        cutoff = int(rng.integers(1, 9))
        levels = rng.choice(cutoff + 1, int(rng.integers(1, min(6, cutoff + 1) + 1)), replace=False)
        p = np.zeros(cutoff + 1)
        p[levels] = rng.uniform(0.05, 1.0, len(levels))
        p /= p.sum()
        rho = DensityMatrix(TruncationSpec((cutoff,)), np.diag(p).astype(complex))
        with monkeypatch.context() as mp:
            mp.setattr(bounds, "q_sup", no_search)
            rep = report(rho)
        # the ring mixture sum_k p_k ring(k) is on the LP's grid
        assert rep.best_upper <= 1.0 - float(p @ gamma_n(np.arange(cutoff + 1))) + 1e-12
        assert rep.best_upper <= math.sqrt(1.0 - q_sup(rho).value)
        if len(levels) > 1:
            mixed += 1
            assert [b.name for b in rep.uppers] == ["diag-minimize"]
        else:  # a number state
            assert abs(rep.exact - (1.0 - gamma_n(int(levels[0])))) <= 1e-12
    assert mixed >= 150


def test_a_mixed_product_lists_its_diagonal_factors_peak_overlap():
    # the factor on the vacuum and one level is searched for its peak
    # overlap, so the product lists overlap-sqrt beside its factor witness
    diag = DensityMatrix(TruncationSpec((2,)), np.diag([0.999, 0.0, 0.001]).astype(complex))
    rep = report(tensor(outer(_RAW_TWO_MODE), diag))
    assert [b.name for b in rep.uppers] == ["overlap-sqrt", "factor-witness"]
    m = q_sup(_RAW_TWO_MODE).value * q_sup(diag, [np.array([math.sqrt(0.002)])]).value
    assert abs(rep.best_upper - math.sqrt(1.0 - m)) <= 1e-12
    assert rep.best_upper <= 0.8495 < rep.uppers[1].value


def test_a_product_searches_only_its_diagonal_factor(monkeypatch):
    calls = []

    def counted(state, *args, **kwargs):
        calls.append(state)
        return q_sup(state, *args, **kwargs)

    monkeypatch.setattr(bounds, "q_sup", counted)
    rep = report(tensor(outer(_ONE), _DIAG))
    assert [b.name for b in rep.uppers] == ["factor-witness", "overlap-sqrt"]
    (searched,) = calls
    assert searched.trunc.nmodes == 1 and np.array_equal(searched.mat, _DIAG.mat)


def test_raw_one_photon_states_report_through_the_number_state():
    c = np.array([0.6, 0.48j, 0.64])
    photon = StateSpec("single_photon", {"c": tuple(c)}).build()
    rep = report(photon)
    assert abs(rep.exact - (1.0 - G1)) <= 1e-12 and rep.saturation["ok"]
    assert [b.name for b in rep.uppers] == ["ring-product-image", "best-point"]

    # beside a coherent factor, the tensored witness keeps the number
    # state's frame and the interferometer on the photon's modes
    joint = tensor(photon, coherent_amps([0.5], TruncationSpec((12,))))
    rep = report(joint)
    (wit,) = [b for b in rep.uppers if b.name == "factor-witness"]
    assert abs(rep.exact - (1.0 - G1)) <= 1e-12
    u = wit.candidate.rotation
    assert np.abs(u[:3, 0] - c).max() < 1e-12 and u[3, 3] == 1.0
    # in-test reference: rotate the state back and measure the witness densely
    back = channels.apply_affine(channels.AffineOptics(u.conj().T, np.zeros(4)), joint)
    dense, _ = _padded_dense_distance(back, wit.candidate.ensemble)
    assert abs(wit.value - dense) <= joint.trunc.tail_tol


@pytest.mark.parametrize(
    "kind, params, rotations",
    [
        ("single_photon", {"c": (0.6, 0.48j, 0.64)}, 0),
        ("number", {"ns": (1, 2)}, 0),
        ("noon", {"n": 2, "c": (0.5, 0.5j, -0.5, 0.5)}, 0),
    ],
)
def test_exact_reports_frame_each_witness_once(monkeypatch, kind, params, rotations):
    measured, rotated = [], []
    measure, rotate = bounds._Frame.measure, channels.passive_unitary

    def counting_measure(self):
        measured.append(id(self))
        return measure(self)

    def counting_rotate(*args):
        rotated.append(args)
        return rotate(*args)

    monkeypatch.setattr(bounds._Frame, "measure", counting_measure)
    monkeypatch.setattr(channels, "passive_unitary", counting_rotate)
    rep = _spec_report(kind, params)
    assert rep.exact is not None and rep.saturation["ok"]
    # the saturation check reads the residual measured with the distance,
    # and each witness keeps the one frame it was measured on
    witnesses = [b.candidate for b in rep.uppers if b.candidate is not None]
    assert sorted(measured) == sorted(id(c.frame) for c in witnesses)
    # no state is rotated: a single photon's witness is carried instead
    assert len(rotated) == rotations


def test_report_mixture_kind_matches_dedicated_path():
    t1 = StateSpec("number", {"ns": (1,)})
    t0 = StateSpec("number", {"ns": (0,)})
    mix = StateSpec("mixture", {"terms": ((0.6, t1), (0.4, t0))})
    rep_m = report(mix)
    rep_v = _spec_report("vacuum_number_mixture", {"n": 1, "eta": 0.6})
    assert abs(rep_m.best_lower - rep_v.best_lower) < 1e-9
    assert abs(rep_m.best_upper - rep_v.best_upper) < 1e-6


@pytest.mark.parametrize(
    "terms",
    [
        [(0.5, {"kind": "coherent", "alpha": [[1, 0]]}), (0.5, {"kind": "coherent", "alpha": [[-1, 0]]})],
        [(0.3, {"kind": "phase_randomized", "energy": 2.0}), (0.7, {"kind": "mixture", "terms": [
            {"w": 0.5, "state": {"kind": "coherent", "alpha": [[0.4, 0.3]]}},
            {"w": 0.5, "state": {"kind": "phase_randomized", "energy": 0.5}},
            {"w": 0.0, "state": {"kind": "number", "ns": [3]}},
        ]})],
        [(0.5, {"kind": "coherent", "alpha": [[0.5, 0], [0.3, 0]]}),
         (0.5, {"kind": "coherent", "alpha": [[0.5, 0], [-0.3, 0]]})],
        [(0.5, {"kind": "number", "ns": [0]}), (0.5, {"kind": "coherent", "alpha": [[1, 0]]})],
        [(0.4, {"kind": "number", "ns": [0, 0]}), (0.6, {"kind": "mixture", "terms": [
            {"w": 0.5, "state": {"kind": "coherent", "alpha": [[0.3, 0], [0, 0.2]]}},
            {"w": 0.5, "state": {"kind": "number", "ns": [0, 0]}},
        ]})],
    ],
    ids=["two-points", "nested-rings-and-point", "two-mode-points", "vacuum-and-point",
         "two-mode-vacuum-nested"],
)
def test_mixture_of_classical_terms_is_its_own_witness(monkeypatch, terms):
    # no state is realized and no Husimi search runs: the weighted ensemble
    # is at distance 0 from itself
    def refuse(*args, **kwargs):
        raise AssertionError("a classical mixture was realized or searched")

    monkeypatch.setattr(ClassicalEnsemble, "realize", refuse)
    monkeypatch.setattr(bounds, "q_sup", refuse)
    spec = parse_state({"kind": "mixture", "terms": [{"w": w, "state": t} for w, t in terms]})
    rep = report(spec)
    assert rep.exact == 0.0 and rep.best_upper == 0.0
    assert [b.name for b in rep.uppers] == ["self-witness"]
    weights = [c["weight"] for c in rep.uppers[0].witness["components"]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-15)


def _parity_cat_mixture(beta, w_even, **extra):
    return parse_state({"kind": "mixture", **extra, "terms": [
        {"w": w_even, "state": {"kind": "cat", "parity": "even", "beta": beta}},
        {"w": 1.0 - w_even, "state": {"kind": "cat", "parity": "odd", "beta": beta}},
    ]})


def test_classical_parity_cat_mixture_is_exact_by_sigma_beta(monkeypatch):
    # (1 + e^-2)/2 cat+ + (1 - e^-2)/2 cat- at beta 1 is (|1><1| + |-1><-1|)/2;
    # no Husimi search can move a bracket that closes at 0, so none is run
    def refuse(*args, **kwargs):
        raise AssertionError("the raw route ran")

    monkeypatch.setattr(bounds, "q_sup", refuse)
    monkeypatch.setattr(bounds, "_report_raw", refuse)
    rep = report(_parity_cat_mixture(1, 0.5676676416183064))
    assert rep.exact is not None
    assert rep.best_upper <= 1e-15
    assert rep.uppers[0].name == "sigma-beta"
    assert rep.uppers[0].witness["components"][0]["factors"][0]["alpha"] == [1.0, 0.0]


def test_one_parity_cat_mixture_lists_sigma_beta_once():
    # two even cats of one beta mix to that cat, whose own report lists it
    terms = [{"w": 0.5, "state": {"kind": "cat", "parity": "even", "beta": 1.0}}] * 2
    rep = report(parse_state({"kind": "mixture", "terms": terms}))
    assert [b.name for b in rep.uppers].count("sigma-beta") == 1


@pytest.mark.parametrize("beta, w_even", [(0.3, 0.2), (1.0, 0.9), (1.7, 0.5), (2.5, 0.05)])
def test_parity_cat_mixture_sigma_beta_matches_the_dense_distance(beta, w_even):
    spec = _parity_cat_mixture(beta, w_even, trunc={"cutoffs": [60]})
    [pair] = [b for b in report(spec).uppers if b.name == "sigma-beta"]
    rho = spec.build()
    sigma = states.two_point_mixture([beta], [-beta]).realize(rho.trunc)
    assert pair.value == pytest.approx(trace_distance(rho, sigma), abs=1e-12)


def test_one_term_coherent_mixture_saturates_with_its_own_witness():
    # the mixture is pure, and its saturation check reads the residual of
    # the coherent state's self-witness: a state is an eigenvector of itself
    term = {"kind": "coherent", "alpha": [[0.5, 0.2]]}
    rep = report(parse_state({"kind": "mixture", "terms": [{"w": 1.0, "state": term}]}))
    assert rep.exact == 0.0
    assert rep.saturation["checked"] and rep.saturation["ok"]
    assert rep.saturation["eigenvector_residual"] == 0.0


@pytest.mark.parametrize(
    "extra",
    [[], [{"w": 0.0, "state": {"kind": "number", "ns": [1, 0]}}]],
    ids=["one-term", "zero-weight-second-term"],
)
def test_a_mixture_of_one_present_term_keeps_that_terms_exact_value(extra):
    # the density route found the bracket but not its exact value
    ec = {"kind": "entangled_coherent", "parity": "odd", "beta": 2.5, "eta": 0.3}
    mix = parse_state({"kind": "mixture", "terms": [{"w": 1.0, "state": ec}] + extra})
    rep, ref = report(mix), report(parse_state(ec))
    assert rep.state_id == mix.state_id()
    assert rep.exact == ref.exact == pytest.approx(0.500001863239778, abs=1e-12)
    assert (rep.best_lower, rep.best_upper) == (ref.best_lower, ref.best_upper)


# ---------------------------------------------------------------------------
# raw containers


def test_report_identifies_raw_amplitudes():
    spec = StateSpec("cat", {"parity": "even", "beta": 1.0})
    psi = spec.build()
    raw = FockVector(psi.trunc, psi.amps.copy())
    rep_raw = report(raw)
    rep_fam = report(spec)
    assert rep_raw.state_id == rep_fam.state_id
    assert abs(rep_raw.best_lower - rep_fam.best_lower) < 1e-12
    assert abs(rep_raw.best_upper - rep_fam.best_upper) < 1e-12


@pytest.mark.parametrize("cutoffs", [(2, 1, 2), (2, 2, 1)])
def test_raw_noon_vector_with_an_idle_mode_below_n_photons(cutoffs):
    # (|2,0,0> + |0,0,2>)/sqrt 2, or its mode swap, with the idle mode cut
    # below 2 photons: identified as the N00N state without rebuilding it
    # at that truncation
    tr = TruncationSpec(cutoffs)
    amps = np.zeros(tr.shape, dtype=complex)
    amps[2, 0, 0] = 1.0 / math.sqrt(2.0)
    amps[(0, 0, 2) if cutoffs[2] == 2 else (0, 2, 0)] = 1.0 / math.sqrt(2.0)
    rep = report(FockVector(tr, amps))
    assert rep.state_id == "noon[n=2,M=3]"
    full = _spec_report("noon", {"n": 2, "c": (1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))})
    assert rep.exact == full.exact == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)


def test_report_unrecognized_vector_is_consistent():
    rng = np.random.default_rng(11)
    tr = TruncationSpec((4, 4))
    amps = rng.normal(size=tr.shape) + 1j * rng.normal(size=tr.shape)
    amps = amps / np.linalg.norm(amps)
    rep = report(FockVector(tr, amps))
    assert rep.best_lower <= rep.best_upper + 1e-8
    assert rep.exact is None
    assert abs(rep.best_lower - (1.0 - rep.sup_overlap)) < 1e-12


def _coherent_overlap_sq(psi: FockVector, alpha) -> float:
    """|<alpha|psi>|^2 from the coherent amplitudes on psi's truncation."""
    amp = np.ones(())
    for a, n in zip(np.atleast_1d(alpha), psi.trunc.cutoffs):
        ks = np.arange(n + 1)
        mode = np.exp(-0.5 * abs(a) ** 2) * np.array(
            [a**k / math.sqrt(math.factorial(k)) for k in ks], dtype=np.complex128
        )
        amp = np.multiply.outer(amp, mode)
    return abs(np.vdot(amp.ravel(), psi.flat)) ** 2


# s = 32 is a draw whose peak the default starts of q_sup once missed
@pytest.mark.parametrize("s", [0, 1, 4, 5, 7, 14, 27, 32, 34, 37])
def test_report_lower_bound_holds_at_the_best_searched_point(s):
    # any true lower bound lies below 1 - Q(alpha) at every alpha, whatever
    # point a wider search lands on
    rng = np.random.default_rng(s)
    m, c = 1 + s % 3, int(rng.integers(2, 6))
    shape = (c + 1,) * m
    amps = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.4)
    psi = FockVector(TruncationSpec((c,) * m), amps / np.linalg.norm(amps))
    best = q_sup(psi, n_starts=300, seed=7).argmax[0]
    assert report(psi).best_lower <= 1.0 - _coherent_overlap_sq(psi, best) + 1e-12


def test_report_adjoining_a_classical_factor():
    # tensoring a ring onto a state must not move its bracket
    ring = phase_ring(1.0).realize(TruncationSpec((14,)))

    psi1 = number_basis_vector((1,), TruncationSpec((8,)))
    joint = tensor(outer(psi1), ring)
    rep_j = report(joint)
    rep_s = _spec_report("number", {"ns": (1,)})
    assert abs(rep_j.best_lower - rep_s.best_lower) < 1e-8
    assert abs(rep_j.best_upper - rep_s.best_upper) < 1e-8

    cat = StateSpec("cat", {"parity": "even", "beta": 1.0}).build()
    joint2 = tensor(outer(cat), ring)
    rep_j2 = report(joint2)
    rep_c = _spec_report("cat", {"parity": "even", "beta": 1.0})
    assert abs(rep_j2.best_lower - rep_c.best_lower) < 1e-8
    assert abs(rep_j2.best_upper - rep_c.best_upper) < 1e-8


def test_pure_product_keeps_the_exact_value_of_its_factor():
    # |1> (x) |0.5> is exactly as far from the classical set as |1>
    rep = report(_ONE_COHERENT)
    assert abs(rep.exact - (1.0 - G1)) <= 1e-9


def test_raw_product_reports_when_its_padded_witness_passes_the_dense_cap():
    # the state has 252 basis states; its tensored cat and axis-ring
    # witness, realized densely, would need a (27, 19, 19) truncation, but
    # it is measured on its factors' frames: 2 x 9 entries
    cat = StateSpec("cat", {"parity": "odd", "beta": 0.7}).build()
    noon = StateSpec("noon", {"n": 2, "c": (0.6, 0.8)}).build()
    rep = report(tensor(cat, noon))
    m = cat_qmax(CatParams("odd", 0.7)).value * husimi.noon_qmax_analytic(2, [0.6, 0.8]).value
    assert [b.name for b in rep.uppers] == ["factor-witness", "overlap-sqrt"]
    assert abs(rep.best_lower - (1.0 - m)) <= 1e-12
    (wit,) = [b for b in rep.uppers if b.name == "factor-witness"]
    assert rep.best_upper == wit.value
    # below the overlap-sqrt upper that was the bracket's only one
    assert rep.best_lower <= wit.value < math.sqrt(1.0 - m) - 0.02


_EVEN_CAT = StateSpec("cat", {"parity": "even", "beta": 1.0}).build()
_ODD_CAT = StateSpec("cat", {"parity": "odd", "beta": 0.7}).build()
_NOON = StateSpec("noon", {"n": 2, "c": (0.6, 0.8)}).build()


@pytest.mark.parametrize(
    "state",
    [
        tensor(_EVEN_CAT, _ONE),
        _ONE_COHERENT,
        tensor(_EVEN_CAT, _EVEN_CAT),
        tensor(outer(_EVEN_CAT), _DIAG),
        tensor(_ODD_CAT, _NOON),
    ],
    ids=["cat-one", "one-coherent", "cat-cat", "cat-density-diagonal", "cat-noon"],
)
def test_raw_products_measure_their_witness_on_the_factors_frames(monkeypatch, state):
    monkeypatch.setattr(ClassicalEnsemble, "realize", _refuse_dense)
    rep = report(state)
    monkeypatch.undo()
    (wit,) = [b for b in rep.uppers if b.name == "factor-witness"]
    assert rep.best_lower <= wit.value
    if state.trunc.nmodes == 3:
        # cat (x) N00N: no dense reference fits under the dense cap
        assert wit.value < 0.9628412
        return
    if state is _ONE_COHERENT:
        assert rep.exact == pytest.approx(1.0 - G1, abs=1e-12)
    dense, _ = _padded_dense_distance(state, wit.candidate.ensemble)
    assert abs(wit.value - dense) <= state.trunc.tail_tol


def test_product_state_lower_bound_multiplies():
    cat = StateSpec("cat", {"parity": "even", "beta": 1.0}).build()
    m = 1.0 / math.cosh(1.0)
    rep = report(tensor(cat, cat))
    assert abs(rep.best_lower - (1.0 - m * m)) < 1e-9


# ---------------------------------------------------------------------------
# report plumbing


def test_report_ordering_across_corpus():
    specs = [
        StateSpec("number", {"ns": (3,)}),
        StateSpec("noon", {"n": 2, "c": (0.6, 0.8)}),
        StateSpec("cat", {"parity": "odd", "beta": 1.3}),
        StateSpec("vacuum_number_mixture", {"n": 2, "eta": 0.4}),
        StateSpec("coherent", {"alpha": (1.0 + 0.0j, -0.3j)}),
    ]
    for spec in specs:
        rep = report(spec)
        hi = min(b.value for b in rep.uppers)
        for b in rep.lowers:
            assert b.value <= hi + 1e-8, spec.state_id()
        assert 0.0 <= rep.best_lower < 1.0
        assert 0.0 <= rep.best_upper < 1.0


def test_saturation_mechanism_on_exact_reports():
    for spec in (
        StateSpec("number", {"ns": (2,)}),
        StateSpec("noon", {"n": 2, "c": (1 / math.sqrt(2), 1 / math.sqrt(2))}),
    ):
        rep = report(spec)
        assert rep.exact is not None
        sat = rep.saturation
        assert sat["checked"]
        assert sat["eigenvector_residual"] <= 1e-9
        assert sat["attainment_defect"] <= 1e-9


@pytest.mark.parametrize(
    "kind, params",
    [
        ("cat", {"parity": "even", "beta": 3.0}),
        ("cat", {"parity": "odd", "beta": 2.5}),
        ("entangled_coherent", {"parity": "odd", "beta": 2.5, "eta": 0.3}),
        ("cat", {"parity": "odd", "beta": 3.775}),
        ("cat", {"parity": "odd", "beta": 4.0}),
        ("cat", {"parity": "odd", "beta": 6.0}),
    ],
)
def test_exact_report_picks_a_saturating_tied_witness(kind, params):
    # sigma_beta and sigma_alpha* tie within EXACT_TOL here; on the first
    # three the bare minimum is sigma_alpha*, which is not an exact
    # eigen-witness, and on the odd cats past beta ~ 3.76 the Husimi peak
    # lies too close to beta for a root bracket that subtracts
    rep = report(StateSpec(kind, params))
    assert rep.exact is not None
    assert rep.saturation["checked"] and rep.saturation["ok"]


# ---------------------------------------------------------------------------
# number-diagonal witnesses on the state's own support


def _uniform(m):
    return [[1.0 / math.sqrt(m), 0.0]] * m


def _refuse(*args, **kwargs):
    raise AssertionError("a witness diagonal was realized on a truncation")


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "number", "ns": [0, 3, 1, 1, 1, 2]},
        {"kind": "noon", "n": 2, "c": _uniform(6)},
        {"kind": "single_photon", "c": [[0.6, 0.0], [0.0, 0.64], [0.48, 0.0]]},
        {"kind": "cat", "parity": "odd", "beta": 1.5},
    ],
)
def test_diagonal_witnesses_are_not_realized(monkeypatch, obj):
    monkeypatch.setattr(ClassicalEnsemble, "realize_diag", _refuse)
    rep = report(parse_state(obj))
    assert rep.best_lower <= rep.best_upper + bounds.ORDERING_SLACK
    if obj["kind"] != "cat":
        assert rep.exact is not None and rep.saturation["ok"]


def test_number_product_report_stays_small():
    tracemalloc.start()
    try:
        rep = report(parse_state({"kind": "number", "ns": [0, 3, 1, 1, 1, 2]}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(rep.exact - (1.0 - G3 * G1**3 * G2)) <= 1e-12
    assert peak < 5e6


def test_number_state_reports_under_a_strict_tail_budget():
    # the witness is exact on the state's support, so the state's own
    # 1e-15 budget constrains nothing
    obj = {"kind": "number", "ns": [1], "trunc": {"cutoffs": [1], "tail_tol": 1e-15}}
    rep = report(parse_state(obj))
    assert abs(rep.exact - (1.0 - G1)) <= 1e-15


@pytest.mark.parametrize(
    "obj, closed",
    [
        ({"kind": "number", "ns": [1, 2, 3]}, 1.0 - G1 * G2 * G3),
        ({"kind": "number", "ns": [0, 3, 1, 1, 1, 2]}, 1.0 - G3 * G1**3 * G2),
        ({"kind": "single_photon", "c": _uniform(3)}, 1.0 - G1),
        ({"kind": "noon", "n": 2, "c": _uniform(3)}, 1.0 - G2 / 3.0),
        ({"kind": "noon", "n": 3, "c": _uniform(4)}, 1.0 - G3 / 4.0),
    ],
)
def test_witness_uppers_do_not_undercut_the_closed_form(obj, closed):
    rep = report(parse_state(obj))
    assert rep.best_upper >= closed - 1e-15
    assert rep.best_upper - closed <= 1e-12


@pytest.mark.parametrize(
    "state, ens",
    [
        (number_basis_vector((2, 1), TruncationSpec((2, 1))), states.number_ring_product((2, 1))),
        (StateSpec("noon", {"n": 2, "c": (0.6, 0.8)}).build(), uniform_axis_rings(2.0, 2)),
        (StateSpec("cat", {"parity": "even", "beta": 0.3}).build(), states.coherent_point_ensemble([0.0])),
        (vacuum_number_diag(2, 0.5, TruncationSpec((2,))), phase_ring(1.2)),
        (
            parse_state(
                {
                    "kind": "mixture",
                    "terms": [
                        {"w": 0.5, "state": {"kind": "number", "ns": [1]}},
                        {"w": 0.5, "state": {"kind": "coherent", "alpha": [[0.5, 0.0]]}},
                    ],
                }
            ).build(),
            phase_ring(0.6),
        ),
    ],
    ids=["number-pure", "noon-pure", "cat-vacuum", "diagonal", "dense"],
)
def test_support_route_matches_dense_on_a_padded_truncation(state, ens):
    tail = 1e-12
    value = upper_witness(state, ens).value
    # generous padding: the witness kept to a thousandth of the budget
    cuts = tuple(c + 4 for c in ens.required_cutoffs(tail * 1e-3))
    rho = _padded(state, cuts, tail)
    big = rho.trunc
    rho = outer(rho) if isinstance(rho, FockVector) else rho
    dense = trace_distance(rho, ens.realize(big))
    assert -1e-15 <= value - dense <= tail


# ---------------------------------------------------------------------------
# coherent-pair witnesses of cats on their coherent span


def _padded_pair_reference(parity, beta, a):
    """Distance and eigenvector residual of the cat against the pair +-a
    by the padded route: the cat and the witness realized to 1e-15."""
    tail = 1e-15
    ens = ClassicalEnsemble(
        tuple(
            (0.5, states.ProductComponent((states.CoherentFactor(sgn * a),)))
            for sgn in (1, -1)
        )
    )
    reach = max(beta, abs(a))
    trunc = TruncationSpec((int(reach * reach + 10 * reach + 30),), tail)
    psi = StateSpec("cat", {"parity": parity, "beta": beta}, trunc).build()
    return _reference_distance(psi, ens)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("beta", [1e-4, 0.001, 0.05, 0.3, 1.0, 2.0, 3.0, 4.5, 6.0])
def test_cat_span_kernel_matches_the_padded_route(parity, beta):
    alpha_star = float(np.real(cat_qmax(CatParams(parity, beta)).argmax[0][0]))
    amps = [
        beta,
        alpha_star if alpha_star > 1e-9 else 0.0,
        0.8 * beta * np.exp(0.7j),
        # farther out than the cat, off the real axis
        (beta + 0.6) * np.exp(2.0j),
        # the vacuum: an odd cat's sector holds nothing of it
        0.0,
    ]
    for a in amps:
        d, residual, _ = cat_span_distance(parity, beta, a)
        d_ref, residual_ref = _padded_pair_reference(parity, beta, a)
        assert abs(d - d_ref) <= 1e-12, a
        assert abs(residual - residual_ref) <= 1e-10, a


def _refuse_dense(*args, **kwargs):
    raise AssertionError("a cat witness was realized densely")


@pytest.mark.parametrize(
    "kind, params",
    [
        ("cat", {"parity": "odd", "beta": 0.001}),
        ("cat", {"parity": "even", "beta": 0.05}),
        ("cat", {"parity": "even", "beta": 1.0}),
        ("cat", {"parity": "odd", "beta": 2.5}),
        ("entangled_coherent", {"parity": "odd", "beta": 0.001, "eta": 0.4}),
        ("entangled_coherent", {"parity": "odd", "beta": 2.5, "eta": 0.3}),
        ("entangled_coherent", {"parity": "even", "beta": 2.0, "eta": 1.0}),
    ],
)
def test_cat_witnesses_are_not_realized(monkeypatch, kind, params):
    monkeypatch.setattr(ClassicalEnsemble, "realize", _refuse_dense)
    monkeypatch.setattr(metrics, "trace_distance", _refuse_dense)
    monkeypatch.setattr(bounds, "trace_distance", _refuse_dense)
    rep = report(StateSpec(kind, params))
    assert rep.best_lower <= rep.best_upper + bounds.ORDERING_SLACK
    if params["beta"] > 2.0:
        # the bracket closes, so the saturation check ran on the span
        assert rep.exact is not None and rep.saturation["ok"]


# ---------------------------------------------------------------------------
# two claims of the paper's abstract, against closed-form values


def test_uniform_noon_distance_rises_toward_one_with_the_mode_count():
    exacts = []
    for m in range(2, 13):
        rep = report(StateSpec("noon", {"n": 2, "c": (1.0 / math.sqrt(m),) * m}))
        assert rep.exact is not None
        assert abs(rep.exact - (1.0 - G2 / m)) <= 1e-12
        exacts.append(rep.exact)
    assert all(a < b for a, b in zip(exacts, exacts[1:]))


def test_odd_cat_distance_is_not_monotone_in_beta():
    # near beta = 0 the odd cat is nearly a single photon (distance near
    # 1 - 1/e); at beta = 2 it sits within 1/2 + e^-8 / 2 of the classical set
    small = _spec_report("cat", {"parity": "odd", "beta": 0.01})
    large = _spec_report("cat", {"parity": "odd", "beta": 2.0})
    assert small.best_lower > large.best_upper


# ---------------------------------------------------------------------------
# property test over the JSON schema


def _pairs(bound, min_size, max_size):
    part = st.floats(-bound, bound)
    return st.lists(st.tuples(part, part).map(list), min_size=min_size, max_size=max_size)


def _unit(pairs):
    c = np.array([complex(*p) for p in pairs])
    c = c / np.linalg.norm(c)
    return [[z.real, z.imag] for z in c]


_AXIS = _pairs(1.0, 1, 6).filter(lambda c: np.linalg.norm(np.ravel(c)) > 0.1).map(_unit)
_TERM = st.one_of(
    st.integers(0, 3).map(lambda n: {"kind": "number", "ns": [n]}),
    _pairs(1.2, 1, 1).map(lambda a: {"kind": "coherent", "alpha": a}),
)


def _mixture(terms):
    total = sum(w for w, _ in terms)
    return {"kind": "mixture", "terms": [{"w": w / total, "state": t} for w, t in terms]}


_STATES = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=6).map(
        lambda ns: {"kind": "number", "ns": ns}
    ),
    _AXIS.map(lambda c: {"kind": "single_photon", "c": c}),
    st.tuples(st.integers(1, 3), _AXIS).map(
        lambda t: {"kind": "noon", "n": t[0], "c": t[1]}
    ),
    st.tuples(st.sampled_from(["even", "odd"]), st.floats(1e-3, 6.0)).map(
        lambda t: {"kind": "cat", "parity": t[0], "beta": t[1]}
    ),
    st.tuples(
        st.sampled_from(["even", "odd"]), st.floats(1e-3, 6.0), st.floats(0.0, 1.0)
    ).map(
        lambda t: {"kind": "entangled_coherent", "parity": t[0], "beta": t[1], "eta": t[2]}
    ),
    _pairs(1.2, 1, 3).map(lambda a: {"kind": "coherent", "alpha": a}),
    st.floats(0.0, 9.0).map(lambda e: {"kind": "phase_randomized", "energy": e}),
    st.tuples(st.integers(1, 3), st.floats(0.0, 1.0)).map(
        lambda t: {"kind": "vacuum_number_mixture", "n": t[0], "eta": t[1]}
    ),
    st.lists(st.tuples(st.floats(0.05, 1.0), _TERM), min_size=1, max_size=3).map(_mixture),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_STATES)
def test_report_brackets_every_schema_state(obj):
    rep = report(parse_state(obj))
    assert rep.best_lower <= rep.best_upper + bounds.ORDERING_SLACK
    if rep.exact is not None:
        assert abs(rep.exact - rep.best_lower) <= bounds.EXACT_TOL
        assert abs(rep.exact - rep.best_upper) <= bounds.EXACT_TOL


def test_noon_with_an_empty_mode_is_exact():
    # all amplitude on one mode is the number state |0, 2>; the weighted axis
    # rings give the empty mode a zero weight, which need not attain the peak
    rep = report(parse_state({"kind": "noon", "n": 2, "c": [[0, 0], [0, 1]]}))
    assert abs(rep.exact - (1.0 - G2)) < 1e-9
    assert rep.saturation["ok"]


def test_bracket_closed_without_a_saturating_witness_is_not_exact():
    # 1e-12 of the weight away from |2, 0> the bracket closes within
    # EXACT_TOL, but no witness is an eigen-witness of the state
    rep = report(parse_state({"kind": "noon", "n": 2, "c": [[0, 1], [0, 1e-6]]}))
    assert rep.best_upper - rep.best_lower <= bounds.EXACT_TOL
    assert rep.exact is None
    assert not rep.saturation["ok"]


def test_report_serialization_shape():
    rep = _spec_report("number", {"ns": (1,)})
    d = rep.to_dict()
    assert sorted(d.keys()) == [
        "best_lower",
        "best_upper",
        "exact",
        "lowers",
        "state_id",
        "uppers",
    ]
    for entry in d["lowers"]:
        assert sorted(entry.keys()) == ["name", "provenance", "value"]
    assert any("witness" in entry for entry in d["uppers"])
    # must be JSON-clean, including the null for open brackets
    rep_open = _spec_report("cat", {"parity": "even", "beta": 1.0})
    payload = json.loads(json.dumps(rep_open.to_dict()))
    assert payload["exact"] is None
