import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ncdist import husimi
from ncdist.channels import AffineOptics, apply_affine
from ncdist.fock import (
    DensityMatrix,
    FockVector,
    TruncationSpec,
    _coherent_mode_amps,
    _Support,
    beam_splitter,
    coherent_amps,
    displacement,
    number_basis_vector,
    outer,
    tensor,
)
from ncdist.husimi import (
    CERT_THRESHOLD,
    _as_x,
    _BargmannTarget,
    _lattice_points,
    _support_overlaps,
    _tied_maximizers,
    cat_q_tilde,
    cat_qmax,
    gamma_n,
    noon_qmax_analytic,
    q_sup,
    q_tilde,
)
from ncdist.states import (
    CatParams,
    ClassicalEnsemble,
    CoherentFactor,
    ProductComponent,
    RingFactor,
    StateSpec,
    cat_vector,
    noon_vector,
    phase_ring,
    two_point_mixture,
)

GAMMA_REF = {
    1: 0.36787944117144233,
    2: 0.2706705664732254,
    3: 0.22404180765538775,
    4: 0.19536681481316454,
    5: 0.17546736976785068,
    6: 0.16062314104798009,
}


def test_gamma_values():
    assert gamma_n(0) == 1.0
    for n, ref in GAMMA_REF.items():
        assert gamma_n(n) == pytest.approx(ref, rel=1e-14)
    assert gamma_n(20) == pytest.approx(0.088835317392084806, rel=1e-13)
    assert gamma_n(200) == pytest.approx(0.028197727685921072, rel=1e-13)


def test_gamma_n_matches_the_gammaln_route():
    from scipy.special import gammaln

    def via_gammaln(n):
        return float(np.exp(n * np.log(n) - n - gammaln(n + 1.0)))

    # the same bits up to n = 12, where n! is an exact float: fig3's rows
    # (n <= 4) stay byte-identical
    for n in range(1, 13):
        assert gamma_n(n) == via_gammaln(float(n))
        assert gamma_n(np.array([float(n)]))[0] == via_gammaln(float(n))
    # beyond, log n! stays within 2 ulp of gammaln(n + 1), so gamma_n moves
    # by at most 2 ulp of the exponent's largest term, n log n
    for n in range(13, 401):
        log_fact = math.log(math.factorial(n))
        assert abs(log_fact - gammaln(n + 1.0)) <= 2 * np.spacing(gammaln(n + 1.0))
        bound = 2 * np.spacing(n * math.log(n)) * 2
        assert abs(gamma_n(n) / via_gammaln(float(n)) - 1.0) <= bound
    # non-integer n take lgamma
    assert gamma_n(2.5) == pytest.approx(via_gammaln(2.5), rel=1e-15)


def test_gamma_stirling_squeeze():
    ns = np.arange(1, 201)
    g = gamma_n(ns)
    assert np.all(g >= np.exp(-ns.astype(float)) - 1e-300)
    assert np.all(g <= 1.0 / np.sqrt(2.0 * np.pi * ns))


def test_q_tilde_number_state():
    t = TruncationSpec((12,))
    v = number_basis_vector((1,), t)
    assert q_tilde(v, 0.5) == pytest.approx(0.19470019576785122, abs=1e-15)
    assert q_tilde(outer(v), 0.5) == pytest.approx(0.19470019576785122, abs=1e-13)


def test_q_tilde_of_a_number_state_far_out():
    # |alpha|^2 = 1600: e^{-|alpha|^2/2} underflows, and the coherent
    # amplitudes start near their peak instead
    psi = number_basis_vector((1600,), TruncationSpec((1889,)))
    assert q_tilde(psi, 40) == pytest.approx(gamma_n(1600), rel=1e-12, abs=0)


def test_q_sup_rejects_a_density_with_no_eigenvalue_above_the_rank_cut():
    with pytest.raises(ValueError, match="rank cut"):
        q_sup(DensityMatrix(TruncationSpec((3,)), np.zeros((4, 4))))


def test_q_tilde_cat_closed_form_matches_vector():
    t = TruncationSpec((24,))
    even = cat_vector(CatParams("even", 1.0), t)
    odd = cat_vector(CatParams("odd", 1.0), t)
    assert cat_q_tilde(CatParams("even", 1.0), 0.3) == pytest.approx(
        0.64720040295118719, abs=1e-15
    )
    assert cat_q_tilde(CatParams("odd", 1.0), 0.3) == pytest.approx(
        0.072116352353756283, abs=1e-15
    )
    for a in [0.3, -0.8, 0.2 + 0.5j]:
        assert q_tilde(even, a) == pytest.approx(
            cat_q_tilde(CatParams("even", 1.0), a), abs=1e-12
        )
        assert q_tilde(odd, a) == pytest.approx(
            cat_q_tilde(CatParams("odd", 1.0), a), abs=1e-12
        )


def test_q_tilde_ring_bessel_route():
    ring = StateSpec("phase_randomized", {"energy": 1.3}).build()
    # direct sum: sum_k pois_k(E) e^{-A} A^k / k!
    from ncdist.fock import poisson_pmf

    a = 0.9
    pk = poisson_pmf(1.3, 60)
    qk = poisson_pmf(a * a, 60)
    ref = float(pk @ qk)
    assert q_tilde(ring, a) == pytest.approx(ref, abs=1e-14)
    # phase invariance
    assert q_tilde(ring, a * np.exp(0.7j)) == pytest.approx(ref, abs=1e-14)


def _realized(ens):
    return ens.realize(TruncationSpec(ens.required_cutoffs()))


@pytest.mark.parametrize(
    "state, alpha",
    [
        (_realized(phase_ring(1.0)), [1.0, 0.5, 0.2]),
        (_realized(phase_ring(1.0, nmodes=2)), [1.0]),
        (number_basis_vector((1, 0), TruncationSpec((4, 4))), [1.0]),
    ],
    ids=["density-long", "density-short", "vector-short"],
)
def test_q_tilde_rejects_a_mode_count_mismatch(state, alpha):
    with pytest.raises(ValueError, match="mode count mismatch"):
        q_tilde(state, alpha)


def test_husimi_evaluations_take_fock_space_states_only():
    # a classical ensemble is realized first; its own report needs no Q
    ring = phase_ring(1.0)
    with pytest.raises(TypeError, match="unsupported state type"):
        q_sup(ring)
    with pytest.raises(TypeError, match="unsupported state type"):
        q_tilde(ring, [1.0])


def test_noon_analytic_values():
    r = noon_qmax_analytic(2, [0.8, 0.6])
    assert r.value == pytest.approx(0.17322916254286427, rel=1e-14)
    assert r.method == "analytic" and r.certificate == 0.0
    assert len(r.argmax) == 1
    assert abs(r.argmax[0][0]) == pytest.approx(math.sqrt(2))
    assert r.argmax[0][1] == 0

    # n = 1: value independent of c
    for c in ([1, 0], [0.6, 0.8j], [0.5, 0.5, 0.5, 0.5]):
        c = np.asarray(c, dtype=complex)
        c = c / np.linalg.norm(c)
        r1 = noon_qmax_analytic(1, c)
        assert r1.value == pytest.approx(GAMMA_REF[1], rel=1e-14)
        assert np.allclose(r1.argmax[0], c)

    # equal-amplitude ties report every maximizing mode
    r2 = noon_qmax_analytic(2, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert r2.ties and len(r2.argmax) == 2
    assert r2.value == pytest.approx(0.1353352832366127, rel=1e-13)


def test_cat_qmax_even_small_beta_analytic():
    r = cat_qmax(CatParams("even", 0.5))
    assert r.method == "analytic"
    assert r.value == pytest.approx(0.96954362914021452, rel=1e-14)
    assert r.argmax[0][0] == 0.0
    r1 = cat_qmax(CatParams("even", 1.0))
    assert r1.value == pytest.approx(0.64805427366388546, rel=1e-14)


def test_cat_qmax_root_find_table():
    cases = {
        ("even", 1.5): (1.4632437386096906, 0.50616608984923694),
        ("even", 2.0): (1.9986513460302167, 0.50016863615638307),
        ("even", 2.5): (2.4999813650673621, 0.50000186350020148),
        ("odd", 0.5): (1.0436268955915371, 0.39685083414221395),
        ("odd", 1.0): (1.1996786402577337, 0.45935429822662927),
        ("odd", 2.0): (2.0013351488399778, 0.49983316446767734),
        # the odd root lies about 2 beta e^{-2 beta^2} above beta, below
        # double resolution from beta ~ 4.5 (50-digit values)
        ("odd", 3.775): (3.7750000000031623, 0.49999999999979056),
        ("odd", 4.0): (4.000000000000101, 0.49999999999999367),
        ("odd", 5.0): (5.0, 0.5),
        ("odd", 6.0): (6.0, 0.5),
    }
    for (par, b), (astar, m) in cases.items():
        r = cat_qmax(CatParams(par, b))
        assert r.method == "root_find"
        assert r.certificate <= 1e-12
        got_a = max(abs(r.argmax[0][0]), abs(r.argmax[1][0]))
        assert got_a == pytest.approx(astar, abs=1e-9)
        assert r.value == pytest.approx(m, rel=1e-11)
    for b in np.linspace(0.001, 6.0, 481):
        r = cat_qmax(CatParams("odd", float(b)))
        assert r.argmax[0][0].real >= b and r.certificate <= 1e-12


def test_cat_qmax_tiny_odd_beta_stable():
    r = cat_qmax(CatParams("odd", 1e-4))
    assert r.value == pytest.approx(0.36787944239770715, rel=1e-10)
    assert abs(r.argmax[0][0]) == pytest.approx(1.0000000016666668, abs=1e-9)


def test_cat_qmax_is_actual_max_of_q_tilde():
    # cross-check the root find against the closed-form profile on a grid
    for par, b in [("even", 1.4), ("odd", 0.9)]:
        r = cat_qmax(CatParams(par, b))
        grid = np.linspace(0, b + 2, 3001)
        vals = [cat_q_tilde(CatParams(par, b), a) for a in grid]
        assert max(vals) <= r.value + 1e-9


def test_q_sup_number_state_matches_gamma():
    t = TruncationSpec((16,))
    for n in (1, 2):
        v = number_basis_vector((n,), t)
        r = q_sup(v)
        assert r.value == pytest.approx(GAMMA_REF[n], abs=1e-9)
        assert r.certificate <= 1e-8
        assert abs(np.abs(r.argmax[0][0]) - math.sqrt(n)) < 1e-5


@pytest.mark.parametrize("n_starts", [1, 2])
@pytest.mark.parametrize(
    "state",
    [
        number_basis_vector((2,), TruncationSpec((16,))),
        cat_vector(CatParams("odd", 1.0), TruncationSpec((22,))),
    ],
    ids=["number-2", "odd-cat"],
)
def test_q_sup_never_certifies_a_zero_supremum(state, n_starts):
    # the origin and the mode means are the only starts here, and both are
    # zeros of Q with zero gradient; Q integrates to 1, so 0 is no supremum
    r = q_sup(state, n_starts=n_starts)
    assert r.value == 0.0
    assert r.certificate == math.inf and not r.converged
    full = q_sup(state)
    assert full.value > 0.2 and full.converged


def test_q_sup_cat_matches_root_find():
    t = TruncationSpec((26,))
    v = cat_vector(CatParams("even", 1.2), t)
    r = q_sup(v)
    assert r.value == pytest.approx(0.5411328834155662, abs=1e-8)
    assert r.certificate <= 1e-8


def test_q_sup_noon_matches_analytic():
    t = TruncationSpec((2, 2))
    v = noon_vector(2, [1 / math.sqrt(2), 1 / math.sqrt(2)], t)
    r = q_sup(v)
    assert r.value == pytest.approx(0.1353352832366127, abs=1e-8)


def test_q_sup_displaced_number_state():
    # optimizer must follow the displaced peak; the mode-mean start does it
    t = TruncationSpec((20,), tail_tol=1e-9)
    d = displacement(0.4, t)
    v = FockVector(t, d.apply(number_basis_vector((1,), t).flat))
    r = q_sup(v)
    assert r.value == pytest.approx(GAMMA_REF[1], abs=1e-7)


def test_q_sup_two_point_mixture():
    t = TruncationSpec((22,), tail_tol=1e-10)
    rho = two_point_mixture([1.0], [-1.0]).realize(t)
    r = q_sup(rho)
    # the peak sits slightly inside +/-1: both Gaussians pull inward
    from scipy.optimize import minimize_scalar

    prof = lambda x: -0.5 * (math.exp(-((x - 1) ** 2)) + math.exp(-((x + 1) ** 2)))
    ref = -minimize_scalar(prof, bounds=(0.0, 1.5), method="bounded",
                           options={"xatol": 1e-12}).fun
    assert r.value == pytest.approx(ref, abs=1e-7)
    assert r.certificate <= 1e-8


def test_q_sup_dominates_q_tilde_samples():
    t = TruncationSpec((24,), tail_tol=1e-10)
    v = cat_vector(CatParams("odd", 1.1), t)
    r = q_sup(v)
    rng = np.random.default_rng(99)
    for _ in range(100):
        a = rng.normal(scale=0.9) + 1j * rng.normal(scale=0.9)
        if abs(a) > 2.2:  # keep the probe inside the certified region
            a *= 2.2 / abs(a)
        assert r.value + 1e-9 >= q_tilde(v, a)


def test_q_sup_product_rule():
    t = TruncationSpec((22,), tail_tol=1e-10)
    cat = cat_vector(CatParams("even", 1.0), t)
    joint = tensor(cat, cat)
    r2 = q_sup(joint)
    m1 = cat_qmax(CatParams("even", 1.0)).value
    assert r2.value == pytest.approx(m1 * m1, abs=1e-9)


def test_q_sup_deterministic():
    t = TruncationSpec((16,))
    v = number_basis_vector((2,), t)
    a = q_sup(v, seed=5)
    b = q_sup(v, seed=5)
    assert a.value == b.value
    assert a.certificate == b.certificate
    assert all(np.array_equal(x, y) for x, y in zip(a.argmax, b.argmax))


def test_q_sup_coherent_state_trivial():
    t = TruncationSpec((24,), tail_tol=1e-9)
    v = coherent_amps(0.7, t)
    r = q_sup(v, hints=[np.array([0.7 + 0j])])
    assert r.value == pytest.approx(1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# the evaluator's exact gradient, and oracles from passive invariance


def _random_vector(rng, shape):
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return amps / np.linalg.norm(amps)


def _gradient_cases():
    rng = np.random.default_rng(41)
    one = FockVector(TruncationSpec((10,)), _random_vector(rng, (11,)))
    two = FockVector(TruncationSpec((6, 5)), _random_vector(rng, (7, 6)))
    q, _ = np.linalg.qr(rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3)))
    mat = (q * np.array([0.5, 0.3, 0.2])) @ q.conj().T
    dens = DensityMatrix(TruncationSpec((4, 3)), mat)
    three = FockVector(TruncationSpec((3, 4, 2)), _random_vector(rng, (4, 5, 3)))
    return {"vector-1-mode": one, "vector-2-modes": two, "vector-3-modes": three,
            "density-rank-3": dens}


def _dim(state):
    return 2 * state.trunc.nmodes


def _at(target, x):
    """Q, gradient and Hessian at one point, through the batched evaluator."""
    q, grad, hess = target.evaluate(np.asarray(x, dtype=float)[None])
    return q[0], grad[0], hess[0]


@pytest.mark.parametrize("name", sorted(_gradient_cases()))
def test_exact_gradient_matches_central_differences(name):
    state = _gradient_cases()[name]
    target = _BargmannTarget(state)
    if name == "density-rank-3":
        assert len(target.weights) == 3
    dim = _dim(state)
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(20):
        x = rng.normal(size=dim)
        grad = _at(target, x)[1]
        fd = np.array([
            (_at(target, x + e)[0] - _at(target, x - e)[0]) / (2.0 * h)
            for e in h * np.eye(dim)
        ])
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)


@pytest.mark.parametrize("name", sorted(_gradient_cases()))
def test_exact_hessian_matches_central_differences_of_the_gradient(name):
    state = _gradient_cases()[name]
    target = _BargmannTarget(state)
    dim = _dim(state)
    rng = np.random.default_rng(8)
    h = 1e-6
    for x in rng.normal(size=(10, dim)):
        hess = _at(target, x)[2]
        fd = np.array([
            (_at(target, x + e)[1] - _at(target, x - e)[1]) / (2.0 * h)
            for e in h * np.eye(dim)
        ])
        assert np.linalg.norm(fd - hess) <= 1e-6 * np.linalg.norm(hess)


@pytest.mark.parametrize("name", sorted(_gradient_cases()))
def test_batched_rows_match_single_rows(name):
    state = _gradient_cases()[name]
    target = _BargmannTarget(state)
    xs = np.random.default_rng(9).normal(size=(7, _dim(state)))
    batched = target.evaluate(xs)
    for i, x in enumerate(xs):
        for got, ref in zip(batched, _at(target, x)):
            assert np.abs(got[i] - ref).max() <= 1e-15 * max(1.0, np.abs(ref).max())
    # chunks of two rows give the same rows
    target._chunk = 2
    for got, ref in zip(target.evaluate(xs), batched):
        assert np.abs(got - ref).max() <= 1e-15 * max(1.0, np.abs(ref).max())


def test_contraction_carries_only_derivative_patterns_up_to_order_two():
    # 1 + 6 + 21 patterns on 6 modes, not 3^6 = 729
    psi = noon_vector(1, np.full(6, 1.0 / math.sqrt(6.0)), TruncationSpec((1,) * 6))
    target = _BargmannTarget(psi)
    assert target._contract(np.zeros((2, 12))).shape == (2, 28, 1)


def test_one_batched_evaluation_of_a_large_state_stays_small():
    # uniform N00N n = 2 on 12 modes: 3^12 amplitudes (8.5 MB)
    m = 12
    psi = noon_vector(2, np.full(m, 1.0 / math.sqrt(m)), TruncationSpec((2,) * m))
    target = _BargmannTarget(psi)
    xs = np.random.default_rng(5).normal(scale=0.3, size=(8, 2 * m))
    tracemalloc.start()
    try:
        q = target.evaluate(xs)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * psi.flat.nbytes
    assert q[0] == pytest.approx(_at(target, xs[0])[0], abs=1e-15)


@pytest.mark.parametrize("name", ["vector-1-mode", "vector-2-modes", "density-rank-3"])
def test_bargmann_value_matches_the_coherent_amplitude_contraction(name):
    # reference: <alpha|rho|alpha> with |alpha> from the per-mode recurrence
    state = _gradient_cases()[name]
    target = _BargmannTarget(state)
    m = state.trunc.nmodes
    rho = state.mat if isinstance(state, DensityMatrix) else np.outer(state.flat, state.flat.conj())
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=2 * m)
        c = np.ones(1)
        for a, n in zip(x[:m] + 1j * x[m:], state.trunc.cutoffs):
            c = np.multiply.outer(c, _coherent_mode_amps(a, n)).ravel()
        ref = float(np.vdot(c, rho @ c).real)
        assert _at(target, x)[0] == pytest.approx(ref, abs=1e-14)


@pytest.mark.parametrize("parity,beta,eta", [("even", 1.3, 0.3), ("odd", 0.8, 0.6)])
def test_q_sup_of_a_split_cat_is_the_cat_supremum(parity, beta, eta):
    cat = StateSpec("cat", {"parity": parity, "beta": beta}).build()
    vac = number_basis_vector((0,), cat.trunc)
    split = apply_affine(AffineOptics(beam_splitter(eta), np.zeros(2)), tensor(cat, vac))
    r = q_sup(split)
    assert r.converged
    assert abs(r.value - cat_qmax(CatParams(parity, beta)).value) <= 1e-10


def test_q_sup_of_an_interferometer_image_of_a_number_product():
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    psi = number_basis_vector((1, 2, 0), TruncationSpec((3, 3, 3)))
    image = apply_affine(AffineOptics(u, np.zeros(3)), psi)
    r = q_sup(image)
    assert r.converged
    assert abs(r.value - GAMMA_REF[1] * GAMMA_REF[2]) <= 1e-10


def test_q_sup_finds_the_peak_of_a_sparse_three_mode_vector():
    # the default starts once stopped at a local maximum 0.050937 here; the
    # peak is the value 300 starts find
    rng = np.random.default_rng(14)
    amps = (rng.normal(size=(5, 5, 5)) + 1j * rng.normal(size=(5, 5, 5))) * (
        rng.random((5, 5, 5)) < 0.4
    )
    psi = FockVector(TruncationSpec((4, 4, 4)), amps / np.linalg.norm(amps))
    r = q_sup(psi)
    assert r.converged
    assert r.value == pytest.approx(0.06274351925369401, abs=1e-12)


# the draws of the ROADMAP's Standing multistart recipe, built by the tool
# that counts the draws the default search misses
_TOOL = Path(__file__).resolve().parent.parent / "tools" / "standing_misses.py"
_spec = importlib.util.spec_from_file_location("standing_misses", _TOOL)
_standing_misses = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_standing_misses)
standing_draw = _standing_misses.standing_draw


def test_q_sup_finds_the_peak_of_the_standing_draw():
    # Newton steps on Q stopped at a local maximum 0.0334863 here; the peak
    # is the value 300 starts find
    r = q_sup(standing_draw(32))
    assert r.converged
    assert r.value == pytest.approx(0.04077183794428015, abs=1e-9)


@pytest.mark.parametrize(
    "seed, peak",
    [(47, 0.035450266925863484), (56, 0.04509834891721631), (118, 0.04307277724546441)],
)
def test_q_sup_finds_the_peaks_of_more_standing_draws(seed, peak):
    # the default starts once missed all three; the peak is the value 300
    # starts find
    r = q_sup(standing_draw(seed))
    assert r.converged
    assert r.value == pytest.approx(peak, abs=1e-9)


def test_a_start_in_the_gaussian_tail_climbs_in_a_few_rounds():
    # one start at the hint; the origin and mode mean starts sit where Q
    # and its gradient vanish and stop at once
    for n, cutoff, alpha, max_evals in [
        # Q = 1.4e-5 at alpha = 4 on |2>: steps on log Q leave the tail at
        # once, 9 evaluations in all, where steps on Q took 18 (about a
        # factor e of Q per round)
        (2, 30, 4.0, 10),
        # Q = 8.4e-15 at alpha = 6 on |1>, where Q's gradient is already
        # below the stopping tolerance and log Q's is not
        (1, 80, 6.0, 12),
    ]:
        psi = number_basis_vector((n,), TruncationSpec((cutoff,)))
        r = q_sup(psi, [np.array([alpha + 0j])], n_starts=3)
        assert r.converged
        assert r.value == pytest.approx(GAMMA_REF[n], abs=1e-12)
        assert r.n_evaluations <= max_evals


def _ring_times_coherent_peak(energy):
    from scipy.optimize import minimize_scalar
    from scipy.special import i0e

    s = math.sqrt(energy)
    # e^{-E - r^2} I0(2 s r) = i0e(2 s r) e^{-(s - r)^2}; the coherent
    # factor peaks at 1 on its own point
    prof = lambda r: -i0e(2.0 * s * r) * math.exp(-((s - r) ** 2))
    return -minimize_scalar(prof, bounds=(0.0, s + 1.0), method="bounded",
                            options={"xatol": 1e-12}).fun


def _floating_point_cases():
    t = TruncationSpec((12,))
    one = number_basis_vector((1,), t)
    mat = 0.5 * (outer(one).mat + outer(number_basis_vector((2,), t)).mat)
    root = math.sqrt(2.0)
    ens = ClassicalEnsemble(
        ((1.0, ProductComponent((RingFactor(2.0), CoherentFactor(0.6 - 0.3j)))),)
    )
    return {
        # Q(0) = 0 and its gradient vanish at the origin start
        "number-1": (one, None, GAMMA_REF[1]),
        # rank 2 of 13, and Q(0) = 0: Q = e^{-t} (t / 2 + t^2 / 4), t = |alpha|^2
        "density-rank-2": (
            DensityMatrix(t, mat), None, math.exp(-root) * (root / 2 + 0.5)
        ),
        "ring-times-coherent": (_realized(ens), None, _ring_times_coherent_peak(2.0)),
        # Q = 3.5e-10 at alpha = 5, and Q underflows to 0 at alpha = 40
        "tail-hints": (
            number_basis_vector((1,), TruncationSpec((40,))),
            [np.array([5.0 + 0j]), np.array([40.0 + 0j])],
            GAMMA_REF[1],
        ),
    }


@pytest.mark.parametrize("name", sorted(_floating_point_cases()))
def test_q_sup_raises_no_floating_point_exception(name):
    state, hints, peak = _floating_point_cases()[name]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        r = q_sup(state, hints)
    assert r.converged
    assert r.value == pytest.approx(peak, abs=1e-12)


# ---------------------------------------------------------------------------
# value-only overlaps on the support, and repeat calls


def _support_cases():
    rng = np.random.default_rng(23)
    cases = {}
    for m, cutoffs in enumerate([(12,), (5, 3), (3, 4, 2), (2, 1, 3, 2), (1, 2, 2, 1, 2)], 1):
        shape = tuple(n + 1 for n in cutoffs)
        amps = _random_vector(rng, shape) * (rng.random(shape) < 0.6)
        cases[f"vector-{m}-modes"] = FockVector(TruncationSpec(cutoffs), amps)
    cases["density-rank-3"] = _gradient_cases()["density-rank-3"]
    return cases


@pytest.mark.parametrize("name", sorted(_support_cases()))
def test_support_overlaps_match_the_bargmann_evaluator(name):
    state = _support_cases()[name]
    m = state.trunc.nmodes
    rng = np.random.default_rng(5)
    alphas = rng.normal(size=(12, m)) + 1j * rng.normal(size=(12, m))
    ref = _BargmannTarget(state).evaluate(np.array([_as_x(a) for a in alphas]))[0]
    form = _Support.of(state) if isinstance(state, FockVector) else state
    got = _support_overlaps(form, alphas)
    assert np.abs(got - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


def test_support_overlaps_at_a_rotated_witness_points():
    # the points of a ring witness carried by a mode rotation, as the
    # saturation check reads them
    rng = np.random.default_rng(9)
    psi = FockVector(TruncationSpec((2, 2, 2)), _random_vector(rng, (3, 3, 3)))
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    points = [
        rotation @ pt
        for _, comp in phase_ring(1.0, mode=0, nmodes=3).components
        for pt in comp.representative_points()
    ]
    ref = _BargmannTarget(psi).evaluate(np.array([_as_x(p) for p in points]))[0]
    assert np.abs(_support_overlaps(_Support.of(psi), points) - ref).max() <= 1e-15


def test_q_sup_repeats_its_result():
    rng = np.random.default_rng(31)
    psi = FockVector(TruncationSpec((3, 3)), _random_vector(rng, (4, 4)))
    a, b = q_sup(psi), q_sup(psi)
    assert (a.value, a.certificate, a.method, a.n_evaluations, a.ties) == (
        b.value, b.certificate, b.method, b.n_evaluations, b.ties
    )
    assert len(a.argmax) == len(b.argmax)
    assert all(np.array_equal(x, y) for x, y in zip(a.argmax, b.argmax))


# ---------------------------------------------------------------------------
# tied maximizers


def _displaced_two(gamma):
    return apply_affine(
        AffineOptics(np.eye(1), np.array([gamma])),
        number_basis_vector((2,), TruncationSpec((28,))),
    )


def _ring_peak_searches():
    # a displaced |2> peaks on a circle and an interferometer image of
    # |1,1,0> on a torus, so the starts end at many tied maximizers
    displaced = _displaced_two(0.5 + 0.3j)
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    image = apply_affine(
        AffineOptics(u, np.zeros(3)), number_basis_vector((1, 1, 0), TruncationSpec((2, 2, 2)))
    )
    return {"displaced-2": displaced, "interferometer-110": image}


def _greedy_ties(x, q, best):
    """The tie gathering as one loop: a candidate is kept unless a kept one
    lies within 1e-4 of it in every coordinate."""
    kept = []
    for k, i in enumerate(np.argsort(-q, kind="stable")):
        if k > 0 and q[i] < best - 1e-9 * max(1.0, abs(best)):
            break
        if all(np.abs(x[i] - x[j]).max() > 1e-4 for j in kept):
            kept.append(i)
    kept.sort(key=lambda i: tuple(np.round(x[i], 8)))
    return kept


@pytest.mark.parametrize("name", sorted(_ring_peak_searches()))
def test_tied_maximizers_match_the_greedy_loop(name, monkeypatch):
    calls = []

    def recorded(x, q, best):
        calls.append((x.copy(), q.copy(), best))
        return _tied_maximizers(x, q, best)

    monkeypatch.setattr(husimi, "_tied_maximizers", recorded)
    r = q_sup(_ring_peak_searches()[name])
    (x, q, best), = calls
    kept = _tied_maximizers(x, q, best)
    assert len(kept) > 5
    assert kept.tolist() == _greedy_ties(x, q, best)
    assert len(r.argmax) == len(kept)


def test_tied_maximizers_keep_one_of_each_cluster_in_greedy_order():
    # rows 0 and 1 sit 5e-5 apart, row 2 is 5e-5 from row 1 but just over 1e-4 from
    # row 0, so the greedy pass keeps 0 and 2; row 3 is below the tie
    x = np.array([[0.0, 1.0], [5e-5, 1.0], [1.0001e-4, 1.0], [-1.0, 0.0]])
    q = np.array([0.5, 0.5, 0.5, 0.4])
    assert _tied_maximizers(x, q, 0.5).tolist() == [0, 2] == _greedy_ties(x, q, 0.5)
    # the best row is kept even where another evaluation edged it out
    assert _tied_maximizers(x, q, 0.6).tolist() == [0] == _greedy_ties(x, q, 0.6)


def _reported_peak_cases():
    cases = dict(_ring_peak_searches())
    cases.update({f"standing-{s}": standing_draw(s) for s in (32, 47, 56, 118)})
    return cases


@pytest.mark.parametrize("name", sorted(_reported_peak_cases()))
def test_every_reported_maximizer_is_a_stationary_point_at_the_value(name):
    # retired starts are left out of argmax: each point there is a start
    # that stopped on the peak itself
    state = _reported_peak_cases()[name]
    r = q_sup(state)
    q, grad, _ = _BargmannTarget(state).evaluate(np.array([_as_x(a) for a in r.argmax]))
    assert np.linalg.norm(grad, axis=1).max() <= CERT_THRESHOLD
    assert np.abs(q - r.value).max() <= 1e-12


@pytest.mark.parametrize(
    "gamma, value, evaluations_before, retires",
    [
        # its 12 starts end 0.7 apart on the ring, so none retires
        (0.5 + 0.3j, 0.27067056647322607, 73, False),
        # here starts retire near maximizers other starts already hold
        (-0.987642 - 0.193626j, 0.27067056647322624, 69, True),
    ],
)
def test_retirement_keeps_the_value_of_a_displaced_number_state(
    gamma, value, evaluations_before, retires
):
    # the values and evaluation counts are those of the search before
    # starts retired
    r = q_sup(_displaced_two(gamma))
    assert abs(r.value - value) <= 1e-15
    assert (r.n_evaluations < evaluations_before) == retires
    assert r.n_evaluations <= evaluations_before


def test_lattice_points_are_seeded_shared_points_in_the_unit_box():
    # every search dimension up to 64 (2m for m modes)
    for dim in range(1, 65):
        for n in (0, 1, 4 * dim + 2, 300):
            pts = _lattice_points(n, dim, 1729)
            assert pts.shape == (n, dim)
            assert ((pts >= 0.0) & (pts < 1.0)).all()
            assert pts is _lattice_points(n, dim, 1729)
            if n:
                assert not np.array_equal(pts, _lattice_points(n, dim, 1730))
        # point 1 less its shift is the generator g = phi^-(1..dim), phi the
        # positive root of x^(dim + 1) = x + 1: divided by phi^(dim + 1),
        # that equation reads g_dim (1 + g_1) = 1
        g = (_lattice_points(1, dim, 7)[0] - np.random.default_rng(7).random(dim)) % 1.0
        assert g[-1] * (1.0 + g[0]) == pytest.approx(1.0, rel=1e-14, abs=0)
        assert np.allclose(g, g[0] ** np.arange(1, dim + 1), rtol=1e-12, atol=0)
    with pytest.raises(ValueError):
        pts[0, 0] = 0.5
