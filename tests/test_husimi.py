import math
import tracemalloc

import numpy as np
import pytest

from ncdist.channels import AffineOptics, apply_affine
from ncdist.fock import (
    DensityMatrix,
    FockVector,
    TruncationSpec,
    _coherent_mode_amps,
    beam_splitter,
    coherent_amps,
    displacement,
    number_basis_vector,
    outer,
    tensor,
)
from ncdist.husimi import (
    _as_x,
    _BargmannTarget,
    _make_target,
    _sobol_points,
    _support_overlaps,
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
    ring = phase_ring(1.3)
    # direct sum: sum_k pois_k(E) e^{-A} A^k / k!
    from ncdist.fock import poisson_pmf

    a = 0.9
    pk = poisson_pmf(1.3, 60)
    qk = poisson_pmf(a * a, 60)
    ref = float(pk @ qk)
    assert q_tilde(ring, a) == pytest.approx(ref, abs=1e-14)
    # phase invariance
    assert q_tilde(ring, a * np.exp(0.7j)) == pytest.approx(ref, abs=1e-14)


@pytest.mark.parametrize(
    "state, alpha",
    [
        (phase_ring(1.0), [1.0, 0.5, 0.2]),
        (phase_ring(1.0, nmodes=2), [1.0]),
        (number_basis_vector((1, 0), TruncationSpec((4, 4))), [1.0]),
    ],
    ids=["ensemble-long", "ensemble-short", "vector-short"],
)
def test_q_tilde_rejects_a_mode_count_mismatch(state, alpha):
    with pytest.raises(ValueError, match="mode count mismatch"):
        q_tilde(state, alpha)


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
    ens = ClassicalEnsemble((
        (0.45, ProductComponent((RingFactor(1.3), CoherentFactor(0.4 - 0.2j)))),
        (0.35, ProductComponent((CoherentFactor(-0.5 + 0.1j), RingFactor(0.7)))),
        (0.2, ProductComponent((RingFactor(0.0), RingFactor(2.1)))),
    ))
    return {"vector-1-mode": one, "vector-2-modes": two, "vector-3-modes": three,
            "density-rank-3": dens, "ensemble": ens}


def _dim(state):
    return 2 * (state.nmodes if isinstance(state, ClassicalEnsemble) else state.trunc.nmodes)


def _at(target, x):
    """Q, gradient and Hessian at one point, through the batched evaluator."""
    q, grad, hess = target.evaluate(np.asarray(x, dtype=float)[None])
    return q[0], grad[0], hess[0]


@pytest.mark.parametrize("name", sorted(_gradient_cases()))
def test_exact_gradient_matches_central_differences(name):
    state = _gradient_cases()[name]
    target = _make_target(state)
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
    target = _make_target(state)
    dim = _dim(state)
    rng = np.random.default_rng(8)
    points = list(rng.normal(size=(10, dim)))
    if name == "ensemble":
        # alpha = 0, where every ring takes its isotropic limit, and a point
        # on the first component's ring (|alpha_1|^2 = 1.3)
        s = math.sqrt(1.3)
        points += [np.zeros(dim), np.array([s * math.cos(0.4), 0.3, s * math.sin(0.4), -0.2])]
    h = 1e-6
    for x in points:
        hess = _at(target, x)[2]
        fd = np.array([
            (_at(target, x + e)[1] - _at(target, x - e)[1]) / (2.0 * h)
            for e in h * np.eye(dim)
        ])
        assert np.linalg.norm(fd - hess) <= 1e-6 * np.linalg.norm(hess)


@pytest.mark.parametrize("name", sorted(_gradient_cases()))
def test_batched_rows_match_single_rows(name):
    state = _gradient_cases()[name]
    target = _make_target(state)
    xs = np.random.default_rng(9).normal(size=(7, _dim(state)))
    batched = target.evaluate(xs)
    for i, x in enumerate(xs):
        for got, ref in zip(batched, _at(target, x)):
            assert np.abs(got[i] - ref).max() <= 1e-15 * max(1.0, np.abs(ref).max())
    if name.startswith(("vector", "density")):
        # chunks of two rows give the same rows
        target._chunk = 2
        for got, ref in zip(target.evaluate(xs), batched):
            assert np.abs(got - ref).max() <= 1e-15 * max(1.0, np.abs(ref).max())


def test_contraction_carries_only_derivative_patterns_up_to_order_two():
    # 1 + 6 + 21 patterns on 6 modes, not 3^6 = 729
    psi = noon_vector(1, np.full(6, 1.0 / math.sqrt(6.0)), TruncationSpec((1,) * 6))
    target = _make_target(psi)
    assert target._contract(np.zeros((2, 12))).shape == (2, 28, 1)


def test_one_batched_evaluation_of_a_large_state_stays_small():
    # uniform N00N n = 2 on 12 modes: 3^12 amplitudes (8.5 MB)
    m = 12
    psi = noon_vector(2, np.full(m, 1.0 / math.sqrt(m)), TruncationSpec((2,) * m))
    target = _make_target(psi)
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
    target = _make_target(state)
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


def _standing_draw(seed):
    # the recipe of the ROADMAP's Standing multistart entry
    rng = np.random.default_rng(seed)
    rng.integers(2, 6)
    amps = (rng.normal(size=(6, 6, 6)) + 1j * rng.normal(size=(6, 6, 6))) * (
        rng.random((6, 6, 6)) < 0.4
    )
    return FockVector(TruncationSpec((5, 5, 5)), amps / np.linalg.norm(amps))


def test_q_sup_finds_the_peak_of_the_standing_draw():
    # Newton steps on Q stopped at a local maximum 0.0334863 here; the peak
    # is the value 300 starts find
    r = q_sup(_standing_draw(32))
    assert r.converged
    assert r.value == pytest.approx(0.04077183794428015, abs=1e-9)


def test_a_start_in_the_gaussian_tail_climbs_in_a_few_rounds():
    # one start at alpha = 4 on |2>, where Q = 1.4e-5; the origin and mode
    # mean starts sit where Q and its gradient vanish and stop at once.
    # Steps on log Q leave the tail at once: 9 evaluations in all, where
    # steps on Q took 18 (about a factor e of Q per round)
    psi = number_basis_vector((2,), TruncationSpec((30,)))
    r = q_sup(psi, [np.array([4.0 + 0j])], n_starts=3)
    assert r.converged
    assert r.value == pytest.approx(GAMMA_REF[2], abs=1e-12)
    assert r.n_evaluations <= 10


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
        "ring-times-coherent": (ens, None, _ring_times_coherent_peak(2.0)),
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
    got = _support_overlaps(state, alphas)
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
    assert np.abs(_support_overlaps(psi, points) - ref).max() <= 1e-15


def test_q_sup_repeats_its_result_and_shares_a_read_only_sobol_array():
    rng = np.random.default_rng(31)
    psi = FockVector(TruncationSpec((3, 3)), _random_vector(rng, (4, 4)))
    a, b = q_sup(psi), q_sup(psi)
    assert (a.value, a.certificate, a.method, a.n_evaluations, a.ties) == (
        b.value, b.certificate, b.method, b.n_evaluations, b.ties
    )
    assert len(a.argmax) == len(b.argmax)
    assert all(np.array_equal(x, y) for x, y in zip(a.argmax, b.argmax))
    pts = _sobol_points(18, 4, 1729)
    assert pts is _sobol_points(18, 4, 1729)
    with pytest.raises(ValueError):
        pts[0, 0] = 0.5


# every mode count a FockVector can have (dimension 2m), and some ensemble
# search dimensions
@pytest.mark.parametrize("dim", [2 * m for m in range(1, 22)] + [1, 3, 64])
def test_sobol_points_are_scipys_scrambled_sobol_points(dim):
    from scipy.stats import qmc

    m = max(1, dim // 2)
    for n in (1, 2, 8 * m + 1, 8 * m + 2, 300):
        for seed in (0, 1729, 2**31 - 1):
            ref = qmc.Sobol(dim, scramble=True, seed=seed).random_base2(
                max(1, math.ceil(math.log2(max(n, 2))))
            )[:n]
            assert np.array_equal(_sobol_points(n, dim, seed), ref), (n, dim, seed)


def test_sobol_points_stop_past_the_direction_number_table():
    with pytest.raises(ValueError):
        _sobol_points(1, 21202, 0)
