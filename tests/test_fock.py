import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import poisson as sp_poisson

from ncdist import fock
from ncdist.channels import AffineOptics, apply_affine
from ncdist.errors import DimensionTooLarge, NumericalInconsistency, TruncationTooSmall
from ncdist.fock import (
    DensityMatrix,
    FockVector,
    TruncationSpec,
    _coherent_mode_amps,
    annihilation_matrix,
    beam_splitter,
    coherent_amps,
    displacement,
    mean_total_energy,
    minimal_cutoff_for_tail,
    mode_means,
    number_basis_vector,
    outer,
    overlap,
    partial_trace,
    passive_apply,
    passive_unitary,
    poisson_pmf,
    poisson_tail,
    product_tail,
    tensor,
)
from ncdist.states import CatParams, cat_vector


def test_trunc_basic():
    t = TruncationSpec((3, 5))
    assert t.dim == 24
    assert t.shape == (4, 6)
    assert t.index((3, 5)) == 23
    assert t.index((1, 0)) == 6  # mode 1 varies slowest
    assert t.unravel(6) == (1, 0)


def test_trunc_rejects_zero_cutoff():
    with pytest.raises(ValueError):
        TruncationSpec((0, 3))


def test_trunc_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        TruncationSpec((2000, 2000))


def test_trunc_dimension_cap_counts_past_int64():
    # 2^64 basis states, which wrap to 0 in 64-bit integers
    assert TruncationSpec((1,) * 21).dim == 2**21
    with pytest.raises(DimensionTooLarge):
        TruncationSpec((1,) * 64)


def test_totals():
    t = TruncationSpec((2, 1))
    assert list(t.totals()) == [0, 1, 1, 2, 2, 3]


def test_coherent_single_mode_values():
    # direct-formula references: a^n e^{-|a|^2/2} / sqrt(n!) at a = 1
    t = TruncationSpec((6,), tail_tol=1e-4)
    v = coherent_amps(1.0, t)
    assert v.amps[0] == pytest.approx(0.60653065971263342, abs=1e-15)
    assert v.amps[1] == pytest.approx(0.60653065971263342, abs=1e-15)
    assert v.amps[2] == pytest.approx(0.42888194248035338, abs=1e-15)
    assert v.amps[3] == pytest.approx(0.24761510494160166, abs=1e-15)
    assert v.amps[6] == pytest.approx(0.022604063092587359, abs=1e-15)


def test_coherent_norm_defect_is_exact_poisson_tail():
    t = TruncationSpec((6,), tail_tol=1e-3)
    v = coherent_amps(1.0, t)
    assert v.norm_defect() == pytest.approx(8.3241149288038052e-05, abs=1e-12)
    # and the in-house tail agrees with scipy.stats.poisson
    assert poisson_tail(6, 1.0) == pytest.approx(
        1.0 - float(sp_poisson.cdf(6, 1.0)), abs=1e-15
    )


def test_coherent_two_mode_value_and_defect():
    t = TruncationSpec((6, 6), tail_tol=1e-3)
    v = coherent_amps([1.0, 1.0j], t)
    assert v.amps[1, 1] == pytest.approx(0.36787944117144233j, abs=1e-15)
    assert v.norm_defect() == pytest.approx(0.00016647536948710684, abs=1e-12)


def test_coherent_raises_with_sufficient_cutoffs():
    t = TruncationSpec((3,), tail_tol=1e-12)
    with pytest.raises(TruncationTooSmall) as exc:
        coherent_amps(2.0, t)
    sugg = exc.value.suggested_cutoffs
    assert sugg is not None and len(sugg) == 1
    assert poisson_tail(sugg[0], 4.0) <= 1e-12
    # suggested cutoff is minimal
    assert poisson_tail(sugg[0] - 1, 4.0) > 1e-12


def test_product_tail_is_exact_wherever_it_may_pass_tol():
    # Chernoff's bound stands in for the loss only where the bound is within
    # tol; elsewhere the loss is 1 - prod(1 - poisson_tail), bit for bit
    rng = np.random.default_rng(7)
    bounded = 0
    for _ in range(500):
        cuts = [int(c) for c in rng.integers(0, 40, size=int(rng.integers(1, 4)))]
        energies = [float(c * rng.uniform(0.0, 1.3)) for c in cuts]
        tol = float(10.0 ** rng.uniform(-15, -1))
        loss = 1.0 - math.prod(1.0 - poisson_tail(n, e) for n, e in zip(cuts, energies))
        got = product_tail(cuts, energies, tol)
        if loss > tol:
            assert got == loss
        else:
            assert loss <= got <= tol
            bounded += got != loss
    assert 0 < bounded < 500


def test_minimal_cutoff_for_tail_bisection():
    for energy in [0.3, 1.0, 4.0, 17.2]:
        n = minimal_cutoff_for_tail(energy, 1e-12)
        assert poisson_tail(n, energy) <= 1e-12
        assert n == 1 or poisson_tail(n - 1, energy) > 1e-12


def test_poisson_tail_matches_mpmath_to_2e13():
    # P[X > n] = P(n + 1, x), the regularized lower incomplete gamma, at 40
    # digits; draws whose tail is below the normal floats are skipped
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261020)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(400):
            n = int(rng.integers(1, 81))
            x = float(np.exp(rng.uniform(math.log(1e-3), math.log(3 * n + 30))))
            ref = mpmath.gammainc(n + 1, 0, x, regularized=True)
            if ref < 1e-300:
                continue
            worst = max(worst, float(abs(mpmath.mpf(poisson_tail(n, x)) - ref) / ref))
    assert worst <= 2e-13


def test_poisson_tail_edges():
    mpmath = pytest.importorskip("mpmath")

    def rel(n, x):
        with mpmath.workdps(40):
            ref = mpmath.gammainc(n + 1, 0, x, regularized=True)
            return float(abs(mpmath.mpf(poisson_tail(n, x)) - ref) / ref)

    # no mass past any cutoff at energy 0, as a float or in an array
    assert poisson_tail(0, 0.0) == 0.0 and poisson_tail(5, 0.0) == 0.0
    assert np.array_equal(poisson_tail(3, np.zeros((2, 2))), np.zeros((2, 2)))
    # at cutoff 0 the tail is 1 - e^-x, with no cancellation for small x
    assert rel(0, 1e-3) <= 1e-15
    # where the two sums meet, x = n + 1, and on either side of it
    for n in (1, 4, 30, 80):
        for x in (n + 1.0 - 1e-9, n + 1.0, n + 1.0 + 1e-9):
            assert rel(n, x) <= 2e-13
    # x >> n: the tail is 1 minus a vanishing head
    assert poisson_tail(2, 200.0) == 1.0
    assert rel(10, 80.0) <= 1e-15
    # past energy 700 e^-x underflows and the terms start near the cutoff
    for n, x in ((880, 900.0), (950, 900.0), (700, 750.0), (2100, 2000.0)):
        assert rel(n, x) <= 1e-12
    # an energy's tail is bit for bit the same alone or in an array, also
    # with energies on both sides of 700 (past cutoff 350 their tails are
    # not 1.0)
    es = np.array([[0.0, 1e-3, 0.5, 3.0, 5.0, 30.0, 350.0],
                   [699.0, 700.0, 701.0, 800.0, 1199.0, 1300.0, 2500.0]])
    for n in (0, 3, 30, 351, 790, 1200):
        alone = [[poisson_tail(n, float(e)) for e in row] for row in es]
        assert np.array_equal(poisson_tail(n, es), alone)
    with pytest.raises(ValueError):
        poisson_tail(3, np.array([1.0, -0.5]))


def test_poisson_tail_past_energy_700_matches_mpmath_to_1e14():
    # the terms start from a seed written around the mode, so k log E, E and
    # log k! (each near 2.4e4 at E = 3000) do not cancel in rounding
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        for x in (750.0, 1000.0, 3000.0):
            for n in (int(x) + d for d in (-300, -100, -30, -1, 0, 1, 30, 100, 300)):
                ref = mpmath.gammainc(n + 1, 0, x, regularized=True)
                worst = max(worst, float(abs(mpmath.mpf(poisson_tail(n, x)) - ref) / ref))
    assert worst <= 1e-14


def test_minimal_cutoff_for_tail_matches_a_gammainc_reference():
    from scipy.special import gammainc

    for tol in (1e-12, 1e-12 / 3, 1e-6, 0.3):
        for energy in np.concatenate([np.linspace(0.0, 60.0, 241), np.geomspace(1e-6, 1e3, 60)]):
            ref = 1
            while energy > 0 and gammainc(ref + 1, energy) > tol:
                ref += 1
            assert minimal_cutoff_for_tail(float(energy), tol) == ref, (energy, tol)


def test_poisson_pmf_matches_scipy():
    pm = poisson_pmf(2.5, 12)
    ref = sp_poisson.pmf(np.arange(13), 2.5)
    assert np.abs(pm - ref).max() < 1e-14
    assert pm[4] == pytest.approx(0.13360188578108528, abs=1e-15)
    # past energy 745 e^-energy underflows: the pmf is seeded at the mode,
    # alone or in an array
    for energy, cutoff in ((750.0, 900), (1000.0, 1273)):
        pm = poisson_pmf(energy, cutoff)
        ref = sp_poisson.pmf(np.arange(cutoff + 1), energy)
        assert np.abs(pm - ref).max() <= 1e-11 * ref.max()
        assert np.array_equal(poisson_pmf(np.array([2.5, energy]), cutoff)[:, 1], pm)


def _poisson_loop(energy: float, cutoff: int) -> np.ndarray:
    # reference: the scalar upward recurrence, one entry at a time
    out = np.zeros(cutoff + 1)
    out[0] = math.exp(-energy)
    for k in range(cutoff):
        out[k + 1] = out[k] * energy / (k + 1)
    return out


def test_poisson_pmf_of_an_energy_array_is_the_scalar_recurrence_bit_for_bit():
    energies = np.array([[0.0, 1e-5, 1.7], [3.0, 25.0, 60.0]])
    for cutoff in (0, 1, 7, 90):
        pm = poisson_pmf(energies, cutoff)
        assert pm.shape == (cutoff + 1,) + energies.shape
        for idx in np.ndindex(energies.shape):
            e = float(energies[idx])
            ref = _poisson_loop(e, cutoff)
            assert np.array_equal(pm[(slice(None),) + idx], ref)
            assert np.array_equal(poisson_pmf(e, cutoff), ref)
    with pytest.raises(ValueError):
        poisson_pmf(np.array([1.0, -0.5]), 4)


def _coherent_loop(alpha: complex, cutoff: int) -> np.ndarray:
    # reference: <n|alpha> by the per-n recurrence
    out = np.zeros(cutoff + 1, dtype=np.complex128)
    out[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(cutoff):
        out[n + 1] = out[n] * alpha / math.sqrt(n + 1)
    return out


def test_coherent_mode_amps_match_the_per_n_recurrence():
    # the vectorized recurrence multiplies by 1 / sqrt(n) where the loop
    # divides by sqrt(n): each entry has |u| <= 1 and picks up at most a
    # few ulps per step, so 1e-13 covers 200 steps
    alphas = np.array([[0.0, 1e-3j, 0.7 - 0.2j], [-2.5 + 1.0j, 6.0, 3.0j * np.exp(0.3j)]])
    for cutoff in (0, 5, 200):
        u = _coherent_mode_amps(alphas, cutoff)
        assert u.shape == alphas.shape + (cutoff + 1,)
        for idx in np.ndindex(alphas.shape):
            ref = _coherent_loop(complex(alphas[idx]), cutoff)
            assert np.abs(u[idx] - ref).max() <= 1e-13
            assert np.array_equal(_coherent_mode_amps(alphas[idx], cutoff), u[idx])


def test_coherent_mode_amps_seed_far_rows_near_their_peak():
    # e^{-|alpha|^2/2} is no normal float past |alpha|^2 = 1416.8, so those
    # rows are sqrt(poisson_pmf) e^{i n arg alpha}; every row is the same
    # alone or in a batch, on either side of the threshold (1400 and 1417)
    mpmath = pytest.importorskip("mpmath")
    alphas = np.array([
        [0.7 - 0.2j, 40.0, math.sqrt(1400.0) * np.exp(0.3j)],
        [45.0 * np.exp(0.4j), 3.0, math.sqrt(1417.0) * np.exp(-2.0j)],
    ])
    assert abs(alphas[0, 2]) ** 2 < fock._AMP_SEED_MAX_ENERGY < abs(alphas[1, 2]) ** 2
    u = _coherent_mode_amps(alphas, 2400)
    for idx in np.ndindex(alphas.shape):
        assert np.array_equal(u[idx], _coherent_mode_amps(alphas[idx], 2400))
    worst = 0.0
    with mpmath.workdps(50):
        for idx in [(0, 1), (0, 2), (1, 0), (1, 2)]:
            z = mpmath.mpc(alphas[idx].real, alphas[idx].imag)
            for n in range(0, 2401, 5):
                ref = mpmath.exp(n * mpmath.log(z) - abs(z) ** 2 / 2 - mpmath.loggamma(n + 1) / 2)
                if abs(ref) > 1e-150:  # |ref|^2 a normal float
                    worst = max(worst, float(abs(u[idx][n] - ref) / abs(ref)))
            assert np.linalg.norm(u[idx]) == pytest.approx(1.0, abs=1e-12)
    assert worst <= 1e-12


def test_number_vector_and_overlap():
    t = TruncationSpec((4, 4))
    v = number_basis_vector((2, 3), t)
    assert v.norm_defect() == 0.0
    w = coherent_amps([0.5, 0.5], TruncationSpec((4, 4), tail_tol=1e-2))
    ov = overlap(v, w)
    # <2,3|a,a> = (a^2/sqrt(2))(a^3/sqrt(6)) e^{-(|a|^2+|a|^2)/2}
    ref = (0.25 / np.sqrt(2)) * (0.125 / np.sqrt(6)) * np.exp(-0.25)
    assert ov == pytest.approx(ref, abs=1e-15)


def test_outer_and_partial_trace_roundtrip():
    ta = TruncationSpec((2,))
    tb = TruncationSpec((3,))
    a = coherent_amps(0.3, TruncationSpec((2,), tail_tol=1e-2))
    b = number_basis_vector((2,), tb)
    ra, rb = outer(a), outer(b)
    joint = tensor(ra, rb)
    back_a = partial_trace(joint, (0,))
    back_b = partial_trace(joint, (1,))
    # partial trace of a product recovers each factor scaled by the other's trace
    assert np.abs(back_a.mat - ra.mat * rb.trace()).max() < 1e-14
    assert np.abs(back_b.mat - rb.mat * ra.trace()).max() < 1e-14
    assert back_a.trace() == pytest.approx(ra.trace() * rb.trace(), abs=1e-14)


def test_density_requires_hermitian():
    t = TruncationSpec((1,))
    bad = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NumericalInconsistency):
        DensityMatrix(t, bad)


def test_mode_means_and_energy():
    t = TruncationSpec((8, 8), tail_tol=1e-6)
    v = coherent_amps([0.7, -0.2 + 0.4j], t)
    mm = mode_means(v)
    assert mm[0] == pytest.approx(0.7, abs=1e-7)
    assert mm[1] == pytest.approx(-0.2 + 0.4j, abs=1e-7)
    assert mean_total_energy(v) == pytest.approx(0.49 + 0.2, abs=1e-7)
    rho = outer(v)
    mm2 = mode_means(rho)
    assert np.abs(mm2 - mm).max() < 1e-12
    assert mean_total_energy(rho) == pytest.approx(mean_total_energy(v), abs=1e-12)


def test_hong_ou_mandel():
    t = TruncationSpec((2, 2))
    psi = FockVector(t, passive_apply(beam_splitter(0.5), number_basis_vector((1, 1), t).amps))
    s = 0.70710678118654746
    assert psi.amps[2, 0] == pytest.approx(s, abs=1e-12)
    assert psi.amps[0, 2] == pytest.approx(-s, abs=1e-12)
    assert abs(psi.amps[1, 1]) < 1e-12
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def _random_unitary(m, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _unitarity_defects(blocks, shells):
    """max |B^+ B - I| of each built block, by its photon number."""
    return {
        t: float(np.abs(b.conj().T @ b - np.eye(b.shape[1])).max(initial=0.0))
        for t, (_, b) in zip(shells, blocks)
    }


def test_passive_unitary_blocks_are_unitary():
    u = _random_unitary(3, 3)
    t = TruncationSpec((3, 3, 3))
    w = passive_unitary(u, t)
    assert len(w) == 10
    defects = _unitarity_defects(w, range(10))
    # a shell of total t <= every cutoff fits whole, so its block is unitary
    complete = [tt for tt in range(10) if tt <= min(t.cutoffs)]
    assert complete == [0, 1, 2, 3]
    for tt in complete:
        assert defects[tt] < 1e-10


def test_partial_passive_build_names_only_its_complete_shells():
    (w,) = passive_unitary(np.eye(2), TruncationSpec((3, 3)), [2])
    assert np.array_equal(w[0], [2, 5, 8])
    assert np.array_equal(w[1], np.eye(3))
    # shells 1 and 5 of a random interferometer: 5 is cropped by the cutoffs
    w = passive_unitary(_random_unitary(2, 4), TruncationSpec((3, 3)), [1, 5])
    assert [len(idx) for idx, _ in w] == [2, 2]
    defects = _unitarity_defects(w, [1, 5])
    assert defects[1] < 1e-12 and defects[5] > 1e-3


def test_passive_unitary_single_mode_phase():
    t = TruncationSpec((5,))
    phi = 0.37
    v = FockVector(t, np.ones(6) / np.sqrt(6))
    out = passive_apply(np.array([[np.exp(1j * phi)]]), v.amps)
    ref = v.flat * np.exp(1j * phi * np.arange(6))
    assert np.abs(out - ref).max() < 1e-12


def test_passive_unitary_preserves_coherent_states():
    # W|alpha> = |U alpha> for a passive interferometer
    rng = np.random.default_rng(11)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)
    t = TruncationSpec((14, 14), tail_tol=1e-8)
    alpha = np.array([0.5, -0.3 + 0.2j])
    before = coherent_amps(alpha, t)
    after = passive_apply(q, before.amps).ravel()
    ref = coherent_amps(q @ alpha, t)
    assert np.linalg.norm(after - ref.flat) < 1e-6


def test_passive_unitary_cropped_shells_are_exact_sub_blocks():
    # shells 4..9 at cutoff 3 lose basis states; what is left of each must
    # be the matching sub-block of the same shell at cutoff 9
    u = _random_unitary(3, 5)
    small = passive_unitary(u, TruncationSpec((3, 3, 3)))
    big = passive_unitary(u, TruncationSpec((9, 9, 9)), range(10))
    assert len(small) == 10
    for t, (idx, b) in enumerate(small):
        big_idx, big_b = big[t]
        ks = np.unravel_index(idx, (4, 4, 4))
        pos = np.searchsorted(big_idx, np.ravel_multi_index(ks, (10, 10, 10)))
        assert np.array_equal(big_idx[pos], np.ravel_multi_index(ks, (10, 10, 10)))
        assert np.abs(b - big_b[np.ix_(pos, pos)]).max() < 1e-13, t


def test_passive_unitary_two_modes_match_the_binomial_closed_form():
    # W|l> expands (u00 a0^+ + u10 a1^+)^l0 (u01 a0^+ + u11 a1^+)^l1 |0>
    u = _random_unitary(2, 7)
    w = passive_unitary(u, TruncationSpec((8, 8)))
    assert len(w) == 17

    def amp(k0, k1, l0, l1):
        s = sum(
            math.comb(l0, p) * u[0, 0] ** p * u[1, 0] ** (l0 - p)
            * math.comb(l1, k0 - p) * u[0, 1] ** (k0 - p) * u[1, 1] ** (l1 - k0 + p)
            for p in range(max(0, k0 - l1), min(l0, k0) + 1)
        )
        return s * math.sqrt(
            math.factorial(k0) * math.factorial(k1) / (math.factorial(l0) * math.factorial(l1))
        )

    for t, (idx, b) in enumerate(w):
        ks = list(zip(*np.unravel_index(idx, (9, 9))))
        assert all(sum(k) == t for k in ks)
        ref = np.array([[amp(*k, *l) for l in ks] for k in ks])
        assert np.abs(b - ref).max() < 1e-13, t


def _strides(shape):
    return [math.prod(shape[i + 1 :]) for i in range(len(shape))]


def _shell_block_oracle(u, trunc):
    """Every photon-number shell's block of the interferometer, by the ladder
    recurrence <k|W|l> = sum_j u[j, m] sqrt(k_j / l_m) <k - e_j|W|l - e_m>,
    m the first occupied mode of l: shell t from shell t - 1, one
    (flat basis indices, block) pair per shell."""
    totals = trunc.totals()
    rows = [np.flatnonzero(totals == t) for t in range(sum(trunc.cutoffs) + 1)]
    strides = np.array(_strides(trunc.shape))
    blocks = [(rows[0], np.ones((1, 1), dtype=np.complex128))]
    for t in range(1, len(rows)):
        ls = np.array(np.unravel_index(rows[t], trunc.shape))
        first = np.argmax(ls > 0, axis=0)
        down = rows[t] - strides[first]
        prev = blocks[-1][1][:, np.searchsorted(rows[t - 1], down)]
        prev = prev / np.sqrt(ls[first, np.arange(len(first))])
        mat = np.zeros((len(rows[t]), len(rows[t])), dtype=np.complex128)
        for j in range(trunc.nmodes):
            r = np.flatnonzero(ls[j])
            below = np.searchsorted(rows[t - 1], rows[t][r] - strides[j])
            mat[r] += np.sqrt(ls[j, r])[:, None] * prev[below] * u[j, first]
        blocks.append((rows[t], mat))
    return blocks


def _oracle_apply(blocks, x):
    out = np.zeros(x.shape, dtype=np.complex128)
    for idx, b in blocks:
        out[idx] = b @ x[idx]
    return out


@pytest.mark.parametrize("cutoffs, shells", [((3, 3, 3), [2, 7]), ((1,) * 10, [9])])
def test_passive_shells_match_the_full_operator(cutoffs, shells):
    # the requested shells alone, against the same shells of the whole
    # operator built by the ladder recurrence
    u = _random_unitary(len(cutoffs), 2)
    t = TruncationSpec(cutoffs)
    part = passive_unitary(u, t, shells)
    full = _shell_block_oracle(u, t)
    assert len(part) == len(shells)
    for (idx, b), s in zip(part, shells):
        assert np.array_equal(idx, full[s][0])
        assert np.abs(b - full[s][1]).max() < 1e-13


@pytest.mark.parametrize("cutoffs", [(9,), (6, 6), (3, 3, 3), (4, 2, 3)])
def test_passive_apply_matches_the_shell_block_recurrence(cutoffs):
    # random sparse and dense vectors, and rank 1-3 densities through
    # apply_affine; every truncation but (9,) crops its upper shells
    rng = np.random.default_rng(sum(cutoffs))
    t = TruncationSpec(cutoffs)
    u = _random_unitary(t.nmodes, len(cutoffs))
    oracle = _shell_block_oracle(u, t)
    channel = AffineOptics(u, np.zeros(t.nmodes))
    for density in (1.0, 0.3, 0.05):
        x = rng.normal(size=t.dim) + 1j * rng.normal(size=t.dim)
        x[rng.random(t.dim) > density] = 0.0
        x /= np.linalg.norm(x) or 1.0
        got = passive_apply(u, x.reshape(t.shape)).ravel()
        assert np.abs(got - _oracle_apply(oracle, x)).max() < 1e-14
    # a batch of full-support columns, cropped shells included
    a = rng.normal(size=(t.dim, 3)) + 1j * rng.normal(size=(t.dim, 3))
    got = passive_apply(u, a.reshape(t.shape + (3,))).reshape(t.dim, 3)
    assert np.abs(got - _oracle_apply(oracle, a)).max() < 1e-13
    # densities on the complete shells, where nothing leaks past the cutoffs
    complete = t.totals() <= min(cutoffs)
    for rank in (1, 2, 3):
        a = rng.normal(size=(t.dim, rank)) + 1j * rng.normal(size=(t.dim, rank))
        a[~complete] = 0.0
        a[rng.random(t.dim) > 0.7] = 0.0
        rho = DensityMatrix(t, a @ a.conj().T / np.linalg.norm(a) ** 2)
        want = _oracle_apply(oracle, _oracle_apply(oracle, rho.mat).conj().T).conj().T
        assert np.abs(apply_affine(channel, rho).mat - want).max() < 1e-14


def test_cat_vacuum_image_matches_the_binomial_closed_form():
    # W|l, 0> = (u00 a0^+ + u10 a1^+)^l / sqrt(l!) |0>, so the image of
    # sum_l c_l |l, 0> has amplitude c_{k0+k1} sqrt(C(k0+k1, k0)) u00^k0 u10^k1
    n = 35
    cat = cat_vector(CatParams("odd", 2.2), TruncationSpec((n,)))
    psi = tensor(cat, number_basis_vector((0,), TruncationSpec((n,))))
    u = _random_unitary(2, 12)
    got = passive_apply(u, psi.amps)
    k0, k1 = np.indices((n + 1, n + 1))
    tot = k0 + k1
    c = np.concatenate([cat.flat, np.zeros(n + 1)])[tot]
    binom = np.array([[math.comb(a + b, a) for b in range(n + 1)] for a in range(n + 1)], dtype=float)
    want = c * np.sqrt(binom) * u[0, 0] ** k0 * u[1, 0] ** k1
    assert np.abs(got - want).max() < 1e-14


@pytest.mark.parametrize("cutoffs", [(12,), (7, 7), (4, 4, 4)])
def test_passive_apply_keeps_the_norm_on_complete_shells(cutoffs):
    # a state on the shells no cutoff crops keeps its norm; so does each shell
    rng = np.random.default_rng(len(cutoffs))
    t = TruncationSpec(cutoffs)
    x = rng.normal(size=t.shape) + 1j * rng.normal(size=t.shape)
    totals = t.totals().reshape(t.shape)
    x[totals > min(cutoffs)] = 0.0
    got = passive_apply(_random_unitary(t.nmodes, 21), x)
    assert not got[totals > min(cutoffs)].any()
    for shell in range(min(cutoffs) + 1):
        on = totals == shell
        assert abs(np.linalg.norm(got[on]) - np.linalg.norm(x[on])) < 1e-13


def test_passive_unitary_caps_the_shell_entries_before_building():
    # 59,049 basis states, but the 10-photon shell alone has 8,953: its block
    # would take 1.3 GB, the whole operator 6 GB
    tracemalloc.start()
    try:
        with pytest.raises(DimensionTooLarge):
            passive_unitary(_random_unitary(10, 3), TruncationSpec((2,) * 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e7


def test_displacement_moves_vacuum_and_inverts():
    t = TruncationSpec((24,), tail_tol=1e-12)
    d = displacement(0.8, t)
    vac = number_basis_vector((0,), t)
    moved = d.apply(vac.flat)
    ref = coherent_amps(0.8, t)
    assert np.linalg.norm(moved - ref.flat) < 1e-9
    # the construction's own check, ||D(gamma)|0> - |gamma>||^2, passed well
    # inside its budget
    assert np.linalg.norm(moved - ref.flat) ** 2 < 1e-11
    # inverse displacement undoes it on a non-vacuum state too
    one = number_basis_vector((1,), t)
    back = displacement(-0.8, t).apply(d.apply(one.flat))
    assert np.linalg.norm(back - one.flat) < 1e-8
    # cropping makes the columns near the cutoff lossy, but the operator must
    # act unitarily on the low-lying ladder
    dd = d.mats[0].conj().T @ d.mats[0]
    assert np.abs(dd[:10, :10] - np.eye(10)).max() < 1e-10


@pytest.mark.parametrize("g, n", [(0.7 + 0.4j, 28), (2 + 1j, 40)])
def test_displacement_matches_scipy_expm(g, n):
    # reference: scipy's Pade exponential of the same enlarged generator,
    # cropped as displacement crops its own
    from scipy.linalg import expm

    extra = int(math.ceil(4.0 * abs(g) * math.sqrt(n))) + 10
    a = annihilation_matrix(n + extra)
    ref = expm(g * a.conj().T - np.conj(g) * a)[: n + 1, : n + 1]
    (mat,) = displacement(g, TruncationSpec((n,))).mats
    assert np.abs(mat - ref).max() <= 5e-15


@pytest.mark.parametrize(
    "g, n", [(0.7 + 0.4j, 28), (2 + 1j, 40), (1.2 * complex(math.cos(0.9), math.sin(0.9)), 30)]
)
def test_displacement_matches_mpmath(g, n):
    # reference: the closed form <k|D(g)|l> = sqrt(l! / k!) g^(k-l)
    # e^(-|g|^2 / 2) L_l^(k-l)(|g|^2) for k >= l, and its mirror
    # (-conj g)^(l-k) for k < l, in 30-digit arithmetic
    mpmath = pytest.importorskip("mpmath")

    ref = np.empty((n + 1, n + 1), dtype=np.complex128)
    with mpmath.workdps(30):
        z = mpmath.mpc(g.real, g.imag)
        x = abs(z) ** 2
        for k in range(n + 1):
            for l in range(n + 1):
                lo, hi = min(k, l), max(k, l)
                f = z if k >= l else -mpmath.conj(z)
                ref[k, l] = complex(
                    mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(hi)) * f ** (hi - lo)
                    * mpmath.exp(-x / 2) * mpmath.laguerre(lo, hi - lo, x)
                )
    (mat,) = displacement(g, TruncationSpec((n,))).mats
    assert np.abs(mat - ref).max() <= 5e-15


def test_displacement_keeps_one_read_only_ladder_eigensolve_per_size():
    # the enlarged ladder's size depends on |gamma| and the cutoff only, so
    # gammas of one magnitude share an eigensolve; sizes past the cap are
    # solved and not kept, and a zero gamma is the identity
    fock._ladder_eigh.cache_clear()
    first = displacement(0.5, TruncationSpec((20,))).mats[0]
    turned = displacement(0.5j, TruncationSpec((20,))).mats[0]
    info = fock._ladder_eigh.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 1, 32)
    lam, vecs = fock._ladder_eigh(20 + 9 + 11)
    assert not lam.flags.writeable and not vecs.flags.writeable
    # D(i g) = R D(g) R^+ with R = diag(i^k)
    r = 1j ** np.arange(21)
    assert np.abs(turned - r[:, None] * first * r.conj()).max() < 1e-14
    displacement(0.5, TruncationSpec((300,)))
    assert fock._ladder_eigh.cache_info().currsize == 1
    (_, same) = displacement([0.5, 0.0], TruncationSpec((20, 4))).mats
    assert np.array_equal(same, np.eye(5))


def test_displacement_rejects_small_cutoff():
    with pytest.raises(TruncationTooSmall):
        displacement(3.0, TruncationSpec((4,), tail_tol=1e-12))


def test_displacement_on_density_matches_vector_route():
    t = TruncationSpec((18,), tail_tol=1e-10)
    d = displacement(0.4 - 0.3j, t)
    psi = number_basis_vector((2,), t)
    # one apply serves both: D psi, and D rho D^+ = (D (D rho)^+)^+
    via_vec = outer(FockVector(t, d.apply(psi.flat).reshape(t.shape)))
    via_mat = d.apply(d.apply(outer(psi).mat).conj().T).conj().T
    assert np.abs(via_vec.mat - via_mat).max() < 1e-10


def test_tensor_vectors_row_major_layout():
    a = number_basis_vector((1,), TruncationSpec((2,)))
    b = number_basis_vector((2,), TruncationSpec((3,)))
    v = tensor(a, b)
    assert v.trunc.cutoffs == (2, 3)
    assert v.flat[v.trunc.index((1, 2))] == 1.0
