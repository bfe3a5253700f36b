import math

import numpy as np
import pytest

from ncdist.errors import NumericalInconsistency
from ncdist.fock import (
    DensityMatrix,
    FockVector,
    TruncationSpec,
    coherent_amps,
    displacement,
    number_basis_vector,
    outer,
    passive_unitary,
    poisson_pmf,
    tensor,
)
from ncdist.metrics import (
    fidelity,
    fuchs_vdg_check,
    helstrom_saturation,
    trace_distance,
    trace_distance_diag,
    trace_distance_pure_diag,
)


def random_density(dim, rng, rank=None):
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    r = g @ g.conj().T
    return r / np.trace(r).real


def wrap(mat, cutoff):
    return DensityMatrix(TruncationSpec((cutoff,)), mat)


def random_unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_phase_ring_vs_number_distance():
    # D( phase-averaged coherent ring at energy n , |n> ) = 1 - e^{-n} n^n / n!
    refs = {
        1: 0.63212055882855767,
        2: 0.7293294335267746,
        3: 0.77595819234461227,
    }
    for n, ref in refs.items():
        cut = max(8 * n, 29)
        t = TruncationSpec((cut,))
        ring = DensityMatrix(t, np.diag(poisson_pmf(float(n), cut)).astype(complex))
        num = outer(number_basis_vector((n,), t))
        assert trace_distance(ring, num) == pytest.approx(ref, abs=1e-10)
        # diagonal fast path agrees with the dense route
        dd = trace_distance_diag(ring.diagonal(), num.diagonal())
        assert dd == pytest.approx(ref, abs=1e-10)
        # pure-vs-diagonal block path agrees too
        pd = trace_distance_pure_diag(
            number_basis_vector((n,), t), ring.diagonal()
        )
        assert pd == pytest.approx(ref, abs=1e-10)


def test_pure_pure_distance_formula():
    t = TruncationSpec((29,), tail_tol=1e-9)
    a = outer(coherent_amps(0.5, t))
    b = outer(coherent_amps(0.8, t))
    ref = np.sqrt(1.0 - np.exp(-0.09))
    assert trace_distance(a, b) == pytest.approx(ref, abs=1e-9)


def test_trace_distance_zero_iff_equal():
    rng = np.random.default_rng(5)
    r = random_density(6, rng)
    a = wrap(r, 5)
    assert trace_distance(a, wrap(r.copy(), 5)) < 1e-14


def test_pure_diag_block_route_matches_dense():
    rng = np.random.default_rng(17)
    t = TruncationSpec((7,))
    q = rng.random(8)
    q /= q.sum()
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps[3] = 0.0  # give the support split something to split on
    amps /= np.linalg.norm(amps)
    from ncdist.fock import FockVector

    psi = FockVector(t, amps)
    dense = trace_distance(
        DensityMatrix(t, np.outer(amps, amps.conj())),
        DensityMatrix(t, np.diag(q).astype(complex)),
    )
    block = trace_distance_pure_diag(psi, q)
    assert block == pytest.approx(dense, abs=1e-12)


def test_fidelity_matches_textbook_route():
    rng = np.random.default_rng(7)
    a = random_density(5, rng)
    b = random_density(5, rng)
    # frozen reference computed via Tr sqrt(sqrt(a) b sqrt(a))
    assert fidelity(wrap(a, 4), wrap(b, 4)) == pytest.approx(
        0.75679342602015254, abs=1e-12
    )


def test_fidelity_pure_states_is_overlap():
    t = TruncationSpec((20,), tail_tol=1e-9)
    u = coherent_amps(0.4, t)
    v = coherent_amps(-0.2 + 0.1j, t)
    f = fidelity(outer(u), outer(v))
    ref = abs(np.vdot(u.flat, v.flat))
    assert f == pytest.approx(ref, abs=1e-10)


def test_fuchs_vdg_chain_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        a = wrap(random_density(dim, rng, rank=int(rng.integers(1, dim + 1))), dim - 1)
        b = wrap(random_density(dim, rng, rank=int(rng.integers(1, dim + 1))), dim - 1)
        lo, d, hi = fuchs_vdg_check(a, b)
        assert lo - 1e-9 <= d <= hi + 1e-9


def test_helstrom_measurement_attains_trace_distance():
    rng = np.random.default_rng(29)
    for _ in range(20):
        dim = int(rng.integers(2, 10))
        a = wrap(random_density(dim, rng), dim - 1)
        b = wrap(random_density(dim, rng), dim - 1)
        kd, td = helstrom_saturation(a, b)
        assert kd == pytest.approx(td, abs=1e-9)


def test_measurement_monotonicity():
    rng = np.random.default_rng(31)
    a = wrap(random_density(7, rng), 6)
    b = wrap(random_density(7, rng), 6)
    d = trace_distance(a, b)
    for _ in range(20):
        # outcome distributions of a projective measurement in the basis u
        u = random_unitary(7, rng)
        pa = np.einsum("ij,ik,kj->j", u.conj(), a.mat, u).real
        pb = np.einsum("ij,ik,kj->j", u.conj(), b.mat, u).real
        assert 0.5 * np.abs(pa - pb).sum() <= d + 1e-12


def test_unitary_invariance_of_trace_distance():
    # justification for computing witness distances in a rotated mode basis
    rng = np.random.default_rng(37)
    t = TruncationSpec((4, 4))
    # restrict to total photon number <= 4, where the truncated
    # interferometer acts exactly unitarily (no cropped shells)
    keep = np.diag((t.totals() <= 4).astype(complex))
    def project(r):
        r = keep @ r @ keep
        return r / np.trace(r).real
    a = wrap_nd(project(random_density(25, rng, rank=3)), t)
    b = wrap_nd(project(random_density(25, rng, rank=4)), t)
    d0 = trace_distance(a, b)
    u = random_unitary(2, rng)
    w = passive_unitary(u, t)
    def conjugated(op, r):
        # U rho U^+ = (U (U rho)^+)^+, from the operator's one apply
        return wrap_nd(op.apply(op.apply(r.mat).conj().T).conj().T, r.trunc)

    d1 = trace_distance(conjugated(w, a), conjugated(w, b))
    assert d1 == pytest.approx(d0, abs=1e-9)
    # and under displacements
    dsp = displacement([0.3, -0.2j], TruncationSpec((12, 12), tail_tol=1e-9))
    t2 = TruncationSpec((12, 12), tail_tol=1e-9)
    a2 = outer(coherent_amps([0.2, 0.1], t2))
    b2 = outer(tensor(number_basis_vector((1,), TruncationSpec((12,), tail_tol=1e-9)),
                      number_basis_vector((0,), TruncationSpec((12,), tail_tol=1e-9))))
    d2 = trace_distance(a2, b2)
    d3 = trace_distance(conjugated(dsp, a2), conjugated(dsp, b2))
    assert d3 == pytest.approx(d2, abs=1e-7)


def wrap_nd(mat, trunc):
    return DensityMatrix(trunc, mat)


def test_triangle_inequality_random():
    rng = np.random.default_rng(43)
    for _ in range(10):
        a = wrap(random_density(6, rng), 5)
        b = wrap(random_density(6, rng), 5)
        c = wrap(random_density(6, rng), 5)
        assert trace_distance(a, c) <= (
            trace_distance(a, b) + trace_distance(b, c) + 1e-12
        )


def test_fidelity_rejects_non_psd():
    t = TruncationSpec((1,))
    bad = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
    with pytest.raises(NumericalInconsistency):
        fidelity(DensityMatrix(t, bad), DensityMatrix(t, np.eye(2, dtype=complex) / 2))


def _dense_pure_diag(f, q):
    """Reference: the support block's spectrum from a dense eigensolve."""
    s = np.flatnonzero(f)
    block = np.outer(f[s], f[s].conj()) - np.diag(q[s])
    return 0.5 * (float(np.abs(np.linalg.eigvalsh(block)).sum()) + float(q.sum() - q[s].sum()))


def _secular_cases():
    rng = np.random.default_rng(2024)
    for k in range(240):
        n = 1 + k % 80
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        f /= np.linalg.norm(f) * (1.0 + 0.2 * rng.random())
        a = np.abs(f) ** 2
        kind = k % 4
        if kind == 0:  # a generic diagonal state
            q = rng.random(n)
        elif kind == 1:  # q = 0 on part of the support
            q = rng.random(n) * (rng.random(n) < 0.5)
        elif kind == 2:  # near-degenerate: q within 1e-9 of |f|^2
            q = a * (1.0 + 1e-9 * rng.normal(size=n))
        else:  # q = |f|^2 up to percent-level noise
            q = np.abs(a * (1.0 + 0.01 * rng.normal(size=n)))
        if kind < 2 and q.sum() > 0:
            q *= rng.random() / q.sum()
        # two basis states off the support, one of them empty
        yield np.concatenate([f, [0.0, 0.0]]), np.concatenate([q, [0.01 * rng.random(), 0.0]])


def test_secular_pure_diag_distance_matches_the_dense_block():
    worst = 0.0
    for f, q in _secular_cases():
        psi = FockVector(TruncationSpec((len(f) - 1,)), f)
        worst = max(worst, abs(trace_distance_pure_diag(psi, q) - _dense_pure_diag(f, q)))
    assert worst < 1e-13


def test_secular_route_on_exact_eigenvalue_cases():
    t = TruncationSpec((3,))
    f = np.array([0.6, 0.8j, 0.0, 0.0])
    # q = |f|^2 on one entry: the block's top eigenvalue is 0 at n = 1
    one = FockVector(t, np.array([1.0, 0.0, 0.0, 0.0]))
    assert trace_distance_pure_diag(one, np.array([1.0, 0.0, 0.0, 0.0])) == 0.0
    # q = 0 on the support: the block is f f^+, with eigenvalue 1
    q = np.array([0.0, 0.0, 0.5, 0.5])
    assert trace_distance_pure_diag(FockVector(t, f), q) == pytest.approx(1.0, abs=1e-15)
    # q large on the support: no positive eigenvalue, D = (sum q - |f|^2) / 2
    q = np.array([0.9, 1.1, 0.0, 0.0])
    assert trace_distance_pure_diag(FockVector(t, f), q) == pytest.approx(0.5, abs=1e-15)


def test_pure_diag_distance_on_a_support_past_the_dense_cap():
    # |f_i|^2 = q_i = 1/N on N = 5000 entries: the block f f^+ - I/N has
    # eigenvalues 1 - 1/N (along f) and -1/N, so D = 1 - 1/N
    n = 5000
    rng = np.random.default_rng(8)
    f = np.exp(2j * np.pi * rng.random(n)) / math.sqrt(n)
    psi = FockVector(TruncationSpec((n - 1,)), f)
    assert trace_distance_pure_diag(psi, np.full(n, 1.0 / n)) == pytest.approx(1.0 - 1.0 / n, abs=1e-13)
    # two modes, 70 x 70 = 4900 nonzero amplitudes against the uniform q = 1/d
    # on all d = 6400 basis states: the same spectrum on the support plus
    # the mass off it gives D = 1 - 1/d again
    t = TruncationSpec((79, 79))
    amps = np.zeros((80, 80), dtype=np.complex128)
    amps[:70, :70] = np.exp(2j * np.pi * rng.random((70, 70))) / 70.0
    q = np.full(t.dim, 1.0 / t.dim)
    assert trace_distance_pure_diag(FockVector(t, amps), q) == pytest.approx(1.0 - 1.0 / t.dim, abs=1e-13)


def test_secular_route_with_an_amplitude_that_squares_to_zero():
    # |1e-170|^2 underflows to 0, and q = 0 there; the rest has q above
    # |f|^2 and a non-positive Rayleigh quotient, yet w(0) = 1.45 > 1 on it,
    # so the block's top eigenvalue is positive
    f = np.array([0.1, 0.7, 1e-170, 0.0])
    q = np.array([0.011, 0.9, 0.0, 0.05])
    psi = FockVector(TruncationSpec((3,)), f)
    got = trace_distance_pure_diag(psi, q)
    assert got == pytest.approx(_dense_pure_diag(f, q), abs=1e-13)
    assert got > 0.5 * (q.sum() - 0.5) + 1e-3
