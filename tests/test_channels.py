import numpy as np
import pytest

from ncdist import channels
from ncdist import (
    AffineOptics,
    CatParams,
    ClassicalEnsemble,
    CoherentFactor,
    DensityMatrix,
    FockVector,
    ProductComponent,
    RingFactor,
    TruncationSpec,
    TruncationTooSmall,
    adjoin,
    affine_image,
    apply_affine,
    beam_splitter,
    cat_vector,
    coherent_amps,
    dephase_number,
    entangled_coherent_vector,
    number_basis_vector,
    outer,
    phase_ring,
    tensor,
    trace_distance,
    two_point_mixture,
)


def _random_unitary(m, rng):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_density(trunc, rng, max_total=4):
    d = trunc.dim
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    keep = np.array([sum(trunc.unravel(i)) <= max_total for i in range(d)])
    rho[~keep, :] = 0.0
    rho[:, ~keep] = 0.0
    return DensityMatrix(trunc, rho / np.trace(rho).real)


def test_affine_moves_coherent_labels():
    rng = np.random.default_rng(5)
    trunc = TruncationSpec((25, 25))
    alpha = np.array([0.6, -0.3 + 0.2j])
    u = _random_unitary(2, rng)
    gamma = np.array([0.4 - 0.1j, 0.25j])
    ch = AffineOptics(u, gamma)
    psi = coherent_amps(alpha, trunc)
    out = apply_affine(ch, psi)
    ref = coherent_amps(u @ alpha + gamma, trunc)
    # displacements compose with a physical (Weyl) phase, so compare rays
    ov = np.vdot(ref.flat, out.flat)
    assert abs(abs(ov) - 1.0) < 1e-10
    assert np.linalg.norm(out.flat * ov.conjugate() / abs(ov) - ref.flat) < 1e-10


def test_affine_on_density_matches_pure_route():
    rng = np.random.default_rng(6)
    trunc = TruncationSpec((22, 22))
    u = _random_unitary(2, rng)
    ch = AffineOptics(u, np.array([0.2, -0.3j]))
    a1 = np.array([0.5, 0.1j])
    a2 = np.array([-0.4, 0.3])
    rho = DensityMatrix(
        trunc,
        0.6 * outer(coherent_amps(a1, trunc)).mat
        + 0.4 * outer(coherent_amps(a2, trunc)).mat,
    )
    got = apply_affine(ch, rho)
    leak = abs(rho.trace() - got.trace())
    m1 = coherent_amps(ch.label_map(a1), trunc).flat
    m2 = coherent_amps(ch.label_map(a2), trunc).flat
    want = 0.6 * np.outer(m1, m1.conj()) + 0.4 * np.outer(m2, m2.conj())
    assert np.abs(got.mat - want).max() < 1e-6
    assert leak < 1e-10


def test_affine_leak_raises_with_suggestion():
    trunc = TruncationSpec((12,))
    psi = number_basis_vector((10,), trunc)
    ch = AffineOptics(np.eye(1), np.array([0.5]))
    with pytest.raises(TruncationTooSmall) as exc:
        apply_affine(ch, psi)
    assert exc.value.suggested_cutoffs[0] > 12


def test_affine_builds_only_the_shells_the_state_occupies(monkeypatch):
    # a uniform 10-mode single photon: 2^10 amplitudes, one occupied shell.
    # W|1_j> = sum_i u[i, j] |1_i>, so the image is sum_i (u c)_i |1_i>, and
    # every other shell stays exactly zero, on the vector and its density
    m = 10
    trunc = TruncationSpec((1,) * m)
    c = np.full(m, 1.0 / np.sqrt(m))
    photon = np.eye(m, dtype=int)
    amps = np.zeros(trunc.shape, dtype=np.complex128)
    for j in range(m):
        amps[tuple(photon[j])] = c[j]
    psi = FockVector(trunc, amps)
    u = _random_unitary(m, np.random.default_rng(8))

    def no_displacement(*args, **kwargs):
        raise AssertionError("D(0) = I is built")

    monkeypatch.setattr(channels, "displacement", no_displacement)
    out = apply_affine(AffineOptics(u, np.zeros(m)), psi)
    want = np.zeros(trunc.shape, dtype=np.complex128)
    for i, a in enumerate(u @ c):
        want[tuple(photon[i])] = a
    others = trunc.totals() != 1
    assert not out.flat[others].any()
    assert np.abs(out.amps - want).max() < 1e-14
    rho = apply_affine(AffineOptics(u, np.zeros(m)), outer(psi)).mat
    assert not rho[others].any() and not rho[:, others].any()
    assert np.abs(rho - np.outer(want, want.conj())).max() < 1e-14


def test_affine_skips_an_identity_interferometer(monkeypatch):
    # a displaced state: the identity mode matrix is not built, and the
    # output is the displacement's alone, on a vector and on a matrix
    trunc = TruncationSpec((14, 14))
    psi = coherent_amps([0.3, -0.2j], trunc)
    gammas = np.array([0.25, 0.1 + 0.1j])

    def no_interferometer(*args, **kwargs):
        raise AssertionError("the identity interferometer is built")

    monkeypatch.setattr(channels, "passive_apply", no_interferometer)
    d = channels.displacement(gammas, trunc)
    out = apply_affine(AffineOptics(np.eye(2), gammas), psi)
    assert np.array_equal(out.flat, d.apply(psi.flat))
    rho = outer(psi)
    out = apply_affine(AffineOptics(np.eye(2), gammas), rho)
    assert np.array_equal(out.mat, DensityMatrix(trunc, d.apply(d.apply(rho.mat).conj().T).conj().T).mat)
    # and with no displacement either, the state comes back unchanged
    assert np.array_equal(apply_affine(AffineOptics(np.eye(2), np.zeros(2)), psi).flat, psi.flat)


def test_beam_splitter_realizes_entangled_coherent():
    for beta in (0.4, 1.2, 3.0):
        n = max(12, int(np.ceil(beta**2 + 8 * beta + 20)))
        trunc = TruncationSpec((n, n))
        vac = number_basis_vector((0,), TruncationSpec((n,)))
        sources = {
            p: tensor(cat_vector(CatParams(p, beta), TruncationSpec((n,))), vac)
            for p in ("even", "odd")
        }
        for eta in (0.3, 0.77):
            # label convention: our matrix acts as alpha -> U alpha, so the
            # transpose sends (beta, 0) to (sqrt(eta), sqrt(1-eta)) beta
            ch = AffineOptics(beam_splitter(eta).T, np.zeros(2))
            for parity, src in sources.items():
                got = apply_affine(ch, src)
                want = entangled_coherent_vector(CatParams(parity, beta), eta, trunc)
                assert np.linalg.norm(got.flat - want.flat) < 1e-8


def test_channels_do_not_increase_trace_distance():
    rng = np.random.default_rng(11)
    trunc = TruncationSpec((14, 14))
    u = _random_unitary(2, rng)
    ch = AffineOptics(u, np.array([0.25, -0.2 + 0.1j]))
    anc = DensityMatrix(
        TruncationSpec((3,)), np.diag([0.7, 0.2, 0.1, 0.0]).astype(np.complex128)
    )
    for _ in range(6):
        rho = _random_density(trunc, rng)
        sig = _random_density(trunc, rng)
        d0 = trace_distance(rho, sig)
        assert trace_distance(apply_affine(ch, rho), apply_affine(ch, sig)) <= d0 + 1e-8
        assert trace_distance(dephase_number(rho), dephase_number(sig)) <= d0 + 1e-8
        da = trace_distance(adjoin(rho, anc), adjoin(sig, anc))
        assert abs(da - d0) < 1e-9


def test_dephase_is_exactly_idempotent():
    rng = np.random.default_rng(3)
    trunc = TruncationSpec((5, 4))
    rho = _random_density(trunc, rng, max_total=7)
    once = dephase_number(rho)
    twice = dephase_number(once)
    assert np.array_equal(once.mat, twice.mat)
    psi = FockVector(trunc, rng.standard_normal(trunc.shape))
    dep = dephase_number(psi)
    assert np.array_equal(dep.mat, np.diag(np.diag(dep.mat)))


def test_affine_image_matches_channel_on_realization():
    trunc = TruncationSpec((20, 20))
    ens = two_point_mixture([0.5, -0.2], [-0.5, 0.2])
    rng = np.random.default_rng(7)
    u = _random_unitary(2, rng)
    ch = AffineOptics(u, np.array([0.1, 0.2j]))
    img = affine_image(ch, ens)
    got = img.realize(trunc).mat
    want = apply_affine(ch, ens.realize(trunc)).mat
    assert np.abs(got - want).max() < 1e-8


def test_affine_image_permutes_rings():
    trunc = TruncationSpec((25, 25))
    ens = ClassicalEnsemble((
        (1.0, ProductComponent((RingFactor(1.3), CoherentFactor(0.4)))),
    ))
    swap = AffineOptics(
        np.array([[0.0, np.exp(0.3j)], [np.exp(-1.1j), 0.0]]), np.zeros(2)
    )
    img = affine_image(swap, ens)
    f0, f1 = img.components[0][1].factors
    assert isinstance(f0, CoherentFactor)
    assert isinstance(f1, RingFactor) and f1.energy == 1.3
    got = img.realize(trunc).mat
    want = apply_affine(swap, ens.realize(trunc)).mat
    assert np.abs(got - want).max() < 1e-8


def test_affine_image_rejects_mixed_rings():
    ens = ClassicalEnsemble((
        (1.0, ProductComponent((RingFactor(1.0), CoherentFactor(0.2)))),
    ))
    rng = np.random.default_rng(1)
    ch = AffineOptics(_random_unitary(2, rng), np.zeros(2))
    with pytest.raises(ValueError):
        affine_image(ch, ens)


def test_adjoin_realizes_classical_ancilla():
    trunc = TruncationSpec((3,))
    rho = DensityMatrix(trunc, np.diag([0.5, 0.3, 0.2, 0.0]).astype(np.complex128))
    joint = adjoin(rho, phase_ring(0.8))
    assert joint.trunc.nmodes == 2
    assert abs(joint.trace() - rho.trace()) < 1e-9
    da = joint.trunc.dim // 4
    marg = joint.mat.reshape(4, da, 4, da)
    back = np.einsum("iaja->ij", marg)
    assert np.abs(back - rho.mat).max() < 1e-12
