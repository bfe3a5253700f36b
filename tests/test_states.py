import json
import math
import tracemalloc

import numpy as np
import pytest

from ncdist.errors import DimensionTooLarge, SchemaError, TruncationTooSmall
from ncdist.fock import TruncationSpec, coherent_amps, mean_total_energy, poisson_pmf
from ncdist.states import (
    CatParams,
    ClassicalEnsemble,
    CoherentFactor,
    ProductComponent,
    RingFactor,
    cat_vector,
    coherent_point_ensemble,
    entangled_coherent_vector,
    identify_pure_state,
    noon_vector,
    number_ring_product,
    parse_state,
    phase_ring,
    two_point_mixture,
    uniform_axis_rings,
    vacuum_number_diag,
)


def test_cat_even_amplitudes_beta_1():
    t = TruncationSpec((20,), tail_tol=1e-10)
    v = cat_vector(CatParams("even", 1.0), t)
    assert v.amps[0] == pytest.approx(0.80501818219459198, abs=1e-14)
    assert v.amps[2] == pytest.approx(0.56923381560826358, abs=1e-14)
    assert v.amps[4] == pytest.approx(0.16432364833663443, abs=1e-14)
    # odd entries vanish exactly (float cancellation of equal magnitudes)
    assert np.all(v.amps[1::2] == 0.0)
    assert abs(v.norm_defect()) < 1e-10


def test_cat_odd_amplitudes_beta_1():
    t = TruncationSpec((20,), tail_tol=1e-10)
    v = cat_vector(CatParams("odd", 1.0), t)
    assert v.amps[1] == pytest.approx(0.92245223629157169, abs=1e-14)
    assert v.amps[3] == pytest.approx(0.37658954850060161, abs=1e-14)
    assert np.all(v.amps[0::2] == 0.0)


def test_cat_normalization_values():
    assert CatParams("even", 1.0).normalization() == pytest.approx(
        1.1353352832366128, abs=1e-16
    )
    assert CatParams("odd", 1.0).normalization() == pytest.approx(
        0.8646647167633873, abs=1e-16
    )
    assert CatParams("odd", 0.5).normalization() == pytest.approx(
        0.39346934028736658, abs=1e-16
    )


def test_tiny_odd_cat_is_single_photon_like():
    t = TruncationSpec((21,))
    v = cat_vector(CatParams("odd", 1e-4), t)
    assert abs(v.norm_defect()) < 1e-12
    assert abs(v.amps[1]) == pytest.approx(1.0, abs=1e-8)
    assert mean_total_energy(v) == pytest.approx(1.0, abs=1e-7)


def test_cat_too_small_cutoff_suggests_fix():
    with pytest.raises(TruncationTooSmall) as exc:
        cat_vector(CatParams("even", 3.0), TruncationSpec((6,)))
    assert exc.value.suggested_cutoffs[0] > 6


def test_odd_cat_mean_energy_formula():
    # <n> of the odd cat is beta^2 coth(beta^2)
    t = TruncationSpec((24,))
    v = cat_vector(CatParams("odd", 0.5), t)
    assert mean_total_energy(v) == pytest.approx(1.0207470412683992, abs=1e-10)
    w = cat_vector(CatParams("even", 0.5), t)
    assert mean_total_energy(w) == pytest.approx(0.061229665600927283, abs=1e-10)


def test_noon_vector_layout_and_norm():
    t = TruncationSpec((2, 2, 2))
    c = np.array([0.8, 0.6j, 0.0])
    v = noon_vector(2, c, t)
    assert v.amps[2, 0, 0] == pytest.approx(0.8)
    assert v.amps[0, 2, 0] == pytest.approx(0.6j)
    assert v.norm() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        noon_vector(2, [0.9, 0.9], TruncationSpec((2, 2)))


def test_entangled_coherent_edges():
    t = TruncationSpec((24, 24))
    v = entangled_coherent_vector(CatParams("even", 1.0), 1.0, t)
    cat = cat_vector(CatParams("even", 1.0), TruncationSpec((24,)))
    # at eta = 1 the second mode is vacuum and the first carries the cat
    assert np.abs(v.amps[:, 0] - cat.amps).max() < 1e-14
    assert np.abs(v.amps[:, 1:]).max() == 0.0
    v2 = entangled_coherent_vector(CatParams("odd", 1.0), 0.3, t)
    assert abs(v2.norm_defect()) < 1e-12
    # mixed-parity totals vanish exactly
    tot = t.totals().reshape(t.shape)
    assert np.abs(v2.amps[tot % 2 == 0]).max() == 0.0


def test_phase_ring_realize_diag_is_poisson():
    e = phase_ring(1.7)
    t = TruncationSpec((24,))
    d = e.realize_diag(t)
    assert np.abs(d - poisson_pmf(1.7, 24)).max() < 1e-15
    r = e.realize(t)
    assert r.is_diagonal()


def test_number_ring_product_diag_kron():
    e = number_ring_product((1, 2))
    t = TruncationSpec((29, 34))
    d = e.realize_diag(t)
    ref = np.kron(poisson_pmf(1.0, 29), poisson_pmf(2.0, 34))
    assert np.abs(d - ref).max() < 1e-15


def test_uniform_axis_rings_weights():
    e = uniform_axis_rings(2.0, 3)
    t = TruncationSpec((34, 34, 34))
    d = e.realize_diag(t)
    assert d.sum() == pytest.approx(1.0, abs=1e-9)


def test_ensemble_weight_validation():
    comp = ProductComponent((CoherentFactor(0.0),))
    with pytest.raises(ValueError):
        ClassicalEnsemble(((0.7, comp), (0.7, comp)))
    # tiny defect is renormalized
    e = ClassicalEnsemble(((0.5 + 4e-10, comp), (0.5, comp)))
    assert sum(w for w, _ in e.components) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        ClassicalEnsemble(((-0.1, comp), (1.1, comp)))


def test_ensemble_tail_certification():
    e = phase_ring(25.0)
    with pytest.raises(TruncationTooSmall) as exc:
        e.realize_diag(TruncationSpec((10,)))
    assert exc.value.suggested_cutoffs[0] > 10


def test_dense_realize_checks_the_cap_before_allocating():
    ens = coherent_point_ensemble([0.5, 0.3j])
    tr = TruncationSpec((64, 63))  # dim 65 * 64 = 4160, just past the cap
    tracemalloc.start()
    try:
        with pytest.raises(DimensionTooLarge):
            ens.realize(tr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_two_point_mixture_eigenvectors_are_cats():
    # the +/- beta balanced mixture has the parity cats as eigenvectors,
    # with eigenvalues (1 +/- e^{-2 beta^2})/2
    t = TruncationSpec((22,), tail_tol=1e-10)
    sig = two_point_mixture([1.0], [-1.0]).realize(t)
    even = cat_vector(CatParams("even", 1.0), t)
    odd = cat_vector(CatParams("odd", 1.0), t)
    lam_even = 0.56766764161830641
    lam_odd = 0.43233235838169365
    assert np.abs(sig.mat @ even.flat - lam_even * even.flat).max() < 1e-10
    assert np.abs(sig.mat @ odd.flat - lam_odd * odd.flat).max() < 1e-10


def test_vacuum_number_diag():
    t = TruncationSpec((8,))
    r = vacuum_number_diag(2, 0.3, t)
    d = r.diagonal()
    assert d[0] == pytest.approx(0.7)
    assert d[2] == pytest.approx(0.3)
    assert r.trace() == pytest.approx(1.0)


def test_parse_number_roundtrip():
    spec = parse_state('{"kind": "number", "ns": [1, 1]}')
    assert spec.kind == "number"
    assert spec.state_id() == "number[1,1]"
    v = spec.build()
    assert v.flat[v.trunc.index((1, 1))] == 1.0


def test_parse_cat_with_trunc():
    spec = parse_state(
        '{"kind": "cat", "parity": "odd", "beta": 0.5,'
        ' "trunc": {"cutoffs": [12], "tail_tol": 1e-10}}'
    )
    assert spec.trunc.cutoffs == (12,)
    v = spec.build()
    assert abs(v.norm_defect()) < 1e-10


def test_parse_noon_normalizes_c():
    spec = parse_state(
        {"kind": "noon", "n": 2, "c": [[0.8, 0.0], [0.0, 0.6]]}
    )
    v = spec.build()
    assert v.norm() == pytest.approx(1.0, abs=1e-12)


def test_parse_mixture_nested():
    spec = parse_state(
        json.dumps(
            {
                "kind": "mixture",
                "terms": [
                    {"w": 0.4, "state": {"kind": "number", "ns": [1]}},
                    {"w": 0.6, "state": {"kind": "coherent", "alpha": [[0.3, 0.0]]}},
                ],
            }
        )
    )
    rho = spec.build()
    assert rho.trace() == pytest.approx(1.0, abs=1e-8)


def test_schema_error_pointers():
    with pytest.raises(SchemaError) as exc:
        parse_state({"ns": [1]})
    assert exc.value.pointer == "/kind"

    with pytest.raises(SchemaError) as exc:
        parse_state({"kind": "noon", "n": 0, "c": [[1.0, 0.0], [0.0, 0.0]]})
    assert exc.value.pointer == "/n"

    with pytest.raises(SchemaError) as exc:
        parse_state(
            {
                "kind": "mixture",
                "terms": [{"w": 1.0, "state": {"kind": "bogus"}}],
            }
        )
    assert exc.value.pointer == "/terms/0/state/kind"

    with pytest.raises(SchemaError) as exc:
        parse_state({"kind": "cat", "parity": "even", "beta": 1.0, "junk": 1})
    assert "junk" in str(exc.value)

    with pytest.raises(SchemaError) as exc:
        parse_state({"kind": "coherent", "alpha": [0.5]})
    assert exc.value.pointer == "/alpha/0"

    with pytest.raises(SchemaError) as exc:
        parse_state(
            {
                "kind": "number",
                "ns": [1, 1],
                "trunc": {"cutoffs": [5]},
            }
        )
    assert exc.value.pointer == "/trunc/cutoffs"

    with pytest.raises(SchemaError):
        parse_state("{not json")


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(SchemaError) as exc:
        parse_state(
            {
                "kind": "mixture",
                "terms": [
                    {"w": 0.4, "state": {"kind": "number", "ns": [1]}},
                    {"w": 0.4, "state": {"kind": "number", "ns": [2]}},
                ],
            }
        )
    assert exc.value.pointer == "/terms"


def test_identify_number_and_noon():
    t = TruncationSpec((3, 3))
    v = noon_vector(3, [1 / math.sqrt(2), 1j / math.sqrt(2)], t)
    spec = identify_pure_state(v)
    assert spec is not None and spec.kind == "noon" and spec.params["n"] == 3

    from ncdist.fock import number_basis_vector

    w = number_basis_vector((2, 1), TruncationSpec((4, 4)))
    spec = identify_pure_state(w)
    assert spec is not None and spec.kind == "number"
    assert spec.params["ns"] == (2, 1)


def test_identify_cat_with_global_phase():
    t = TruncationSpec((22,))
    v = cat_vector(CatParams("even", 1.3), t)
    v.amps = v.amps * np.exp(0.7j)
    spec = identify_pure_state(v)
    assert spec is not None and spec.kind == "cat"
    assert spec.params["beta"] == pytest.approx(1.3, abs=1e-9)


def test_identify_coherent():
    t = TruncationSpec((24,))
    v = coherent_amps(0.8 - 0.1j, t)
    spec = identify_pure_state(v)
    assert spec is not None and spec.kind == "coherent"
    assert spec.params["alpha"][0] == pytest.approx(0.8 - 0.1j, abs=1e-7)


def test_identify_rejects_generic_vector():
    rng = np.random.default_rng(2)
    t = TruncationSpec((6,))
    amps = rng.normal(size=7) + 1j * rng.normal(size=7)
    amps /= np.linalg.norm(amps)
    from ncdist.fock import FockVector

    assert identify_pure_state(FockVector(t, amps)) is None


@pytest.mark.parametrize("beta", [38.0, 41.5, 52.0])
def test_macroscopic_cats_build_at_their_default_cutoffs(beta):
    # past beta^2 = 1416.8 the amplitudes come from the pmf seeded at the
    # mode, which must stay accurate enough that the default cutoff passes
    # its own tail check
    for parity in ("even", "odd"):
        for kind, extra in (("cat", {}), ("entangled_coherent", {"eta": 0.3})):
            spec = parse_state({"kind": kind, "parity": parity, "beta": beta, **extra})
            psi = spec.build()
            assert abs(psi.norm_defect()) <= psi.trunc.tail_tol
