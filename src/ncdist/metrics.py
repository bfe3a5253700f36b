"""Distance and fidelity computations on truncated Fock spaces.

Besides the dense routes this module carries two structured trace-distance
paths that stay exact while avoiding dense matrices:

* diagonal vs diagonal: half the l1 distance of the probability vectors;
* pure vs diagonal: the difference operator splits over the exact support
  of the pure state, leaving one small Hermitian block plus the unmatched
  diagonal mass.

Both are used for the large multimode witness computations where a dense
realization would be far past the dimension cap.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionTooLarge, NumericalInconsistency
from .fock import DensityMatrix, FockVector, MAX_DENSE_DIM


def _tail_budget(a: DensityMatrix, b: DensityMatrix) -> float:
    return max(a.trunc.tail_tol, b.trunc.tail_tol)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """D(a, b) = 0.5 ||a - b||_1 by dense Hermitian eigenvalues."""
    if a.trunc.cutoffs != b.trunc.cutoffs:
        raise ValueError("states live on different truncations")
    delta = a.mat - b.mat
    ev = np.linalg.eigvalsh(delta)
    d = 0.5 * float(np.abs(ev).sum())
    cap = 1.0 + 5.0 * _tail_budget(a, b)
    if d > cap + 1e-12:
        raise NumericalInconsistency(
            f"trace distance {d} exceeds {cap} despite tail certification"
        )
    return max(d, 0.0)


def trace_distance_diag(p: np.ndarray, q: np.ndarray) -> float:
    """Trace distance between two commuting (diagonal) states."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("probability vectors differ in length")
    return 0.5 * float(np.abs(p - q).sum())


def trace_distance_pure_diag(psi: FockVector, q: np.ndarray) -> float:
    """Trace distance between |psi><psi| and the diagonal state diag(q).

    Exact: with S the support of psi (its exactly nonzero amplitudes), the
    difference operator is block-diagonal as (psi_S psi_S^+ - diag q_S) on
    S and -diag(q) off S, so only an |S| x |S| eigenproblem is needed.
    """
    q = np.asarray(q, dtype=float)
    f = psi.flat
    if f.shape != q.shape:
        raise ValueError("diagonal length does not match the state dimension")
    s = np.flatnonzero(f)
    if len(s) > MAX_DENSE_DIM:
        raise DimensionTooLarge(
            f"pure-state support {len(s)} too large for the block route"
        )
    if len(s) == 0:
        return 0.5 * float(q.sum())
    fs = f[s]
    block = np.outer(fs, fs.conj())
    block[np.diag_indices(len(s))] -= q[s]
    ev = np.linalg.eigvalsh(block)
    off_mass = float(q.sum() - q[s].sum())
    return 0.5 * (float(np.abs(ev).sum()) + off_mass)


def _psd_sqrt(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    if w.min() < -tol:
        raise NumericalInconsistency(
            f"matrix is not PSD within {tol:.1e} (min eigenvalue {w.min():.3e})"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity F = || sqrt(a) sqrt(b) ||_1 (nuclear norm route)."""
    if a.trunc.cutoffs != b.trunc.cutoffs:
        raise ValueError("states live on different truncations")
    ra = _psd_sqrt(a.mat)
    rb = _psd_sqrt(b.mat)
    sv = np.linalg.svd(ra @ rb, compute_uv=False)
    f = float(sv.sum())
    return min(max(f, 0.0), 1.0 + 5.0 * _tail_budget(a, b))


def fuchs_vdg_check(a: DensityMatrix, b: DensityMatrix) -> tuple[float, float, float]:
    """Return (1 - F, D, sqrt(1 - F^2)) and verify the sandwich holds.

    Raises NumericalInconsistency when the chain is violated beyond 1e-9,
    which would indicate a broken distance or fidelity computation.
    """
    f = fidelity(a, b)
    d = trace_distance(a, b)
    lo = 1.0 - f
    hi = float(np.sqrt(max(0.0, 1.0 - f * f)))
    if d < lo - 1e-9 or d > hi + 1e-9:
        raise NumericalInconsistency(
            f"fidelity sandwich violated: 1-F={lo}, D={d}, sqrt(1-F^2)={hi}"
        )
    return lo, d, hi


def helstrom_saturation(a: DensityMatrix, b: DensityMatrix) -> tuple[float, float]:
    """Measure with the sign projector of (a - b); return (Kolmogorov, D).

    The optimal two-outcome POVM distinguishing a from b projects onto the
    positive eigenspace of the difference; its classical distance equals the
    trace distance, which this function lets callers verify numerically.
    """
    if a.trunc.cutoffs != b.trunc.cutoffs:
        raise ValueError("states live on different truncations")
    delta = a.mat - b.mat
    w, v = np.linalg.eigh(delta)
    plus = v[:, w > 0]
    proj = plus @ plus.conj().T
    pa = float(np.trace(a.mat @ proj).real)
    pb = float(np.trace(b.mat @ proj).real)
    kd = 0.5 * (abs(pa - pb) + abs((a.trace() - pa) - (b.trace() - pb)))
    return kd, trace_distance(a, b)


def measurement_kolmogorov(
    a: DensityMatrix, b: DensityMatrix, basis: np.ndarray
) -> float:
    """Kolmogorov distance of the outcome distributions of a projective
    measurement in the given orthonormal basis (columns)."""
    if a.trunc.cutoffs != b.trunc.cutoffs:
        raise ValueError("states live on different truncations")
    pa = np.einsum("ij,ik,kj->j", basis.conj(), a.mat, basis).real
    pb = np.einsum("ij,ik,kj->j", basis.conj(), b.mat, basis).real
    return 0.5 * float(np.abs(pa - pb).sum())
