"""Truncated multimode Fock-space containers and linear-optics operators.

Conventions used throughout the package:

* A truncated space is a product of per-mode ladders ``0..N_m``; the flat
  basis ordering is row-major (C order) over the multi-index
  ``(n_1, ..., n_M)``, i.e. mode 1 varies slowest. ``np.ravel_multi_index``
  with default order reproduces it.
* State containers carry their truncation. Constructors certify that the
  probability mass lost to truncation is below ``tail_tol`` and raise
  :class:`~ncdist.errors.TruncationTooSmall` with sufficient cutoffs
  otherwise.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionTooLarge, NumericalInconsistency, TruncationTooSmall

# Default probability mass allowed beyond the cutoffs.
DEFAULT_TAIL_TOL = 1e-12
# Largest tolerated deviation from exact Hermiticity on input matrices.
HERMITICITY_TOL = 1e-10
# Hard cap on the flattened basis size (vectors, diagonals).
MAX_BASIS_SIZE = 4_000_000
# Hard cap on the side length of dense matrices.
MAX_DENSE_DIM = 4096


# ---------------------------------------------------------------------------
# truncation bookkeeping


@dataclass(frozen=True)
class TruncationSpec:
    """Per-mode photon-number cutoffs plus the certified tail tolerance."""

    cutoffs: tuple[int, ...]
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        cuts = tuple(int(n) for n in self.cutoffs)
        if len(cuts) == 0:
            raise ValueError("need at least one mode")
        if any(n < 1 for n in cuts):
            raise ValueError(f"every cutoff must be >= 1, got {cuts}")
        object.__setattr__(self, "cutoffs", cuts)
        if not (0 < self.tail_tol < 1):
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")
        if self.dim > MAX_BASIS_SIZE:
            raise DimensionTooLarge(
                f"basis size {self.dim} exceeds the cap {MAX_BASIS_SIZE}"
            )

    @property
    def nmodes(self) -> int:
        return len(self.cutoffs)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.cutoffs)

    @property
    def dim(self) -> int:
        return math.prod(n + 1 for n in self.cutoffs)

    def index(self, ns: Sequence[int]) -> int:
        """Flat index of the basis state |n_1..n_M>."""
        return int(np.ravel_multi_index(tuple(int(n) for n in ns), self.shape))

    def unravel(self, i: int) -> tuple[int, ...]:
        return tuple(int(k) for k in np.unravel_index(i, self.shape))

    def totals(self) -> np.ndarray:
        """Total photon number of every flat basis state (int64, len dim)."""
        out = np.zeros(self.shape, dtype=np.int64)
        for m, n in enumerate(self.cutoffs):
            sl = [None] * self.nmodes
            sl[m] = slice(None)
            out += np.arange(n + 1)[tuple(sl)]
        return out.ravel()


def concat_trunc(a: TruncationSpec, b: TruncationSpec) -> TruncationSpec:
    return TruncationSpec(a.cutoffs + b.cutoffs, min(a.tail_tol, b.tail_tol))


# ---------------------------------------------------------------------------
# state containers


@dataclass
class FockVector:
    """A (possibly sub-normalized) pure state on a truncated Fock space.

    ``amps`` is stored in tensor shape ``trunc.shape``; ``flat`` exposes the
    row-major flattening.
    """

    trunc: TruncationSpec
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != self.trunc.shape:
            raise ValueError(
                f"amplitude shape {amps.shape} does not match cutoffs {self.trunc.cutoffs}"
            )
        self.amps = amps

    @property
    def flat(self) -> np.ndarray:
        return self.amps.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))

    def norm_defect(self) -> float:
        """1 - ||psi||^2, the probability mass beyond the cutoffs."""
        return 1.0 - float(np.vdot(self.flat, self.flat).real)

    def probabilities(self) -> np.ndarray:
        """Flat number-basis probabilities |psi_n|^2."""
        f = self.flat
        return (f.real * f.real + f.imag * f.imag)


class _Support(NamedTuple):
    """A pure state as its support: the occupations of its nonzero amplitudes,
    one integer array per mode (``np.unravel_index``'s layout), and those amplitudes."""

    occ: tuple[np.ndarray, ...]
    amps: np.ndarray

    @classmethod
    def of(cls, psi: FockVector) -> "_Support":
        nz = np.flatnonzero(psi.flat)
        return cls(np.unravel_index(nz, psi.trunc.shape), psi.flat[nz])


@dataclass
class DensityMatrix:
    """Dense Hermitian operator on a truncated Fock space."""

    trunc: TruncationSpec
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=np.complex128)
        d = self.trunc.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape}, expected {(d, d)}")
        if d > MAX_DENSE_DIM:
            raise DimensionTooLarge(
                f"dense dimension {d} exceeds the cap {MAX_DENSE_DIM}; "
                "use the diagonal/pure structured paths instead"
            )
        defect = float(np.abs(mat - mat.conj().T).max())
        if defect > HERMITICITY_TOL:
            raise NumericalInconsistency(
                f"matrix is not Hermitian within {HERMITICITY_TOL:.1e} "
                f"(defect {defect:.3e})"
            )
        # store the exactly Hermitian part so downstream eigensolvers see
        # a symmetric input
        self.mat = 0.5 * (mat + mat.conj().T)

    @property
    def dim(self) -> int:
        return self.trunc.dim

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def diagonal(self) -> np.ndarray:
        return self.mat.diagonal().real.copy()

    def is_diagonal(self, tol: float = 1e-14) -> bool:
        off = self.mat - np.diag(self.mat.diagonal())
        return bool(np.abs(off).max() <= tol)

    def purity(self) -> float:
        return float(np.vdot(self.mat, self.mat).real)


# ---------------------------------------------------------------------------
# Poisson helpers (photon statistics of coherent states and phase rings)


def poisson_pmf(energy, cutoff: int) -> np.ndarray:
    """pmf of Poisson(energy) on 0..cutoff via the stable upward recurrence,
    from e^-energy, or above energy 700 from a log-gamma seed at the mode.

    ``energy`` is a number or an array of them; the result has shape
    (cutoff + 1,) + energy's shape, one pmf per energy along the first
    axis, each bit for bit what the recurrence gives that energy alone."""
    return _pmf_rows(np.asarray(energy, dtype=float), cutoff, cutoff + 1)


def _pmf_rows(e: np.ndarray, cutoff: int, nrows: int) -> np.ndarray:
    """An (nrows,) + e.shape array whose rows 0..cutoff are
    ``poisson_pmf(e, cutoff)``; the rows past them are left unset."""
    es = e.ravel().tolist()
    if es and min(es) < 0:
        raise ValueError("energy must be >= 0")
    out = np.empty((nrows,) + e.shape)
    out.reshape(nrows, -1)[0] = [math.exp(-v) for v in es]
    # a lone energy recurs as a Python float, several times faster than as
    # a 0-d array
    x = e if e.ndim else float(e)
    for k in range(cutoff):
        out[k + 1] = out[k] * x / (k + 1)
    # where e^-energy underflows the recurrence gives zeros: the pmf is
    # seeded by log-gamma at the mode (or the cutoff, below it) instead and
    # recurs both ways from there
    if es and max(es) > _SEED_MAX_ENERGY:
        flat = out.reshape(nrows, -1)
        for j in np.flatnonzero(e.ravel() > _SEED_MAX_ENERGY):
            v = es[j]
            m = min(cutoff, int(v))
            up = _pmf_window(np.array([v]), m, cutoff)[0]
            down = np.multiply.accumulate(np.concatenate((up[:1], np.arange(m, 0, -1.0) / v)))
            flat[: cutoff + 1, j] = np.concatenate((down[:0:-1], up))
    return out


# Past the cutoff n, wherever energy <= n + 1, the pmf terms fall by the
# ratios energy / (n + i) <= (n + 1) / (n + i), so past the first
# _tail_terms(n) of them each is below e^-_TAIL_LOG_DROP < 1e-17 of the first.
_TAIL_LOG_DROP = 39.2
# Above this energy e^-energy is not a normal float, and the pmf terms
# start from a log-gamma seed instead.
_SEED_MAX_ENERGY = 700.0


@functools.lru_cache(maxsize=None)
def _tail_terms(cutoff: int) -> int:
    """Smallest J with prod_{i=1..J} (1 + i / (cutoff + 1)) >= e^_TAIL_LOG_DROP."""
    j, drop = 0, 0.0
    while drop < _TAIL_LOG_DROP:
        j += 1
        drop += math.log1p(j / (cutoff + 1.0))
    return j


@functools.lru_cache(maxsize=None)
def _tail_ladder(cutoff: int) -> np.ndarray:
    """The column cutoff + 1, ..., cutoff + _tail_terms(cutoff): the
    denominators of the pmf ratios past the cutoff, read-only."""
    ladder = np.arange(cutoff + 1.0, cutoff + 1.0 + _tail_terms(cutoff))[:, None]
    ladder.flags.writeable = False
    return ladder


def _pmf_window(energies: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Poisson pmf terms start..stop, one row per energy, as the cumulative
    product of a seed and the ratios energy / k: the seed is e^-energy at
    start 0, else exp(start log energy - energy - log start!)."""
    r = np.empty((len(energies), stop - start + 1))
    r[:, 0] = [
        math.exp(start * math.log(x) - x - math.lgamma(start + 1.0)) if start else math.exp(-x)
        for x in energies.tolist()
    ]
    np.divide(energies[:, None], np.arange(start + 1.0, stop + 1.0), out=r[:, 1:])
    return np.multiply.accumulate(r, axis=1, out=r)


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Sums down the columns of a 2-D array, each added in row order.  Over
    several columns numpy adds the rows one by one; a lone column would be
    summed pairwise, so it accumulates instead."""
    if x.shape[1] > 1:
        return np.add.reduce(x, axis=0)
    return np.add.accumulate(x, axis=0)[-1]


def _poisson_columns(cutoff: int, energies) -> np.ndarray:
    """One column per energy, of one or of an array of any shape read in
    flat order: ``poisson_pmf`` on 0..cutoff, then P[X > cutoff] for
    X ~ Poisson(energy).  The tail is one minus the pmf's sum or, wherever
    an energy is at most cutoff + 1, the sum of the terms past the cutoff,
    p_n prod_{i<=j} energy / (n + i) for j = 1, 2, ...

    Every sum runs in index order along its own energy, and the series
    takes _tail_terms(cutoff) terms at every energy, so a tail is bit for
    bit the same alone or in an array: each column equals
    :func:`poisson_pmf` and :func:`poisson_tail` at its energy bit for bit.
    A negative energy raises ``ValueError``."""
    n = cutoff
    x = np.asarray(energies, dtype=float)
    cols = _pmf_rows(x, n, n + 2).reshape(n + 2, -1)
    energies = x.ravel()
    tail = cols[-1]
    np.subtract(1.0, _column_sums(cols[:-1]), out=tail)
    # one row per term; an energy above cutoff + 1 is clipped to it, and its
    # series discarded
    terms = np.minimum(energies, n + 1.0) / _tail_ladder(n)
    np.multiply.accumulate(terms, axis=0, out=terms)
    series = _column_sums(terms)
    series *= cols[-2]
    np.copyto(tail, series, where=energies <= n + 1.0)
    # e^-energy underflows above energy 700.  Up to cutoff 350 such an
    # energy keeps below 1e-46 of its mass at or below the cutoff, so one
    # minus the pmf's sum is 1.0 already; past it the terms from
    # cutoff + 1 - J on, seeded by log-gamma, carry all but 1e-17 of the sums
    if n > _SEED_MAX_ENERGY / 2 and energies.max(initial=0.0) > _SEED_MAX_ENERGY:
        big = energies > _SEED_MAX_ENERGY
        x = energies[big]
        first = max(0, n + 1 - _tail_terms(n))
        p = _pmf_window(x, first, n + _tail_terms(n))
        head, past = np.add.reduceat(p, [0, n + 1 - first], axis=1).T
        tail[big] = np.where(x <= n + 1.0, past, 1.0 - head)
    return cols


def poisson_tail(cutoff: int, energy):
    """P[X > cutoff] for X ~ Poisson(energy), for one energy (a float back)
    or an array of them (an array of its shape).

    Where energy <= cutoff + 1 the tail is the sum of the pmf terms past the
    cutoff, out to where they fall below 1e-17 of the first; elsewhere it is
    one minus the terms up to the cutoff, which then sum to about a half or
    less, so neither side cancels.  The terms up to the cutoff are
    :func:`poisson_pmf`'s, those past it are p_n times running products of
    the ratios energy / k; above energy 700, where e^-energy underflows,
    the terms start near the cutoff from a log-gamma seed.  Each energy is
    summed along its own terms, in index order, so its tail is bit for bit
    the same alone or in an array (see :func:`_poisson_columns`).  Against
    40-digit mpmath, on 400 seeded draws of cutoffs 1..80 and energies from
    1e-3 to 3 cutoff + 30, the relative error was at most 1.7e-15."""
    x = np.asarray(energy, dtype=float)
    out = _poisson_columns(int(cutoff), x)[-1]
    return out.reshape(x.shape) if x.ndim else float(out[0])


def product_tail(cutoffs: Sequence[int], energies: Sequence[float], tol: float) -> float:
    """1 - prod_m P[X_m <= cutoffs_m] for independent X_m ~ Poisson(energy_m):
    the norm that a product of coherent states or phase rings leaves past
    its cutoffs, exact wherever it exceeds tol.

    Chernoff's bound P[X > n] <= e^(k - E) (E / k)^k, k = n + 1 > E, is
    summed over the modes first; where that sum is at most tol it is
    returned, as it bounds the loss, and no tail is summed.  The default
    cutoff a^2 + 8a + 20 keeps the bound below e^-32 < 1.3e-14, so the
    usual call takes a few logarithms in place of one :func:`poisson_tail`
    per mode."""
    bound = 0.0
    for n, e in zip(cutoffs, energies):
        k = n + 1.0
        if e >= k:
            bound = math.inf
            break
        if e > 0:
            bound += math.exp(k - e - k * math.log(k / e))
    if bound <= tol:
        return bound
    kept = 1.0
    for n, e in zip(cutoffs, energies):
        kept *= 1.0 - poisson_tail(n, e)
    return 1.0 - kept


def minimal_cutoff_for_tail(energy: float, tol: float) -> int:
    """Smallest N >= 1 with Poisson tail beyond N at most tol.

    Bernstein's inequality, P[X >= energy + sqrt(2 energy L) + L] <= e^-L,
    bounds the answer (L = log(1 / tol)) and, with L grown by
    _TAIL_LOG_DROP, the end of one window of pmf terms that serves every
    candidate: a candidate's tail is the sum of the window's terms above
    it, added from the smallest, and misses at most 1e-17 tol."""
    if energy == 0 or tol >= 1:
        return 1
    log_drop = _TAIL_LOG_DROP - math.log(tol)
    stop = int(math.ceil(energy + math.sqrt(2.0 * energy * log_drop) + log_drop))
    first = 0
    if energy > _SEED_MAX_ENERGY:
        # the terms below energy - J(energy) hold less than 1e-17 of the mass
        first = int(energy) - _tail_terms(int(energy))
    p = _pmf_window(np.array([float(energy)]), first, stop)[0]
    past = np.add.accumulate(p[::-1])[::-1]  # past[k] = P[first + k <= X <= stop]
    # past never rises: the first candidate N with P[X > N] within tol
    lo = max(1, first)
    return lo + int(np.searchsorted(-past[lo + 1 - first :], -tol))


def default_cutoff_for_amplitude(a: float) -> int:
    """Cutoff heuristic for a coherent amplitude of magnitude a."""
    return int(math.ceil(a * a + 8.0 * a + 20.0))


def suggest_trunc(
    alphas: Sequence[complex], tail_tol: float = DEFAULT_TAIL_TOL
) -> TruncationSpec:
    """Heuristic cutoffs for a product coherent state, certified upward."""
    cuts = []
    m = len(list(alphas))
    for a in alphas:
        mag = abs(a)
        n = default_cutoff_for_amplitude(mag)
        n = max(n, minimal_cutoff_for_tail(mag * mag, tail_tol / max(m, 1)))
        cuts.append(n)
    return TruncationSpec(tuple(cuts), tail_tol)


# ---------------------------------------------------------------------------
# basic constructors


def number_basis_vector(
    ns: Sequence[int], trunc: TruncationSpec | None = None
) -> FockVector:
    """|n_1 .. n_M> as a FockVector (exact, zero tail)."""
    ns = tuple(int(n) for n in ns)
    if any(n < 0 for n in ns):
        raise ValueError("photon numbers must be >= 0")
    if trunc is None:
        trunc = TruncationSpec(tuple(max(n, 1) for n in ns))
    if any(n > c for n, c in zip(ns, trunc.cutoffs)):
        raise TruncationTooSmall(
            f"cutoffs {trunc.cutoffs} cannot hold |{ns}>",
            suggested_cutoffs=tuple(max(n, 1) for n in ns),
        )
    amps = np.zeros(trunc.shape, dtype=np.complex128)
    amps[ns] = 1.0
    return FockVector(trunc, amps)


# |alpha|^2 past which the coherent seed e^{-|alpha|^2/2} is no normal float
_AMP_SEED_MAX_ENERGY = -2.0 * math.log(np.finfo(float).tiny)


@functools.lru_cache(maxsize=None)
def _inv_sqrt(cutoff: int) -> np.ndarray:
    """1 / sqrt(n) for n = 1..cutoff, the coherent recurrence's factors,
    read-only: taken once per cutoff, they save each call of the
    recurrence more than its underflow check costs."""
    r = 1.0 / np.sqrt(np.arange(1.0, cutoff + 1.0))
    r.flags.writeable = False
    return r


def _coherent_mode_amps(alpha, cutoff: int) -> np.ndarray:
    """u[..., n] = <n|alpha> = e^{-|alpha|^2/2} alpha^n / sqrt(n!) for
    n = 0..cutoff, on a last axis appended to ``alpha``'s shape (a number
    or an array of them), by the coherent recurrence
    u[n] = u[n - 1] alpha / sqrt(n), which keeps every factor bounded for
    any cutoff and any alpha.  <alpha|n> is this at conj(alpha).

    Where |alpha|^2 exceeds ``_AMP_SEED_MAX_ENERGY`` the seed u[0] is no
    normal float; those rows alone come from ``_peak_seeded_amps``."""
    a = np.asarray(alpha, dtype=np.complex128)
    u = np.empty(a.shape + (cutoff + 1,), dtype=np.complex128)
    e = a.real * a.real + a.imag * a.imag
    u[..., 0] = np.exp(-0.5 * e)
    u[..., 1:] = a[..., None] * _inv_sqrt(cutoff)
    np.cumprod(u, axis=-1, out=u)
    if np.maximum.reduce(e, axis=None, initial=0.0) > _AMP_SEED_MAX_ENERGY:
        far = e > _AMP_SEED_MAX_ENERGY
        u[far] = [_peak_seeded_amps(z, cutoff) for z in a[far].tolist()]
    return u


def _peak_seeded_amps(alpha: complex, cutoff: int) -> np.ndarray:
    """<n|alpha> for n = 0..cutoff, seeded at k = min(floor(|alpha|^2),
    cutoff), near the peak, by exp((k log|alpha|^2 - |alpha|^2 - log k!) / 2)
    e^{i k arg alpha} (as ``_pmf_window`` seeds the pmf), then carried up
    by u[n] = u[n - 1] alpha / sqrt(n) and down by
    u[n] = u[n + 1] sqrt(n + 1) / alpha, so an amplitude underflows only
    where it is itself below the smallest float."""
    e = alpha.real**2 + alpha.imag**2
    k = min(int(e), cutoff)
    u = np.empty(cutoff + 1, dtype=np.complex128)
    u[k] = math.exp(0.5 * (k * math.log(e) - e - math.lgamma(k + 1.0))) * cmath.exp(
        1j * k * cmath.phase(alpha)
    )
    u[k + 1 :] = alpha / np.sqrt(np.arange(k + 1.0, cutoff + 1.0))
    np.cumprod(u[k:], out=u[k:])
    down = u[k::-1]
    down[1:] = np.sqrt(np.arange(k, 0.0, -1.0)) / alpha
    np.cumprod(down, out=down)
    return u


def coherent_amps(
    alpha: Sequence[complex] | complex, trunc: TruncationSpec
) -> FockVector:
    """Product coherent state |alpha_1,...,alpha_M> on the truncated space.

    The norm defect equals the exact multivariate Poisson tail
    ``1 - prod_m P[Poisson(|alpha_m|^2) <= N_m]``; if it exceeds
    ``trunc.tail_tol`` the call fails with sufficient cutoffs attached.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=np.complex128))
    if alphas.ndim != 1 or len(alphas) != trunc.nmodes:
        raise ValueError(
            f"got {alphas.size} amplitudes for {trunc.nmodes} modes"
        )
    m = trunc.nmodes
    defect = product_tail(trunc.cutoffs, [abs(a) ** 2 for a in alphas], trunc.tail_tol)
    if defect > trunc.tail_tol:
        suggested = tuple(
            max(
                c,
                minimal_cutoff_for_tail(abs(a) ** 2, trunc.tail_tol / m),
            )
            for a, c in zip(alphas, trunc.cutoffs)
        )
        raise TruncationTooSmall(
            f"coherent tail {defect:.3e} exceeds tail_tol {trunc.tail_tol:.1e}",
            suggested_cutoffs=suggested,
        )
    vecs = [_coherent_mode_amps(a, n) for a, n in zip(alphas, trunc.cutoffs)]
    amps = vecs[0]
    for v in vecs[1:]:
        amps = np.multiply.outer(amps, v)
    return FockVector(trunc, amps.reshape(trunc.shape))


# ---------------------------------------------------------------------------
# algebra


def _require_same_trunc(a, b):
    if a.trunc.cutoffs != b.trunc.cutoffs:
        raise ValueError(
            f"truncation mismatch: {a.trunc.cutoffs} vs {b.trunc.cutoffs}"
        )


def overlap(u: FockVector, v: FockVector) -> complex:
    """<u|v> on a common truncation."""
    _require_same_trunc(u, v)
    return complex(np.vdot(u.flat, v.flat))


def outer(psi: FockVector) -> DensityMatrix:
    """|psi><psi| as a dense matrix (subject to the dense-dimension cap)."""
    if psi.trunc.dim > MAX_DENSE_DIM:
        raise DimensionTooLarge(
            f"outer product would be {psi.trunc.dim}x{psi.trunc.dim} dense"
        )
    f = psi.flat
    return DensityMatrix(psi.trunc, np.outer(f, f.conj()))


def tensor(a, b):
    """Tensor product of two FockVectors or two DensityMatrices."""
    if isinstance(a, FockVector) and isinstance(b, FockVector):
        amps = np.multiply.outer(a.amps, b.amps)
        return FockVector(concat_trunc(a.trunc, b.trunc), amps)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        tr = concat_trunc(a.trunc, b.trunc)
        if tr.dim > MAX_DENSE_DIM:
            raise DimensionTooLarge(
                f"tensor product would be {tr.dim}x{tr.dim} dense"
            )
        return DensityMatrix(tr, np.kron(a.mat, b.mat))
    raise TypeError("tensor expects two FockVectors or two DensityMatrices")


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every mode not listed in ``keep`` (order preserved)."""
    keep = tuple(int(k) for k in keep)
    m = rho.trunc.nmodes
    if sorted(set(keep)) != sorted(keep) or any(k < 0 or k >= m for k in keep):
        raise ValueError(f"invalid mode subset {keep} for {m} modes")
    if keep != tuple(sorted(keep)):
        raise ValueError("keep must be sorted (mode order is preserved)")
    shape = rho.trunc.shape
    t = rho.mat.reshape(shape + shape)
    drop = [i for i in range(m) if i not in keep]
    # trace the dropped ket/bra axis pairs, starting from the back so the
    # axis numbering stays valid
    for i in reversed(drop):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    dk = int(np.prod([shape[i] for i in keep], dtype=np.int64))
    cuts = tuple(rho.trunc.cutoffs[i] for i in keep)
    return DensityMatrix(
        TruncationSpec(cuts, rho.trunc.tail_tol), t.reshape(dk, dk)
    )


# ---------------------------------------------------------------------------
# moments


def _strides(shape: tuple[int, ...]) -> list[int]:
    s = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        s[i] = s[i + 1] * shape[i + 1]
    return s


def mode_means(state) -> np.ndarray:
    """<a_m> for every mode, for a FockVector or DensityMatrix."""
    if isinstance(state, FockVector):
        shape = state.trunc.shape
        out = np.zeros(state.trunc.nmodes, dtype=np.complex128)
        for m, nm in enumerate(shape):
            b = np.moveaxis(state.amps, m, 0).reshape(nm, -1)
            w = np.sqrt(np.arange(1, nm))
            out[m] = ((b[:-1].conj() * b[1:]).sum(axis=1) @ w)
        return out
    if isinstance(state, DensityMatrix):
        shape = state.trunc.shape
        dim = state.trunc.dim
        idx = np.arange(dim)
        strides = _strides(shape)
        out = np.zeros(state.trunc.nmodes, dtype=np.complex128)
        for m, nm in enumerate(shape):
            n_m = (idx // strides[m]) % nm
            ok = n_m < nm - 1
            src = idx[ok]
            out[m] = np.sum(
                np.sqrt(n_m[ok] + 1.0) * state.mat[src + strides[m], src]
            )
        return out
    raise TypeError(f"unsupported state type {type(state)!r}")


def mode_energies(state) -> np.ndarray:
    """<n_m> for every mode, for a FockVector or DensityMatrix."""
    p = state.probabilities() if isinstance(state, FockVector) else state.diagonal()
    p = p.reshape(state.trunc.shape)
    out = np.zeros(p.ndim)
    for mode in range(p.ndim):
        marg = p.sum(axis=tuple(i for i in range(p.ndim) if i != mode))
        out[mode] = float(marg @ np.arange(len(marg)))
    return out


def mean_total_energy(state) -> float:
    """Expected total photon number."""
    if isinstance(state, FockVector):
        return float(state.probabilities() @ state.trunc.totals())
    if isinstance(state, DensityMatrix):
        return float(state.diagonal() @ state.trunc.totals())
    raise TypeError(f"unsupported state type {type(state)!r}")


# ---------------------------------------------------------------------------
# operators


def annihilation_matrix(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    ns = np.arange(1, cutoff + 1)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


@dataclass
class ModewiseUnitary:
    """Operator acting as a product of independent per-mode matrices; its
    one :meth:`apply` serves a vector or a matrix on the flat basis axis."""

    trunc: TruncationSpec
    mats: list[np.ndarray]

    def __post_init__(self):
        if len(self.mats) != self.trunc.nmodes:
            raise ValueError("one matrix per mode required")
        for m, u in zip(self.trunc.shape, self.mats):
            if u.shape != (m, m):
                raise ValueError(f"mode matrix shape {u.shape}, expected {(m, m)}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """U x, along x's first (flat basis) axis (of length ``trunc.dim``)."""
        t = x.reshape(self.trunc.shape + x.shape[1:])
        for m, u in enumerate(self.mats):
            t = np.moveaxis(np.tensordot(u, t, axes=(1, m)), 0, m)
        return t.reshape(x.shape)


@dataclass
class BlockUnitary:
    """Operator block-diagonal over total photon number.

    ``blocks`` holds (flat basis indices, matrix) for each photon-number
    shell built, in order, and ``totals`` those shells' photon numbers; the
    operator is zero on the others. Blocks whose photon number exceeds some
    per-mode cutoff are cropped and then only sub-unitary; the complete
    blocks are exactly unitary.  :meth:`apply` serves vectors and matrices.
    """

    trunc: TruncationSpec
    blocks: list[tuple[np.ndarray, np.ndarray]]
    totals: list[int]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """U x, along x's first (flat basis) axis."""
        if len(x) != self.trunc.dim:
            raise ValueError(f"operand of length {len(x)}, expected {self.trunc.dim}")
        out = np.zeros_like(x, dtype=np.complex128)
        for idx, b in self.blocks:
            out[idx] = b @ x[idx]
        return out


def beam_splitter(eta: float) -> np.ndarray:
    """Two-mode mixing matrix with transmissivity eta.

    Convention: creation operators transform as
    ``b1^+ = sqrt(eta) a1^+ + sqrt(1-eta) a2^+`` and
    ``b2^+ = -sqrt(1-eta) a1^+ + sqrt(eta) a2^+``.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
    return np.array([[t, r], [-r, t]], dtype=np.complex128)


# entries of the shell blocks one interferometer build may allocate: as
# many as one dense matrix at the dense-dimension cap
_PASSIVE_ENTRY_CAP = MAX_DENSE_DIM**2


def passive_unitary(u: np.ndarray, trunc: TruncationSpec, shells=None) -> BlockUnitary:
    """Fock-space representation of an M-mode passive interferometer.

    ``u`` is the M x M mode matrix: creation operators transform as
    ``W a_m^+ W^+ = sum_j u[j, m] a_j^+``. ``W`` keeps the photon number, so
    it is built on the listed photon-number ``shells`` only (default: all of
    them) and is zero on the others; a state on these comes out exact.
    Shell t comes from shell t - 1 by the ladder recurrence
    ``<k|W|l> = sum_j u[j, m] sqrt(k_j / l_m) <k - e_j|W|l - e_m>``, m the
    first occupied mode of l. Lowering never leaves the cutoffs, so a shell
    they crop is the exact sub-block; only the complete shells are unitary.
    """
    u = np.asarray(u, dtype=np.complex128)
    m = trunc.nmodes
    if u.shape != (m, m):
        raise ValueError(f"mode matrix shape {u.shape}, expected {(m, m)}")
    defect = float(np.abs(u.conj().T @ u - np.eye(m)).max())
    if defect > 1e-12:
        raise ValueError(f"mode matrix is not unitary (defect {defect:.3e})")
    if shells is None:
        shells = range(sum(trunc.cutoffs) + 1)
    wanted = [int(t) for t in shells]
    top = max(wanted, default=-1)
    totals = trunc.totals()
    rows = [np.flatnonzero(totals == t) for t in range(top + 1)]
    strides = np.array(_strides(trunc.shape))
    # shells below the top one are built on the way, each on all its rows
    # but only on the columns l - e_m that some requested column lowers to
    cols, lower = rows[:1] + [None] * top, {}
    for t in range(top, 0, -1):
        cols[t] = rows[t] if t in wanted else np.unique(lower[t + 1][0])
        ls = np.array(np.unravel_index(cols[t], trunc.shape))
        first = np.argmax(ls > 0, axis=0)
        lower[t] = (cols[t] - strides[first], first, np.sqrt(ls[first, np.arange(len(first))]))
    # a requested shell is a square block, a shell on the way a slice of one
    entries = sum(len(rows[t]) * len(cols[t]) for t in range(1, top + 1))
    if entries > _PASSIVE_ENTRY_CAP:
        raise DimensionTooLarge(
            f"passive_unitary would build {entries} shell-block entries, "
            f"past the cap of {_PASSIVE_ENTRY_CAP}"
        )
    mat = np.ones((1, 1), dtype=np.complex128)
    mats = {0: mat}
    for t in range(1, top + 1):
        down, first, norm = lower[t]
        ks = np.array(np.unravel_index(rows[t], trunc.shape))
        prev = mat[:, np.searchsorted(cols[t - 1], down)] / norm
        mat = np.zeros((len(rows[t]), len(cols[t])), dtype=np.complex128)
        for j in range(m):
            r = np.flatnonzero(ks[j])
            below = np.searchsorted(rows[t - 1], rows[t][r] - strides[j])
            mat[r] += np.sqrt(ks[j, r])[:, None] * prev[below] * u[j, first]
        if t in wanted:
            mats[t] = mat

    return BlockUnitary(trunc, [(rows[t], mats[t]) for t in wanted], wanted)


def displacement(
    gammas: Sequence[complex] | complex, trunc: TruncationSpec
) -> ModewiseUnitary:
    """Mode-wise displacement operator D(gamma) on the truncated space.

    Each per-mode matrix is computed as the exponential of the
    anti-Hermitian generator G = ``gamma a^+ - conj(gamma) a`` on an
    enlarged ladder and then cropped to the requested cutoff, which keeps
    the matrix elements accurate at the price of a controlled unitarity
    defect near the cutoff.  The exponential is V e^{-i lam} V^+ from the
    Hermitian eigendecomposition iG = V lam V^+, not the ladder recurrence
    D[k, l] = (g D[k-1, l] + sqrt(l) D[k-1, l-1]) / sqrt(k), which against
    a 50-digit reference errs by 4.7e-8 at g = 2+1j, n = 40 and by 3e-2 at
    g = 3, n = 60.  Against a 30-digit exponential of the same enlarged
    generator the cropped matrix errs by 1.5e-15 at (g, n) = (0.7+0.4j, 28)
    and 3.2e-15 at (2+1j, 40); scipy's Pade ``expm`` erred 4.0e-16 and
    9.4e-16.
    Construction cross-checks D|0> against the coherent recurrence and
    refuses cutoffs that cannot carry the displaced vacuum.
    """
    gs = np.atleast_1d(np.asarray(gammas, dtype=np.complex128))
    if len(gs) != trunc.nmodes:
        raise ValueError(f"got {gs.size} displacements for {trunc.nmodes} modes")
    try:
        check_vec = coherent_amps(gs, trunc)
    except TruncationTooSmall as err:
        raise TruncationTooSmall(
            f"cutoffs {trunc.cutoffs} cannot carry the displaced vacuum: {err}",
            suggested_cutoffs=err.suggested_cutoffs,
        ) from err

    mats = []
    for g, n in zip(gs, trunc.cutoffs):
        extra = int(math.ceil(4.0 * abs(g) * math.sqrt(max(n, 1)))) + 10
        a = annihilation_matrix(n + extra)
        # the generator G is anti-Hermitian, so iG = V lam V^+ and
        # e^G = V e^{-i lam} V^+, of which only the top rows are kept
        lam, vecs = np.linalg.eigh(1j * (g * a.conj().T - np.conj(g) * a))
        top = vecs[: n + 1]
        mats.append((top * np.exp(-1j * lam)) @ top.conj().T)

    op = ModewiseUnitary(trunc, mats)
    vac = number_basis_vector((0,) * trunc.nmodes, trunc)
    err2 = float(np.linalg.norm(op.apply(vac.flat) - check_vec.flat) ** 2)
    if err2 > 10.0 * trunc.tail_tol:
        raise NumericalInconsistency(
            f"displaced vacuum deviates from the coherent recurrence "
            f"(squared error {err2:.3e} > 10*tail_tol)"
        )
    return op
