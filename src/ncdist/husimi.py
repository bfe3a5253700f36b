"""Peak coherent-state overlap (Husimi supremum) computations.

The central quantity is m(rho) = sup over coherent |alpha> of
<alpha|rho|alpha>. For number states the supremum is gamma_n =
e^{-n} n^n / n!, for N00N-type states gamma_n max_m |c_m|^2, and for the
parity cats a one-dimensional root find; everything else goes through a
seeded multistart search whose result carries a stationarity certificate.

The search advances every start (the origin, the mode means, caller hints
and scrambled Sobol points) in lockstep: each round evaluates Q(alpha), its
exact gradient and its exact Hessian at all starts still moving in one
batched call and takes one saddle-free trust-region Newton step per start.
For Fock-space states Q = e^{-|alpha|^2} sum_k w_k |P_k(conj alpha)|^2, with
P_k the Bargmann polynomial of a pure component, and for classical
ensembles the Gaussian and Bessel closed forms. The steps are taken on
log Q, whose gradient and Hessian follow from those of Q: far from the
peak log Q is -|alpha|^2 plus the log of a polynomial, so one Newton step
leaves the Gaussian tail, where a step on Q gains only about a factor e.
Where Q > 0 both have the same stationary points. The certificate is the
exact gradient norm of Q at the reported maximizers: it certifies
stationarity, not that the best start found the global maximum.
``n_evaluations`` counts point evaluations of Q, its gradient and its
Hessian.

Callers that need Q alone at given points, with no derivatives (``q_tilde``
on Fock-space states, and the report's attainment checks in
``bounds._check_attained`` and ``bounds._saturation_diagnostics``), read it
from ``_support_overlaps``: a value-only sum over the state's nonzero
amplitudes, whose cost is the support's size rather than the truncation's.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.special import gammaln, i0e, i1e

from .errors import NumericalInconsistency, TruncationTooSmall
from .fock import (
    DensityMatrix,
    FockVector,
    _coherent_mode_amps,
    mean_total_energy,
    mode_means,
    poisson_tail,
)
from .states import CatParams, ClassicalEnsemble, CoherentFactor, RingFactor

DEFAULT_SEED = 1729
CERT_THRESHOLD = 1e-8  # gradient norm above which a result is flagged
MAX_EVALS_PER_START = 2000  # point evaluations (Q, gradient, Hessian) per start
GRADIENT_TOL = 1e-12  # a start stops once every gradient component is below


# ---------------------------------------------------------------------------
# closed forms


def gamma_n(n) -> float | np.ndarray:
    """Peak coherent overlap of |n>: e^{-n} n^n / n!, stable for large n."""
    n_arr = np.asarray(n, dtype=float)
    out = np.ones_like(n_arr)
    pos = n_arr > 0
    npos = n_arr[pos]
    out[pos] = np.exp(npos * np.log(npos) - npos - gammaln(npos + 1.0))
    if np.isscalar(n) or np.asarray(n).ndim == 0:
        return float(out)
    return out


def _log_cosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def _log_sinh(x: float) -> float:
    if x <= 0:
        raise ValueError("log sinh needs x > 0")
    # expm1 keeps full precision for small x, where 1 - e^{-2x} cancels
    return x + math.log(-math.expm1(-2.0 * x)) - math.log(2.0)


def cat_q_tilde(params: CatParams, alpha: complex) -> float:
    """Normalized coherent overlap of the parity cat, in closed form."""
    b = params.beta
    a2 = abs(alpha) ** 2
    z = b * np.conj(alpha)
    if params.parity == "even":
        return float(
            np.exp(-(b * b)) / params.normalization() * 2.0 * np.exp(-a2)
            * np.abs(np.cosh(z)) ** 2
        )
    return float(
        np.exp(-(b * b)) / params.normalization() * 2.0 * np.exp(-a2)
        * np.abs(np.sinh(z)) ** 2
    )


# ---------------------------------------------------------------------------
# result container


@dataclass
class QSupremum:
    """Result of a Husimi-supremum computation.

    ``certificate`` is the exact gradient norm at the reported maximizers
    (0 for analytic results); values above 1e-8 mean the search did not
    converge and the caller must not treat the value as the supremum. A
    small certificate shows stationarity only, not a global maximum.
    ``n_evaluations`` counts point evaluations of Q, its gradient and its
    Hessian.
    """

    value: float
    argmax: list[np.ndarray]
    certificate: float
    method: str
    n_evaluations: int = 0
    ties: bool = False

    @property
    def converged(self) -> bool:
        return self.method in ("analytic",) or self.certificate <= CERT_THRESHOLD


# ---------------------------------------------------------------------------
# analytic families


def noon_qmax_analytic(n: int, c) -> QSupremum:
    """Supremum for sum_m c_m |n e_m>; exact for every n >= 1.

    For n = 1 the value e^{-1} is attained at alpha = c itself, independent
    of the mode amplitudes. For n >= 2 the best coherent state puts
    sqrt(n) photons into a single mode of maximal |c_m|.
    """
    c = np.asarray(c, dtype=np.complex128)
    c = c / np.linalg.norm(c)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return QSupremum(float(gamma_n(1)), [c.copy()], 0.0, "analytic")
    mags = np.abs(c)
    best = float(mags.max())
    value = float(gamma_n(n)) * best * best
    args = []
    for m in np.flatnonzero(mags >= best - 1e-12):
        a = np.zeros(len(c), dtype=np.complex128)
        a[m] = math.sqrt(n) * np.exp(1j * np.angle(c[m]) / n)
        args.append(a)
    return QSupremum(value, args, 0.0, "analytic", ties=len(args) > 1)


def cat_qmax(params: CatParams) -> QSupremum:
    """Supremum for the parity cats via the stationarity root find.

    Even cats with beta <= 1 peak at the origin with value sech(beta^2).
    Otherwise the optimal real displacement solves
    ``beta tanh(beta a) = a`` (even) or ``beta coth(beta a) = a`` (odd);
    both brackets are sign-checked and the polished root's residual must
    come out below 1e-12.
    """
    b = params.beta
    if params.parity == "even" and b <= 1.0:
        m = 1.0 / math.cosh(b * b)
        return QSupremum(m, [np.array([0.0 + 0.0j])], 0.0, "analytic")

    if params.parity == "even":
        g = lambda a: b * math.tanh(b * a) - a
        dg = lambda a: b * b / math.cosh(b * a) ** 2 - 1.0
        lo, hi = 1e-12, b
    else:
        # b coth(b a) - a without cancellation: the root sits about
        # 2b e^{-2b^2} above b, so g(b) > 0 even where tanh(b^2) rounds to 1
        g = lambda a: (b - a) + 2.0 * b / math.expm1(2.0 * b * a)
        dg = lambda a: -b * b / math.sinh(b * a) ** 2 - 1.0
        lo = b
        hi = b / math.tanh(b * b) + 1.0

    flo, fhi = g(lo), g(hi)
    if not (flo > 0 >= fhi):
        raise NumericalInconsistency(
            f"root bracket failed for beta={b}: g({lo})={flo}, g({hi})={fhi}"
        )
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    for _ in range(2):
        a = a - g(a) / dg(a)
    resid = abs(g(a))
    if resid > 1e-12:
        raise NumericalInconsistency(
            f"stationarity residual {resid:.3e} after polish (beta={b})"
        )

    if params.parity == "even":
        logm = -a * a + 2.0 * _log_cosh(b * a) - _log_cosh(b * b)
    else:
        logm = -a * a + 2.0 * _log_sinh(b * a) - _log_sinh(b * b)
    m = math.exp(logm)
    args = [np.array([a + 0.0j]), np.array([-a + 0.0j])]
    return QSupremum(m, args, resid, "root_find", ties=True)


# ---------------------------------------------------------------------------
# pointwise evaluation
#
# Every target evaluates Q(alpha) = <alpha|rho|alpha> at a batch of rows x =
# (Re alpha_1..M, Im alpha_1..M), with its exact gradient and Hessian.

# entries an intermediate of the Bargmann contraction may hold, unless the
# state itself holds more
_CONTRACTION_BUDGET = 1 << 20


@functools.cache
def _derivative_patterns(m: int):
    """Which derivative patterns a contraction over m modes carries: those
    of total order <= 2, 1 + m + m (m + 1) / 2 of them.

    A pattern gives each mode's derivative order. Returns, for each mode
    after the first, the (pattern, order) products to keep; the pattern
    count after each mode; and the row of each d2/dz_j dz_l. Rows run by
    total order: the value, d/dz_j at row 1 + j, then the second
    derivatives.
    """
    patterns = [(0,), (1,), (2,)]
    keeps, counts = [], [3]
    for _ in range(1, m):
        grown = [p + (o,) for p in patterns for o in range(3)]
        keep = sorted(
            (i for i, p in enumerate(grown) if sum(p) <= 2),
            key=lambda i: (sum(grown[i]), [-o for o in grown[i]]),
        )
        keeps.append(np.array(keep))
        patterns = [grown[i] for i in keep]
        counts.append(len(patterns))
    unit = np.eye(m, dtype=int)
    row = {p: i for i, p in enumerate(patterns)}
    second = np.array([[row[tuple(a + b)] for b in unit] for a in unit])
    return keeps, counts, second


class _BargmannTarget:
    """Q of a FockVector or DensityMatrix through the Bargmann polynomial.

    The state is a stack of K amplitude vectors with weights: the vector
    itself (K = 1), or a density's eigenvectors above the rank cut. Each
    term contributes |<alpha|psi_k>|^2 = e^{-|alpha|^2} |P_k(conj alpha)|^2,
    where P_k is the Bargmann polynomial of psi_k, holomorphic in
    z = conj(alpha). With A = <alpha|psi_k>, D_j and D_jl its z-derivatives
    (the Gaussian held fixed), S_j = sum_k w_k conj(A) D_j,
    M_jl = sum_k w_k conj(D_j) D_l and N_jl = sum_k w_k conj(A) D_jl:

        dQ/dx = 2 Re S - 2 x Q,  dQ/dy = 2 Im S - 2 y Q,

    and the Hessian is g f'' - 2 x grad^T - 2 grad x^T - 4 x x^T Q - 2 Q,
    where g f'' has blocks 2 Re(M + N) (xx), 2 Im(M + N) (xy) and
    2 Re(M - N) (yy). The factor 1/sqrt(n!) of P and the Gaussian
    e^{-|alpha_j|^2/2} enter per mode through the coherent-amplitude
    recurrence, which keeps every factor bounded for any cutoff and any
    alpha.
    """

    def __init__(self, state):
        self.trunc = state.trunc
        # amplitudes as (basis, K): the state's flat vector, or the kept
        # eigenvectors of a density as columns
        if isinstance(state, FockVector):
            self.weights = np.ones(1)
            self.stack = state.flat[:, None]
        else:
            w, v = np.linalg.eigh(state.mat)
            keep = w > max(1e-15, 1e-14 * max(w.max(), 0.0))
            self.weights = w[keep]
            self.stack = v[:, keep]
        n = np.arange(max(self.trunc.cutoffs) + 1)
        self._sqrt = np.sqrt(n[1:])
        self._sqrt2 = np.sqrt(n[2:] * (n[2:] - 1.0))
        # each mode in turn is contracted with u = <alpha_j|n> and its first
        # and second z-derivatives: after mode j, (patterns so far, later
        # modes x K)
        dims = self.trunc.shape
        self._splits = [
            (d, math.prod(dims[j + 1 :]) * len(self.weights)) for j, d in enumerate(dims)
        ]
        self._keep, counts, self._second = _derivative_patterns(len(dims))
        # entries one row needs at once: a mode's product and its kept part
        per_row = max(
            [3 * self._splits[0][1]]
            + [(3 * p + k) * rest for p, k, (_, rest) in zip(counts, counts[1:], self._splits[1:])]
        )
        self._chunk = max(1, max(_CONTRACTION_BUDGET, self.stack.size) // per_row)

    def _contract(self, x: np.ndarray) -> np.ndarray:
        """The (rows, patterns, K) contraction of every mode's amplitude
        vector, or of its derivatives as each pattern says."""
        b = len(x)
        m = self.trunc.nmodes
        re, im = x[:, :m], x[:, m:]
        # u[n] = <alpha_j|n>, with z = conj(alpha_j); du/dz[n] = sqrt(n) u[n - 1]
        # and d2u/dz2[n] = sqrt(n (n - 1)) u[n - 2]
        vecs = np.zeros((b, m, 3, len(self._sqrt) + 1), dtype=np.complex128)
        u = _coherent_mode_amps(re - 1j * im, len(self._sqrt))
        vecs[:, :, 0] = u
        vecs[:, :, 1, 1:] = self._sqrt * u[:, :, :-1]
        vecs[:, :, 2, 2:] = self._sqrt2 * u[:, :, :-2]
        d, rest = self._splits[0]
        t = vecs[:, 0, :, :d].reshape(3 * b, d) @ self.stack.reshape(d, rest)
        t = t.reshape(b, 3, rest)
        for j, ((d, rest), keep) in enumerate(zip(self._splits[1:], self._keep), 1):
            t = vecs[:, j, None, :, :d] @ t.reshape(b, -1, d, rest)
            t = t.reshape(b, -1, rest)[:, keep]
        return t

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Q, its gradient and its Hessian at each row of ``x``."""
        if len(x) > self._chunk:
            chunks = [self.evaluate(x[i : i + self._chunk]) for i in range(0, len(x), self._chunk)]
            return tuple(np.concatenate(part) for part in zip(*chunks))
        t = self._contract(x)
        m = self.trunc.nmodes
        # gram[r, s] = sum_k w_k conj(t_r) t_s: Q, S and N in row 0, M in
        # the first-derivative block
        gram = (t.conj() * self.weights) @ t.transpose(0, 2, 1)
        q = gram[:, 0, 0].real
        s = gram[:, 0, 1 : m + 1]
        n = gram[:, 0, self._second]
        mm = gram[:, 1 : m + 1, 1 : m + 1]
        # with v = (Re S, Im S), grad = 2 v - 2 x Q, and the Gaussian product
        # rule gives the Hessian g f'' - 2 (x w^T + w x^T) - 2 Q with
        # w = grad + x Q
        v = np.concatenate((s.real, s.imag), axis=1)
        xq = x * q[:, None]
        grad = 2.0 * (v - xq)
        w = 2.0 * v - xq
        plus, minus = mm + n, mm - n
        hess = np.concatenate(
            (
                np.concatenate((plus.real, plus.imag), axis=2),
                np.concatenate((-minus.imag, minus.real), axis=2),
            ),
            axis=1,
        )
        xw = x[:, :, None] * w[:, None, :]
        hess -= xw + xw.transpose(0, 2, 1)
        hess *= 2.0
        hess.reshape(len(x), -1)[:, :: 2 * m + 1] -= 2.0 * q[:, None]
        return q, grad, hess


def _support_overlaps(state, alphas) -> np.ndarray:
    """<alpha|state|alpha> at each row of ``alphas`` (points x modes) for a
    FockVector or DensityMatrix, as a value-only sum over the state's
    nonzero amplitudes.

    Each mode's coherent amplitudes u_j[n] = <alpha_j|n> come from
    ``fock._coherent_mode_amps``, as in the Bargmann contraction, and are
    gathered at the occupation numbers of the support S: <alpha|psi> =
    sum_{k in S} psi_k prod_j u_j[k_j], and for a density
    sum_{k, l in S} conj(c_k) rho_kl c_l with c_k = <k|alpha>. The cost is
    the support's size, not the truncation's.
    """
    alphas = np.atleast_2d(np.asarray(alphas, dtype=np.complex128))
    trunc = state.trunc
    if alphas.shape[1] != trunc.nmodes:
        raise ValueError("mode count mismatch")
    if isinstance(state, FockVector):
        support = np.flatnonzero(state.flat)
    else:
        # a row of a positive semidefinite matrix is zero where its
        # diagonal entry is
        support = np.flatnonzero(state.mat.any(axis=0))
    u = _coherent_mode_amps(alphas.conj(), max(trunc.cutoffs))
    amps = np.ones((len(alphas), len(support)), dtype=np.complex128)
    for j, occ in enumerate(np.unravel_index(support, trunc.shape)):
        amps *= u[:, j, occ]
    if isinstance(state, FockVector):
        ov = amps @ state.flat[support]
        return ov.real**2 + ov.imag**2
    rho = state.mat[np.ix_(support, support)]
    return np.einsum("pk,kl,pl->p", amps, rho, amps.conj()).real


def _factor_derivatives(f, re: np.ndarray, im: np.ndarray):
    """Value, gradient (rows, 2) and Hessian (rows, 2, 2) of one mode factor
    in (Re alpha, Im alpha)."""
    if isinstance(f, RingFactor):
        # h(r) = e^{-E-r^2} I0(z) with z = 2 s r and s^2 = E, where
        # e^{-E-r^2} I_k(z) = i_ke(z) e^{-(s - r)^2}. With
        # ratio = e^{-E-r^2} I1(z) / z (its limit 1/2 e^{-E-r^2} where z = 0):
        #   h'/r = 4 E ratio - 2 h, which is h''(0) at r = 0, and by
        #   I1' = I0 - I1 / z, h'' = -2 h - 2 r h' - 8 E r^2 ratio + 4 E (h - ratio)
        e = f.energy
        s = math.sqrt(e)
        r = np.hypot(re, im)
        z = 2.0 * s * r
        g = np.exp(-((s - r) ** 2))
        h = i0e(z) * g
        ratio = np.divide(i1e(z), z, out=np.full_like(z, 0.5), where=z > 0) * g
        dr_r = 4.0 * e * ratio - 2.0 * h
        d2r = -2.0 * h - 2.0 * r * r * (dr_r + 4.0 * e * ratio) + 4.0 * e * (h - ratio)
        p = np.stack((re, im), axis=1)
        unit = np.divide(p, r[:, None], out=np.zeros_like(p), where=r[:, None] > 0)
        hess = dr_r[:, None, None] * np.eye(2) + (d2r - dr_r)[:, None, None] * (
            unit[:, :, None] * unit[:, None, :]
        )
        return h, dr_r[:, None] * p, hess
    d = np.stack((re - f.alpha.real, im - f.alpha.imag), axis=1)
    val = np.exp(-(d * d).sum(axis=1))
    hess = (4.0 * d[:, :, None] * d[:, None, :] - 2.0 * np.eye(2)) * val[:, None, None]
    return val, -2.0 * d * val[:, None], hess


class _EnsembleTarget:
    """Q of a classical ensemble in closed form: each component is a
    product over modes of e^{-|alpha - beta|^2} (a coherent factor at beta)
    or e^{-E-r^2} I0(2 s r) at r = |alpha| (a ring of energy E = s^2)."""

    def __init__(self, ens: ClassicalEnsemble):
        self.ens = ens
        self.trunc = None

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Q, its gradient and its Hessian at each row of ``x``."""
        b, m = len(x), self.ens.nmodes
        q = np.zeros(b)
        grad = np.zeros((b, 2, m))
        hess = np.zeros((b, 2, m, 2, m))
        for w, comp in self.ens.components:
            parts = [
                _factor_derivatives(f, x[:, j], x[:, m + j]) for j, f in enumerate(comp.factors)
            ]
            vals = np.stack([p[0] for p in parts], axis=1)
            q += w * vals.prod(axis=1)
            for j, (_, dj, hj) in enumerate(parts):
                rest = w * np.delete(vals, j, axis=1).prod(axis=1)
                grad[:, :, j] += rest[:, None] * dj
                hess[:, :, j, :, j] += rest[:, None, None] * hj
                for l in range(j + 1, m):
                    both = w * np.delete(vals, (j, l), axis=1).prod(axis=1)
                    cross = both[:, None, None] * dj[:, :, None] * parts[l][1][:, None, :]
                    hess[:, :, j, :, l] += cross
                    hess[:, :, l, :, j] += cross.transpose(0, 2, 1)
        return q, grad.reshape(b, 2 * m), hess.reshape(b, 2 * m, 2 * m)


def _make_target(state):
    if isinstance(state, (FockVector, DensityMatrix)):
        return _BargmannTarget(state)
    if isinstance(state, ClassicalEnsemble):
        return _EnsembleTarget(state)
    raise TypeError(f"unsupported state type {type(state)!r}")


def _as_x(alphas) -> np.ndarray:
    a = np.atleast_1d(np.asarray(alphas, dtype=np.complex128))
    return np.concatenate([a.real, a.imag])


def q_tilde(state, alpha) -> float:
    """Normalized coherent-state overlap <alpha|state|alpha>.

    Validates that |alpha> is representable on the state's truncation (for
    container states) before trusting the value.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=np.complex128))
    if not isinstance(state, (FockVector, DensityMatrix)):
        target = _make_target(state)
        if len(alphas) != state.nmodes:
            raise ValueError("mode count mismatch")
        return max(0.0, float(target.evaluate(_as_x(alphas)[None])[0][0]))
    trunc = state.trunc
    if len(alphas) != trunc.nmodes:
        raise ValueError("mode count mismatch")
    kept = 1.0
    for a, n in zip(alphas, trunc.cutoffs):
        kept *= 1.0 - poisson_tail(n, abs(a) ** 2)
    if 1.0 - kept > trunc.tail_tol:
        raise TruncationTooSmall(
            f"evaluation point tail {1.0 - kept:.3e} exceeds "
            f"tail_tol {trunc.tail_tol:.1e}"
        )
    return max(0.0, float(_support_overlaps(state, alphas[None])[0]))


# ---------------------------------------------------------------------------
# multistart search


_SOBOL_BITS = 30


@functools.lru_cache(maxsize=1)
def _sobol_table() -> tuple[np.ndarray, np.ndarray]:
    """Joe & Kuo's primitive polynomials and initial direction numbers
    (SIAM J. Sci. Comput. 30, 2635 (2008)), one row per dimension, from the
    table that scipy ships beside its own Sobol sampler. Reading the file
    loads no scipy submodule."""
    path = os.path.join(os.path.dirname(scipy.__file__), "stats", "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        return table["poly"], table["vinit"]


@functools.lru_cache(maxsize=64)
def _sobol_points(n: int, dim: int, seed: int) -> np.ndarray:
    """The first n scrambled Sobol points in [0, 1)^dim for a seed.

    These are the points of ``scipy.stats.qmc.Sobol(dim, scramble=True,
    seed=seed)``, bit for bit, drawn without importing ``scipy.stats``: 30-bit
    direction numbers from the Joe-Kuo recurrence, an LMS-plus-shift
    scramble drawn from ``default_rng(seed)`` in scipy's order (first the
    shift bits, then the lower-triangular matrices with unit diagonal), and a
    Gray-code walk from the shifted first point, scaled by 2^-30.

    A process that runs several searches (a library caller, a figure, a
    batch of reports) asks again and again for the same few (count,
    dimension, seed) keys, so the points are drawn once per process. The
    cached array is shared, so it is read-only.
    """
    bits = _SOBOL_BITS
    poly, vinit = _sobol_table()
    if dim > len(poly):
        raise ValueError(f"Sobol points are tabulated up to {len(poly)} dimensions, got {dim}")
    poly, vinit = poly[:dim], vinit[:dim]
    # v[d, top + j] is direction number j of dimension d, with top zero
    # columns in front so that the recurrence reads its last `top` terms
    top = vinit.shape[1]
    # taps[d, k] is the coefficient a_{k+1} of dimension d's polynomial of
    # degree deg[d]; a_deg, its constant term, is 1
    deg = np.frexp(poly)[1] - 1
    k = np.arange(top)
    taps = (k < deg[:, None]) & ((poly[:, None] >> np.maximum(deg[:, None] - 1 - k, 0)) & 1 == 1)
    v = np.zeros((dim, top + bits), dtype=np.int64)
    v[:, top : 2 * top] = vinit
    v[0, top:] = 1
    rows = np.arange(dim)
    for j in range(1, bits):
        c = top + j
        # Bratley & Fox: v_j = v_{j-deg} ^ XOR_k a_{k+1} 2^{k+1} v_{j-k-1}
        recent = v[:, j:c][:, ::-1]  # v_{j-1-k} for k < top
        step = np.bitwise_xor.reduce(np.where(taps, recent << (k + 1), 0), axis=1)
        v[:, c] = np.where(deg <= j, v[rows, c - deg] ^ step, v[:, c])
    weights = 1 << np.arange(bits - 1, -1, -1)
    v = v[:, top:] * weights
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(dim, bits), dtype=np.uint32).astype(np.int64) @ weights[::-1]
    ltm = np.tril(rng.integers(2, size=(dim, bits, bits), dtype=np.uint32)).astype(np.int64)
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # bit (bits-1-p) of a scrambled number is the parity of row p of its
    # dimension's matrix (column 0 the top bit) against the unscrambled one
    x = v[:, :, None] & (ltm @ weights)[:, None, :]
    for s in (16, 8, 4, 2, 1):
        x ^= x >> s
    sv = (x & 1) @ weights
    # point i flips the direction number at the lowest set bit of i
    i = np.arange(1, n)
    quasi = np.empty((n, dim), dtype=np.int64)
    quasi[:1] = shift
    quasi[1:] = sv[:, np.frexp(i & -i)[1] - 1].T
    np.bitwise_xor.accumulate(quasi, axis=0, out=quasi)
    pts = quasi * 2.0**-bits
    pts.setflags(write=False)
    return pts


def _sobol_starts(n: int, dim: int, scale: float, seed: int) -> np.ndarray:
    if n <= 0:
        return np.zeros((0, dim))
    return (2.0 * _sobol_points(n, dim, seed) - 1.0) * scale


_RESOLUTION = 16.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _ascent_steps(grad, hess, radius):
    """Saddle-free Newton steps p = V |L|^-1 V^T grad for H = V L V^T, with
    |L| floored at 1e-8 of its largest entry, clipped to the trust radius.

    ``q_sup`` passes the gradient and Hessian of log Q. Returns the steps,
    the gain the quadratic model predicts for each (a gain in log Q), their
    lengths, and whether each was clipped.
    """
    lam, vec = np.linalg.eigh(hess)
    mag = np.abs(lam)
    # where the Hessian vanishes outright the radius bounds the gradient step
    mag = np.maximum(mag, np.maximum(1e-8 * mag.max(axis=1, keepdims=True), 1e-300))
    gc = (grad[:, None, :] @ vec)[:, 0]
    c = gc / mag
    full = np.sqrt((c * c).sum(axis=1))
    clipped = full > radius
    c[clipped] *= (radius[clipped] / full[clipped])[:, None]
    pred = (gc * c + 0.5 * lam * c * c).sum(axis=1)
    return (vec @ c[:, :, None])[:, :, 0], pred, np.minimum(full, radius), clipped


def q_sup(
    state,
    hints=None,
    *,
    seed: int = DEFAULT_SEED,
    n_starts: int | None = None,
) -> QSupremum:
    """Husimi supremum by seeded multistart maximization.

    Starts at the origin, the mode-mean displacement, any caller hints, and
    scrambled Sobol points scaled to the state's energy. All starts advance
    together: each round evaluates Q, its exact gradient and its exact
    Hessian at every start still moving in one batched call (the Bargmann
    polynomial's for Fock-space states, closed forms for classical
    ensembles) and takes one trust-region Newton step per start on
    l = log Q, with gradient g / Q and Hessian H / Q - (g / Q)(g / Q)^T from
    Q's own. The step is p = V |L|^-1 V^T grad l, which ascends also where
    the Hessian is indefinite. It is accepted when the gain
    log Q(trial) - log Q is at least 1e-4 of the model's predicted gain,
    or, where that prediction is at most 16 ulps (absolute, as a log gain
    is a relative gain in Q), when Q's gradient norm falls; the radius
    doubles after a clipped step that gains at least 0.75 of the
    prediction. Q is floored at the smallest normal float in the log and
    the divisions, so a start or trial where Q is 0 or subnormal gives
    finite numbers (a trial there is rejected). A start stops once every
    component of Q's gradient is at most ``GRADIENT_TOL``, after
    ``MAX_EVALS_PER_START`` evaluations, or when its trust radius falls
    below 1e-15.

    The rounds run on the compacted set of starts still moving, and the
    Sobol points for a (count, dimension, seed) are drawn once per process
    and scaled per call. The returned value is the best evaluated Q. The
    certificate is the exact gradient norm of Q at the kept maximizers: it
    certifies stationarity, not that no other start would have found a
    higher peak. A best value of 0 or less gets certificate ``inf``, as Q
    integrates to 1 and its supremum is positive; with ``n_starts`` 1 or 2
    the only starts are the origin and the mode means, which can both sit
    on a zero of Q (a number state |n>, n >= 1, or an odd cat).
    ``n_evaluations`` counts point evaluations of Q, its gradient and its
    Hessian. The search needs derivatives, so it runs on the Bargmann
    evaluator; callers that need Q alone at given points (``q_tilde``, the
    report's attainment checks) use the value-only sum over the state's
    support instead.
    """
    if n_starts is not None and n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    target = _make_target(state)
    if isinstance(state, ClassicalEnsemble):
        m = state.nmodes
        means = np.array(
            [
                sum(
                    w
                    * (c.factors[i].alpha if isinstance(c.factors[i], CoherentFactor) else 0.0)
                    for w, c in state.components
                )
                for i in range(m)
            ],
            dtype=np.complex128,
        )
        energy = state.mean_energy()
    else:
        m = state.trunc.nmodes
        means = mode_means(state)
        energy = mean_total_energy(state)

    dim = 2 * m
    if n_starts is None:
        n_starts = 8 * m + 4

    starts = [np.zeros(dim), _as_x(means)]
    for hint in hints or []:
        starts.append(_as_x(hint))
    scale = math.sqrt(max(energy, 0.0)) + 2.0
    extra = n_starts - len(starts)
    for row in _sobol_starts(extra, dim, scale, seed):
        starts.append(row)

    x = np.array(starts)
    q, grad, hess = target.evaluate(x)
    best_eval = q.max()
    used = np.ones(len(x), dtype=int)
    # the rounds run on the starts still moving, compacted: idx maps them
    # to their start, and a start's final point is written back to x, q,
    # grad and used when it stops
    moving = np.abs(grad).max(axis=1) > GRADIENT_TOL
    idx = np.flatnonzero(moving)
    ax, aq, agrad, ahess = x[idx], q[idx], grad[idx], hess[idx]
    radius, aused = np.ones(len(idx)), used[idx]
    while len(idx):
        # the model is of log Q, with Q floored where it underflows
        floor = np.maximum(aq, _TINY)
        lgrad = agrad / floor[:, None]
        lhess = ahess / floor[:, None, None] - lgrad[:, :, None] * lgrad[:, None, :]
        step, pred, length, clipped = _ascent_steps(lgrad, lhess, radius)
        trial = ax + step
        q1, grad1, hess1 = target.evaluate(trial)
        aused += 1
        best_eval = max(best_eval, q1.max())
        gain = np.log(np.maximum(q1, _TINY) / floor)
        # a log gain is a relative gain in Q: below 16 ulps it no longer
        # resolves the step; the gradient still does
        resolved = pred > _RESOLUTION
        ok = np.where(
            resolved,
            gain >= 1e-4 * pred,
            (grad1 * grad1).sum(axis=1) < (agrad * agrad).sum(axis=1),
        )
        ax[ok], aq[ok], agrad[ok], ahess[ok] = trial[ok], q1[ok], grad1[ok], hess1[ok]
        radius[ok & clipped & (gain >= 0.75 * pred)] *= 2.0
        radius[~ok] = 0.25 * length[~ok]
        moving = (
            (np.abs(agrad).max(axis=1) > GRADIENT_TOL)
            & (aused < MAX_EVALS_PER_START)
            & (radius >= 1e-15)
        )
        if not moving.all():
            done = idx[~moving]
            x[done], q[done], grad[done] = ax[~moving], aq[~moving], agrad[~moving]
            used[done] = aused[~moving]
            idx, ax, aq, agrad, ahess = idx[moving], ax[moving], aq[moving], agrad[moving], ahess[moving]
            radius, aused = radius[moving], aused[moving]

    # gather tied maximizers, deduplicated by location; the best candidate
    # is always kept even if another evaluation edged it out
    kept: list[int] = []
    for k, i in enumerate(np.argsort(-q, kind="stable")):
        if k > 0 and q[i] < best_eval - 1e-9 * max(1.0, abs(best_eval)):
            break
        if all(np.abs(x[i] - x[j]).max() > 1e-4 for j in kept):
            kept.append(i)
    kept.sort(key=lambda i: tuple(np.round(x[i], 8)))

    # a best value of 0 (every start on a zero of Q) is no peak, whatever
    # its gradient
    certificate = math.inf
    if best_eval > 0:
        certificate = max(float(np.linalg.norm(grad[i])) for i in kept)
    return QSupremum(
        value=float(best_eval),
        argmax=[x[i, :m] + 1j * x[i, m:] for i in kept],
        certificate=certificate,
        method="multistart",
        n_evaluations=int(used.sum()),
        ties=len(kept) > 1,
    )
