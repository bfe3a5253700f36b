"""Peak coherent-state overlap (Husimi supremum) computations.

The central quantity is m(rho) = sup over coherent |alpha> of
<alpha|rho|alpha>. For number states the supremum is gamma_n =
e^{-n} n^n / n!, for N00N-type states gamma_n max_m |c_m|^2, and for the
parity cats a one-dimensional root find; everything else goes through a
seeded multistart search whose result carries a stationarity certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln, i0e
from scipy.stats import qmc

from .errors import NumericalInconsistency, TruncationTooSmall
from .fock import (
    DensityMatrix,
    FockVector,
    _coherent_mode_amps,
    coherent_amps,
    mean_total_energy,
    mode_means,
    poisson_tail,
)
from .states import CatParams, ClassicalEnsemble, CoherentFactor, RingFactor

DEFAULT_SEED = 1729
CERT_THRESHOLD = 1e-8  # gradient norm above which a result is flagged
MAX_EVALS_PER_START = 2000  # multistart budget per start (Nelder-Mead takes 60%)


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

    ``certificate`` is the central-difference gradient norm at the reported
    maximizer (0 for analytic results); values above 1e-8 mean the search
    did not converge and the caller must not treat the value as the
    supremum.
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


def _pure_overlap(amps: np.ndarray, cutoffs, alphas) -> complex:
    """<alpha|psi> by per-mode tensor contraction."""
    v = amps
    for a, n in zip(alphas, cutoffs):
        c = _coherent_mode_amps(a, n)
        v = np.tensordot(c.conj(), v, axes=(0, 0))
    return complex(v)


class _PureTarget:
    def __init__(self, psi: FockVector):
        self.psi = psi
        self.trunc = psi.trunc

    def value(self, alphas: np.ndarray) -> float:
        ov = _pure_overlap(self.psi.amps, self.trunc.cutoffs, alphas)
        return abs(ov) ** 2


class _DenseTarget:
    """rho as a rank-truncated eigenmixture of pure targets."""

    def __init__(self, rho: DensityMatrix):
        self.trunc = rho.trunc
        w, v = np.linalg.eigh(rho.mat)
        keep = w > max(1e-15, 1e-14 * max(w.max(), 0.0))
        self.weights = w[keep]
        self.vectors = [
            v[:, i].reshape(rho.trunc.shape) for i in np.flatnonzero(keep)
        ]

    def value(self, alphas: np.ndarray) -> float:
        out = 0.0
        for w, amps in zip(self.weights, self.vectors):
            out += w * abs(_pure_overlap(amps, self.trunc.cutoffs, alphas)) ** 2
        return float(out)


class _EnsembleTarget:
    def __init__(self, ens: ClassicalEnsemble):
        self.ens = ens
        self.trunc = None

    def value(self, alphas: np.ndarray) -> float:
        out = 0.0
        for w, comp in self.ens.components:
            term = w
            for a, f in zip(alphas, comp.factors):
                aa = abs(a) ** 2
                if isinstance(f, RingFactor):
                    # <a| ring(E) |a> = e^{-E-|a|^2} I0(2 sqrt(E |a|^2))
                    z = 2.0 * math.sqrt(f.energy * aa)
                    term *= float(i0e(z)) * math.exp(
                        -((math.sqrt(f.energy) - math.sqrt(aa)) ** 2)
                    )
                else:
                    term *= math.exp(-abs(a - f.alpha) ** 2)
            out += term
        return float(out)


def _make_target(state):
    if isinstance(state, FockVector):
        return _PureTarget(state)
    if isinstance(state, DensityMatrix):
        return _DenseTarget(state)
    if isinstance(state, ClassicalEnsemble):
        return _EnsembleTarget(state)
    raise TypeError(f"unsupported state type {type(state)!r}")


def q_tilde(state, alpha) -> float:
    """Normalized coherent-state overlap <alpha|state|alpha>.

    Validates that |alpha> is representable on the state's truncation (for
    container states) before trusting the value.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=np.complex128))
    target = _make_target(state)
    if target.trunc is not None:
        if len(alphas) != target.trunc.nmodes:
            raise ValueError("mode count mismatch")
        kept = 1.0
        for a, n in zip(alphas, target.trunc.cutoffs):
            kept *= 1.0 - poisson_tail(n, abs(a) ** 2)
        if 1.0 - kept > target.trunc.tail_tol:
            raise TruncationTooSmall(
                f"evaluation point tail {1.0 - kept:.3e} exceeds "
                f"tail_tol {target.trunc.tail_tol:.1e}"
            )
    return max(0.0, target.value(alphas))


# ---------------------------------------------------------------------------
# multistart search


def _central_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _newton_polish(f, x: np.ndarray, steps: int = 3, h: float = 1e-4):
    """A few concave-subspace Newton steps to drive the gradient to ~0."""
    d = len(x)
    fx = f(x)
    for _ in range(steps):
        g = _central_gradient(f, x, h)
        hess = np.zeros((d, d))
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h
            hess[i, i] = (f(x + ei) - 2.0 * fx + f(x - ei)) / (h * h)
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = h
                hess[i, j] = hess[j, i] = (
                    f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
                ) / (4.0 * h * h)
        w, v = np.linalg.eigh(hess)
        # ascend only along directions of negative curvature; flat (ring)
        # directions are left alone since the gradient vanishes along them
        concave = w < -1e-9
        if not np.any(concave):
            break
        gs = v.T @ g
        step = -(v[:, concave] * (1.0 / w[concave])) @ gs[concave]
        if np.linalg.norm(step) <= 1e-2:
            # near stationarity the improvement is ~|g|^2, often below float
            # resolution of f; take the step as long as it does not truly hurt
            x2 = x + step
            f2 = f(x2)
            if f2 >= fx - 1e-12 * max(1.0, abs(fx)):
                x, fx = x2, f2
            else:
                break
        else:
            scale = 1.0
            accepted = False
            for _ in range(6):
                x2 = x + scale * step
                f2 = f(x2)
                if f2 >= fx:
                    x, fx = x2, f2
                    accepted = True
                    break
                scale *= 0.5
            if not accepted:
                break
    return x, fx


def _sobol_starts(n: int, dim: int, scale: float, seed: int) -> np.ndarray:
    if n <= 0:
        return np.zeros((0, dim))
    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    m = max(1, int(math.ceil(math.log2(max(n, 2)))))
    pts = sampler.random_base2(m)[:n]
    return (2.0 * pts - 1.0) * scale


def q_sup(
    state,
    hints=None,
    *,
    seed: int = DEFAULT_SEED,
    n_starts: int | None = None,
) -> QSupremum:
    """Husimi supremum by seeded multistart maximization.

    Starts at the origin, the mode-mean displacement, any caller hints, and
    scrambled Sobol points scaled to the state's energy; each start runs a
    Nelder-Mead phase and a short concave Newton polish. The returned value
    is never below the best evaluated point, and the certificate is the
    central-difference gradient norm at the winner.
    """
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

    evals = 0

    def f(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return target.value(x[:m] + 1j * x[m:])

    def as_x(alphas) -> np.ndarray:
        a = np.atleast_1d(np.asarray(alphas, dtype=np.complex128))
        return np.concatenate([a.real, a.imag])

    starts = [np.zeros(dim), as_x(means)]
    for hint in hints or []:
        starts.append(as_x(hint))
    scale = math.sqrt(max(energy, 0.0)) + 2.0
    extra = n_starts - len(starts)
    for row in _sobol_starts(extra, dim, scale, seed):
        starts.append(row)

    best_eval = -np.inf
    candidates: list[tuple[float, np.ndarray]] = []
    for x0 in starts:
        v0 = f(x0)
        best_eval = max(best_eval, v0)
        res = minimize(
            lambda x: -f(x),
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": int(MAX_EVALS_PER_START * 0.6),
                "xatol": 1e-9,
                "fatol": 1e-13,
            },
        )
        x1, f1 = _newton_polish(f, res.x, steps=2, h=1e-4)
        x1, f1 = _newton_polish(f, x1, steps=2, h=1e-5)
        best_eval = max(best_eval, f1, -res.fun)
        candidates.append((f1, x1))

    candidates.sort(key=lambda t: -t[0])
    top_val = max(candidates[0][0], best_eval)

    # gather tied maximizers, deduplicated by location; the best polished
    # point is always reported even if a raw evaluation edged it out
    kept: list[np.ndarray] = []
    for k, (val, x) in enumerate(candidates):
        if k > 0 and val < top_val - 1e-9 * max(1.0, abs(top_val)):
            break
        if all(np.abs(x - y).max() > 1e-4 for y in kept):
            kept.append(x)
    kept.sort(key=lambda x: tuple(np.round(x, 8)))

    cert = max(
        float(np.linalg.norm(_central_gradient(f, x))) for x in kept
    )
    argmax = [x[:m] + 1j * x[m:] for x in kept]
    return QSupremum(
        value=float(top_val),
        argmax=argmax,
        certificate=cert,
        method="multistart",
        n_evaluations=evals,
        ties=len(kept) > 1,
    )
