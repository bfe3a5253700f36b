"""Peak coherent-state overlap (Husimi supremum) computations.

The central quantity is m(rho) = sup over coherent |alpha> of
<alpha|rho|alpha>. For number states the supremum is gamma_n =
e^{-n} n^n / n!, for N00N-type states gamma_n max_m |c_m|^2, and for the
parity cats a one-dimensional root find; everything else goes through a
seeded multistart search whose result carries a stationarity certificate.

The search runs L-BFGS from each start (the origin, the mode means, caller
hints and scrambled Sobol points) on Q(alpha) with its exact gradient: for
Fock-space states Q = e^{-|alpha|^2} sum_k w_k |P_k(conj alpha)|^2, with P_k
the Bargmann polynomial of a pure component, and for classical ensembles the
Gaussian and Bessel closed forms. The certificate is the exact gradient norm
at the reported maximizers: it certifies stationarity, not that the best
start found the global maximum. ``n_evaluations`` counts value-and-gradient
evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln, i0e, i1e
from scipy.stats import qmc

from .errors import NumericalInconsistency, TruncationTooSmall
from .fock import (
    DensityMatrix,
    FockVector,
    mean_total_energy,
    mode_means,
    poisson_tail,
)
from .states import CatParams, ClassicalEnsemble, CoherentFactor, RingFactor

DEFAULT_SEED = 1729
CERT_THRESHOLD = 1e-8  # gradient norm above which a result is flagged
MAX_EVALS_PER_START = 2000  # value-and-gradient evaluations per L-BFGS start
GRADIENT_TOL = 1e-12  # L-BFGS stops once every gradient component is below


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
    ``n_evaluations`` counts value-and-gradient evaluations.
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
# Every target gives Q(alpha) = <alpha|rho|alpha> at x = (Re alpha_1..M,
# Im alpha_1..M), alone (``value``) or with its exact gradient (``evaluate``).


class _BargmannTarget:
    """Q of a FockVector or DensityMatrix through the Bargmann polynomial.

    The state is a stack of K amplitude vectors with weights: the vector
    itself (K = 1), or a density's eigenvectors above the rank cut. Each
    term contributes |<alpha|psi_k>|^2 = e^{-|alpha|^2} |P_k(conj alpha)|^2,
    where P_k is the Bargmann polynomial of psi_k, so

        dQ/dx_j = -2 x_j Q + 2 e^{-|alpha|^2} Re sum_k w_k conj(P_k) d_j P_k

    with Im in place of Re for y_j. The factor 1/sqrt(n!) of P and the
    Gaussian e^{-|alpha_j|^2/2} enter per mode through the coherent-amplitude
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
        self._sqrt = np.sqrt(np.arange(1, max(self.trunc.cutoffs) + 1))
        self._step = 1.0 / self._sqrt
        # each mode in turn is the middle axis of a 3-d view (patterns so
        # far, this mode, later modes x K): one large matrix product a step
        dims = self.trunc.shape
        self._splits = [
            (d, math.prod(dims[j + 1 :]) * len(self.weights)) for j, d in enumerate(dims)
        ]
        # the gradient's contraction leaves d/dz_j at row 2^(m-1-j)
        self._first = [1 << (len(dims) - 1 - j) for j in range(len(dims))]

    def _contract(self, x: np.ndarray, rows: int) -> np.ndarray:
        """Contract every mode with u = <alpha_j|n> (rows = 1), or with u
        and its z-derivative (rows = 2), giving a (rows^m, K) array."""
        m = self.trunc.nmodes
        re, im = x[:m], x[m:]
        # u[n] = e^{-|alpha_j|^2/2} z^n / sqrt(n!) with z = conj(alpha_j) by
        # the coherent recurrence, and du/dz[n] = sqrt(n) u[n - 1]
        steps = np.empty((m, len(self._step) + 1), dtype=np.complex128)
        steps[:, 0] = np.exp(-0.5 * (re * re + im * im))
        steps[:, 1:] = (re - 1j * im)[:, None] * self._step
        u = np.cumprod(steps, axis=1)
        if rows == 1:
            vecs = u[:, None]
        else:
            vecs = np.zeros((m, 2, u.shape[1]), dtype=np.complex128)
            vecs[:, 0] = u
            vecs[:, 1, 1:] = self._sqrt * u[:, :-1]
        t = self.stack
        for j, (d, rest) in enumerate(self._splits):
            t = vecs[j, :, :d] @ t.reshape(rows**j, d, rest)
        return t.reshape(rows**m, len(self.weights))

    def value(self, x: np.ndarray) -> float:
        ov = self._contract(x, 1)[0]
        return float(np.vdot(ov, self.weights * ov).real)

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        t = self._contract(x, 2)
        weighted = self.weights * t[0]
        q = float(np.vdot(t[0], weighted).real)
        s = t[self._first] @ weighted.conj()
        return q, 2.0 * (np.concatenate((s.real, s.imag)) - x * q)


class _EnsembleTarget:
    """Q of a classical ensemble in closed form: a coherent factor at beta
    gives e^{-|alpha - beta|^2}, a ring of energy E = s^2 gives
    e^{-E-r^2} I0(2 s r) at r = |alpha|, whose r-derivative is
    -2 r Q + 2 s e^{-E-r^2} I1(2 s r)."""

    def __init__(self, ens: ClassicalEnsemble):
        self.ens = ens
        self.trunc = None

    def value(self, x: np.ndarray) -> float:
        return self.evaluate(x)[0]

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        m = self.ens.nmodes
        q = 0.0
        grad = np.zeros(2 * m)
        vals = np.empty(m)
        dvals = np.empty((m, 2))
        for w, comp in self.ens.components:
            for j, f in enumerate(comp.factors):
                xj, yj = x[j], x[m + j]
                if isinstance(f, RingFactor):
                    s = math.sqrt(f.energy)
                    r = math.hypot(xj, yj)
                    z = 2.0 * s * r
                    g = math.exp(-((s - r) ** 2))
                    vals[j] = float(i0e(z)) * g
                    # e^{-E-r^2} I_k(2 s r) = i_ke(2 s r) e^{-(s - r)^2}
                    dr = 2.0 * s * float(i1e(z)) * g / r - 2.0 * vals[j] if r > 0 else 0.0
                    dvals[j] = dr * xj, dr * yj
                else:
                    dx, dy = xj - f.alpha.real, yj - f.alpha.imag
                    vals[j] = math.exp(-(dx * dx + dy * dy))
                    dvals[j] = -2.0 * dx * vals[j], -2.0 * dy * vals[j]
            q += w * float(np.prod(vals))
            for j in range(m):
                rest = w * float(np.prod(np.delete(vals, j)))
                grad[j] += rest * dvals[j, 0]
                grad[m + j] += rest * dvals[j, 1]
        return q, grad


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
    return max(0.0, target.value(_as_x(alphas)))


# ---------------------------------------------------------------------------
# multistart search


def _sobol_starts(n: int, dim: int, scale: float, seed: int) -> np.ndarray:
    if n <= 0:
        return np.zeros((0, dim))
    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    m = max(1, int(math.ceil(math.log2(max(n, 2)))))
    pts = sampler.random_base2(m)[:n]
    return (2.0 * pts - 1.0) * scale


def _newton_finish(evaluate, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step toward the stationary point near ``x``, kept if it
    lowers the gradient norm; the Hessian is the central difference of the
    exact gradient, and flat (ring) directions are left alone.

    L-BFGS stops where the value no longer resolves its progress: near a
    peak a step gains about |g|^2 / curvature, below double resolution once
    |g| is near 1e-8. The gradient still resolves it, so the step is judged
    on the gradient alone.
    """
    grad = evaluate(x)[1]
    if np.abs(grad).max() <= GRADIENT_TOL:
        return x, grad
    h = 1e-6
    hess = np.array(
        [(evaluate(x + e)[1] - evaluate(x - e)[1]) / (2.0 * h) for e in h * np.eye(len(x))]
    )
    x2 = x - np.linalg.lstsq(0.5 * (hess + hess.T), grad, rcond=1e-8)[0]
    grad2 = evaluate(x2)[1]
    if np.linalg.norm(grad2) < np.linalg.norm(grad):
        return x2, grad2
    return x, grad


def q_sup(
    state,
    hints=None,
    *,
    seed: int = DEFAULT_SEED,
    n_starts: int | None = None,
) -> QSupremum:
    """Husimi supremum by seeded multistart maximization.

    Starts at the origin, the mode-mean displacement, any caller hints, and
    scrambled Sobol points scaled to the state's energy; each start runs
    L-BFGS on Q with its exact gradient (the Bargmann polynomial's for
    Fock-space states, closed forms for classical ensembles), and a kept
    maximizer at which L-BFGS stalled takes one Newton step on the exact
    gradient (:func:`_newton_finish`). The returned value is never below
    the best evaluated point. The certificate is the exact gradient norm at
    the kept maximizers: it certifies stationarity, not that no other start
    would have found a higher peak.
    ``n_evaluations`` counts value-and-gradient evaluations.
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

    evals = 0
    best_eval = -np.inf

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evals, best_eval
        evals += 1
        q, grad = target.evaluate(x)
        best_eval = max(best_eval, q)
        return q, grad

    def negated(x: np.ndarray) -> tuple[float, np.ndarray]:
        q, grad = evaluate(x)
        return -q, -grad

    starts = [np.zeros(dim), _as_x(means)]
    for hint in hints or []:
        starts.append(_as_x(hint))
    scale = math.sqrt(max(energy, 0.0)) + 2.0
    extra = n_starts - len(starts)
    for row in _sobol_starts(extra, dim, scale, seed):
        starts.append(row)

    candidates: list[tuple[float, np.ndarray]] = []
    for x0 in starts:
        res = minimize(
            negated,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxfun": MAX_EVALS_PER_START,
                "maxiter": MAX_EVALS_PER_START,
                "ftol": 0.0,
                "gtol": GRADIENT_TOL,
            },
        )
        candidates.append((-float(res.fun), res.x))

    candidates.sort(key=lambda t: -t[0])

    # gather tied maximizers, deduplicated by location; the best candidate
    # is always kept even if another evaluation edged it out
    kept: list[np.ndarray] = []
    for k, (val, x) in enumerate(candidates):
        if k > 0 and val < best_eval - 1e-9 * max(1.0, abs(best_eval)):
            break
        if all(np.abs(x - y).max() > 1e-4 for y in kept):
            kept.append(x)
    kept.sort(key=lambda x: tuple(np.round(x, 8)))

    finished = [_newton_finish(evaluate, x) for x in kept]
    cert = max(float(np.linalg.norm(g)) for _, g in finished)
    argmax = [x[:m] + 1j * x[m:] for x, _ in finished]
    return QSupremum(
        value=float(best_eval),
        argmax=argmax,
        certificate=cert,
        method="multistart",
        n_evaluations=evals,
        ties=len(kept) > 1,
    )
