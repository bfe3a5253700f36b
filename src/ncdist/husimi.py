"""Peak coherent-state overlap (Husimi supremum) computations.

The central quantity is m(rho) = sup over coherent |alpha> of
<alpha|rho|alpha>. For number states the supremum is gamma_n =
e^{-n} n^n / n!, for N00N-type states gamma_n max_m |c_m|^2, and for the
parity cats a one-dimensional root find; everything else goes through a
seeded multistart search whose result carries a stationarity certificate.

The search advances every start (the origin, the mode means, caller hints
and the points of a seeded Kronecker lattice) in lockstep: each round
evaluates Q(alpha), its exact gradient and its exact Hessian at all starts
still moving in one batched call and takes one saddle-free trust-region
Newton step per start. A moving start retires once it comes within
``RETIRE_RADIUS`` of a maximizer held at a value at least its own by a
start that stopped with every component of Q's gradient at most
``GRADIENT_TOL``: it is on that maximizer's hill, and climbing on would
find that maximizer again.
Q is evaluated on Fock-space states only (a FockVector or a DensityMatrix):
Q = e^{-|alpha|^2} sum_k w_k |P_k(conj alpha)|^2, with P_k the Bargmann
polynomial of a pure component. A classical ensemble is realized first
(``ClassicalEnsemble.realize``); its report needs no Q, as its distance is
0. The steps are taken on log Q, whose gradient and Hessian follow from
those of Q: far from the peak log Q is -|alpha|^2 plus the log of a
polynomial, so one Newton step leaves the Gaussian tail, where a step on Q
gains only about a factor e. Where Q > 0 both have the same stationary
points. The reported maximizers (``argmax``, and ``ties`` when there are
several) are the final points of starts that did not retire, tied within
1e-9 of the best value; the certificate is the exact gradient norm of Q
there: it certifies stationarity, not that the best start found the global
maximum. ``n_evaluations`` counts point evaluations of Q, its gradient and
its Hessian, those of retired starts included, and the value is the best
Q any of them found.

Callers that need Q alone at given points, with no derivatives (``q_tilde``
and the report's attainment checks in ``bounds._check_attained`` and
``bounds._saturation_diagnostics``), read it from ``_support_overlaps`` on
a pure state's support (``fock._Support``) or a density's nonzero rows: a
value-only sum whose cost is the support's size.

Importing the module loads no scipy module: gamma_n takes log n! from the
integer n!.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalInconsistency, TruncationTooSmall
from .fock import (
    DensityMatrix,
    FockVector,
    _Support,
    _coherent_mode_amps,
    mean_total_energy,
    mode_means,
    product_tail,
)
from .states import CatParams

DEFAULT_SEED = 1729
CERT_THRESHOLD = 1e-8  # gradient norm above which a result is flagged
MAX_EVALS_PER_START = 2000  # point evaluations (Q, gradient, Hessian) per start
GRADIENT_TOL = 1e-12  # a start stops once every gradient component is below
# a moving start retires within this distance |alpha - beta| of a maximizer
# beta that a converged start holds at a value at least its own. Q varies
# on a length scale of 1 (a coherent peak falls as e^{-|alpha - beta|^2},
# only by e^{-0.04} = 4% at 0.2), so such a start climbs that maximizer's
# hill; at 0.2 the Standing draws' miss lists at the 24 default seeds of
# tools/standing_misses.py stay those of the search without retirement
RETIRE_RADIUS = 0.2


# ---------------------------------------------------------------------------
# closed forms

# gamma_n takes log n! from the exact integer n! up to here; past it the
# integer's cost grows (n = 1e5 takes 0.2 s) and lgamma is as accurate
_EXACT_FACTORIAL_MAX = 1000


def gamma_n(n) -> float | np.ndarray:
    """Peak coherent overlap of |n>: e^{-n} n^n / n!, stable for large n.

    log n! is ``math.log(math.factorial(n))`` for an integer n up to
    ``_EXACT_FACTORIAL_MAX`` (the bits of scipy's ``gammaln(n + 1)`` up to
    n = 12, where n! is an exact float, and within 2 ulp of it up to 400),
    else ``math.lgamma(n + 1)``."""
    n_arr = np.asarray(n, dtype=float)
    out = np.ones_like(n_arr)
    pos = n_arr > 0
    npos = n_arr[pos]
    log_fact = [
        math.log(math.factorial(int(k)))
        if k.is_integer() and k <= _EXACT_FACTORIAL_MAX
        else math.lgamma(k + 1.0)
        for k in npos.tolist()
    ]
    out[pos] = np.exp(npos * np.log(npos) - npos - np.array(log_fact))
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


def _bisect(f, lo: float, hi: float, tol: float) -> float:
    """The midpoint of [lo, hi], halved onto a sign change of ``f`` until
    narrower than ``tol``; f(lo) and f(hi) must differ in sign."""
    up = f(lo) > 0
    if up == (f(hi) > 0):
        raise NumericalInconsistency(f"no sign change to bisect on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (f(mid) > 0) == up else (lo, mid)
    return 0.5 * (lo + hi)


def cat_qmax(params: CatParams) -> QSupremum:
    """Supremum for the parity cats via the stationarity root find.

    Even cats with beta <= 1 peak at the origin with value sech(beta^2).
    Otherwise the optimal real displacement solves
    ``beta tanh(beta a) = a`` (even) or ``beta coth(beta a) = a`` (odd);
    both brackets are sign-checked by the bisection, and the polished
    root's residual must come out below 1e-12.
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

    a = _bisect(g, lo, hi, 1e-10)
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
            if not keep.any():
                raise ValueError(
                    f"density has no eigenvalue above the rank cut (largest {w.max():.3e}), "
                    "so its Husimi function is 0 everywhere"
                )
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
    pure state given as its support (a ``fock._Support``) or a
    DensityMatrix, as a value-only sum over the state's nonzero amplitudes.

    Each mode's coherent amplitudes u_j[n] = <alpha_j|n> come from
    ``fock._coherent_mode_amps``, as in the Bargmann contraction, and are
    gathered at the occupation numbers of the support S: <alpha|psi> =
    sum_{k in S} psi_k prod_j u_j[k_j], and for a density
    sum_{k, l in S} conj(c_k) rho_kl c_l with c_k = <k|alpha>. The cost is
    the support's size, not the truncation's.
    """
    alphas = np.atleast_2d(np.asarray(alphas, dtype=np.complex128))
    if isinstance(state, DensityMatrix):
        # a row of a positive semidefinite matrix is zero where its diagonal is
        rows = np.flatnonzero(state.mat.any(axis=0))
        state = np.unravel_index(rows, state.trunc.shape), state.mat[np.ix_(rows, rows)]
    occ, block = state
    if alphas.shape[1] != len(occ):
        raise ValueError("mode count mismatch")
    u = _coherent_mode_amps(alphas.conj(), max(int(o.max(initial=0)) for o in occ))
    amps = np.ones((len(alphas), len(block)), dtype=np.complex128)
    for j, o in enumerate(occ):
        amps *= u[:, j, o]
    if block.ndim == 1:
        ov = amps @ block
        return ov.real**2 + ov.imag**2
    return np.einsum("pk,kl,pl->p", amps, block, amps.conj()).real


def _check_fock(state) -> None:
    if not isinstance(state, (FockVector, DensityMatrix)):
        raise TypeError(f"unsupported state type {type(state)!r}")


def _as_x(alphas) -> np.ndarray:
    a = np.atleast_1d(np.asarray(alphas, dtype=np.complex128))
    return np.concatenate([a.real, a.imag])


def q_tilde(state, alpha) -> float:
    """Normalized coherent-state overlap <alpha|state|alpha>.

    Takes a FockVector or a DensityMatrix, and validates that |alpha> is
    representable on the state's truncation before trusting the value.
    """
    _check_fock(state)
    alphas = np.atleast_1d(np.asarray(alpha, dtype=np.complex128))
    trunc = state.trunc
    if len(alphas) != trunc.nmodes:
        raise ValueError("mode count mismatch")
    defect = product_tail(trunc.cutoffs, [abs(a) ** 2 for a in alphas], trunc.tail_tol)
    if defect > trunc.tail_tol:
        raise TruncationTooSmall(
            f"evaluation point tail {defect:.3e} exceeds "
            f"tail_tol {trunc.tail_tol:.1e}"
        )
    if isinstance(state, FockVector):
        state = _Support.of(state)
    return max(0.0, float(_support_overlaps(state, alphas[None])[0]))


# ---------------------------------------------------------------------------
# multistart search


@functools.lru_cache(maxsize=64)
def _lattice_points(n: int, dim: int, seed: int) -> np.ndarray:
    """n points of a randomly shifted Kronecker lattice in [0, 1)^dim.

    Point i = 1..n is frac(shift + i g), with g = phi^-(1..dim) for phi the
    positive root of x^(dim+1) = x + 1 (Roberts' R_d sequence) and the
    shift drawn from ``default_rng(seed)`` (Cranley and Patterson, SIAM J.
    Numer. Anal. 13, 904 (1976)).

    With the CPU caches cold, drawing them takes about 0.25 ms and scaling
    a cached array 0.05 ms, so each (count, dimension, seed) is drawn once
    per process. The cached array is shared, so it is read-only.
    """
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    shift = np.random.default_rng(seed).random(dim)
    pts = (shift + np.arange(1, n + 1)[:, None] * phi ** -np.arange(1.0, dim + 1)) % 1.0
    pts.setflags(write=False)
    return pts


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
    # a clipped step is scaled by radius / full, any other by exactly 1
    c *= (radius / np.maximum(full, radius))[:, None]
    pred = (gc * c + 0.5 * lam * c * c).sum(axis=1)
    return (vec @ c[:, :, None])[:, :, 0], pred, np.minimum(full, radius), full > radius


def _tied_maximizers(x: np.ndarray, q: np.ndarray, best: float) -> np.ndarray:
    """The rows of ``x`` that tie for the best value ``best`` (within 1e-9,
    relative above 1), deduplicated by location and ordered by their
    coordinates rounded to 8 decimals.

    Candidates are taken by falling ``q``, the first always (even if
    another evaluation edged it out), and each is kept unless a kept one
    lies within 1e-4 of it in every coordinate; the distances come from
    one matrix over the candidates.
    """
    order = np.argsort(-q, kind="stable")
    cand = order[: max(1, np.count_nonzero(q >= best - 1e-9 * max(1.0, abs(best))))]
    # coordinates as rows: the largest distance is then taken across
    # contiguous planes, not along a short last axis, which is slower
    pts = np.ascontiguousarray(x[cand].T)
    near = ~(np.abs(pts[:, :, None] - pts[:, None, :]).max(axis=0) > 1e-4)
    kept, blocked = [], np.zeros(len(cand), dtype=bool)
    for c in range(len(cand)):
        if not blocked[c]:
            kept.append(c)
            blocked |= near[c]
    rows = cand[kept]
    return rows[np.lexsort(np.round(x[rows], 8).T[::-1])]


def q_sup(
    state,
    hints=None,
    *,
    seed: int = DEFAULT_SEED,
    n_starts: int | None = None,
) -> QSupremum:
    """Husimi supremum by seeded multistart maximization.

    Starts at the origin, the mode-mean displacement, any caller hints, and
    the points of a Kronecker lattice with a shift seeded by ``seed``,
    scaled to the state's energy. All starts advance
    together: each round evaluates Q, its exact gradient and its exact
    Hessian at every start still moving in one batched call (through the
    Bargmann polynomial of a FockVector or a DensityMatrix) and takes one
    trust-region Newton step per start on
    l = log Q, with gradient g / Q and Hessian H / Q - (g / Q)(g / Q)^T from
    Q's own. The step is p = V |L|^-1 V^T grad l, which ascends also where
    the Hessian is indefinite. It is accepted when the gain
    log Q(trial) - log Q is at least 1e-4 of the model's predicted gain,
    or, where that prediction is at most 16 ulps (absolute, as a log gain
    is a relative gain in Q), when Q's gradient norm falls; the radius
    doubles after a clipped step that gains at least 0.75 of the
    prediction. Q is floored at the smallest normal float in the log and
    the divisions, so a start or trial where Q is 0 or subnormal gives
    finite numbers (a trial there is rejected). A start takes no step if
    every component of log Q's gradient is at most ``GRADIENT_TOL`` (so one
    in the Gaussian tail, where Q's own gradient is far smaller, still
    climbs, and one on an exact zero of Q stops). After a step it stops
    once every component of Q's gradient is at most ``GRADIENT_TOL``, after
    ``MAX_EVALS_PER_START`` evaluations, or when its trust radius falls
    below 1e-15.

    The rounds run on the compacted set of starts still moving, and the
    lattice points for a (count, dimension, seed) are drawn once per
    process and scaled per call. The returned value is the best evaluated
    Q. The certificate is the exact gradient norm of Q at the kept
    maximizers: it certifies stationarity, not that no other start would
    have found a higher peak. A best value of 0 or less gets certificate
    ``inf``, as Q integrates to 1 and its supremum is positive; with
    ``n_starts`` 1 or 2 the only starts are the origin and the mode means,
    which can both sit on a zero of Q (number states |n>, n >= 1, odd cats).

    A start that stops with every component of Q's gradient at most
    ``GRADIENT_TOL`` holds its point as a maximizer. After each round (and
    before the first) a moving start retires once it lies within
    ``RETIRE_RADIUS`` (Euclidean, over all modes) of a held maximizer whose
    Q is at least its own. A retired start's evaluations count in the
    returned value and in ``n_evaluations``, but its point is left out of
    ``argmax``, ``ties`` and the certificate, which read the starts that
    did not retire: ``argmax`` holds their final points within 1e-9
    (relative above 1) of the value, one per location (points within 1e-4
    in every coordinate count as one), ordered by their coordinates
    rounded to 8 decimals, and ``ties`` says there are several.
    ``n_evaluations`` counts point evaluations of Q, its gradient and its
    Hessian. The search needs derivatives, so it runs on the Bargmann
    evaluator; callers that need Q alone at given points (``q_tilde``, the
    report's attainment checks) use the value-only sum over the state's
    support instead.
    """
    if n_starts is not None and n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    _check_fock(state)
    target = _BargmannTarget(state)
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
    x = np.vstack(starts + [(2.0 * _lattice_points(extra, dim, seed) - 1.0) * scale])
    q, grad, hess = target.evaluate(x)
    best_eval = q.max()
    used = np.ones(len(x), dtype=int)
    retired = np.zeros(len(x), dtype=bool)
    # the maximizers (and their Q) of the starts that stopped with every
    # component of Q's gradient at most GRADIENT_TOL
    held_x, held_q = np.empty((0, dim)), np.empty(0)
    # the rounds run on the starts still moving, compacted: idx maps them
    # to their start, and a start's final point is written back to x, q,
    # grad and used when it stops. The first step is taken where log Q's
    # gradient is above the tolerance, so a start in the Gaussian tail
    # climbs out; one on an exact zero of Q stops
    idx = np.arange(len(x))
    ax, aq, agrad, ahess = x.copy(), q.copy(), grad.copy(), hess
    radius, aused = np.ones(len(x)), used.copy()
    settled = np.abs(grad).max(axis=1) <= GRADIENT_TOL * np.maximum(q, _TINY)
    moving = ~settled
    while True:
        if settled.any():
            held_x = np.concatenate((held_x, ax[settled]))
            held_q = np.concatenate((held_q, aq[settled]))
        if len(held_q):
            # |a - h|^2 by one product; a start near a held maximizer at
            # least as high as its own Q retires
            d2 = (ax * ax).sum(axis=1)[:, None] + (held_x * held_x).sum(axis=1)
            d2 -= 2.0 * ax @ held_x.T
            retire = moving & ((d2 < RETIRE_RADIUS**2) & (held_q >= aq[:, None])).any(axis=1)
            if retire.any():
                retired[idx[retire]] = True
                moving &= ~retire
        if not moving.all():
            done = idx[~moving]
            x[done], q[done], grad[done] = ax[~moving], aq[~moving], agrad[~moving]
            used[done] = aused[~moving]
            idx, ax, aq, agrad, ahess = idx[moving], ax[moving], aq[moving], agrad[moving], ahess[moving]
            radius, aused = radius[moving], aused[moving]
        if not len(idx):
            break
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
        ok1, ok2 = ok[:, None], ok[:, None, None]
        ax, aq = np.where(ok1, trial, ax), np.where(ok, q1, aq)
        agrad, ahess = np.where(ok1, grad1, agrad), np.where(ok2, hess1, ahess)
        radius = np.where(
            ok, np.where(clipped & (gain >= 0.75 * pred), 2.0 * radius, radius), 0.25 * length
        )
        settled = np.abs(agrad).max(axis=1) <= GRADIENT_TOL
        moving = ~settled & (aused < MAX_EVALS_PER_START) & (radius >= 1e-15)

    kept = _tied_maximizers(x, np.where(retired, -np.inf, q), best_eval)
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
