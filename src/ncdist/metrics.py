"""Distance and fidelity computations on truncated Fock spaces.

Besides the dense route this module carries three structured
trace-distance paths that stay exact while avoiding dense matrices:

* diagonal vs diagonal: half the l1 distance of the probability vectors;
* pure vs diagonal: the difference operator splits over the exact support
  of the pure state, leaving one rank-one-plus-diagonal block plus the
  unmatched diagonal mass; the block's one positive eigenvalue is the
  root of a secular equation, so the cost is linear in the support.  The
  pure state may be given by its amplitudes on any orthonormal set where
  the other state is diagonal, not only on a Fock truncation;
* a parity cat vs a symmetric coherent pair: on the cat's parity sector
  both live on the span of two vectors, so the distance is a closed form
  in a few scalars, with no truncation and no eigensolver.
  :func:`cat_span_frame` gives the cat on the pair's eigenbasis there, for
  the first two routes.

The first two serve the large multimode witness computations where a
dense realization would be far past the dimension cap, whatever the size
of the pure state's support, the third the cat and entangled-coherent
reports.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NumericalInconsistency
from .fock import DensityMatrix, FockVector


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


# the secular root find stops at a step below 8 ulps of the iterate, which
# takes a handful of steps; reaching the step cap is a fault
_SECULAR_STEPS = 100
_SECULAR_RESOLUTION = 8.0 * np.finfo(float).eps


def trace_distance_pure_diag(psi: FockVector | np.ndarray, q: np.ndarray) -> float:
    """Trace distance between |psi><psi| and the diagonal state diag(q).

    ``psi`` is a FockVector, or a flat array of its amplitudes on any
    orthonormal set where the other state is diag(q).

    Exact, at a cost linear in the support S of psi (its amplitudes f with
    |f_i|^2 > 0): the difference operator is block-diagonal as
    B = f f^+ - diag(q_S) on S and -diag(q) off S. With q >= 0, B has at
    most one positive eigenvalue, so ||B||_1 = 2 max(lambda, 0) - tr B for
    its largest eigenvalue lambda. Where lambda > 0 it is the root of the
    secular equation sum_i |f_i|^2 / (lambda + q_i) = 1 (Bunch, Nielsen &
    Sorensen, Numer. Math. 31, 31 (1978)).
    """
    q = np.asarray(q, dtype=float)
    f = psi if isinstance(psi, np.ndarray) else psi.flat
    if f.shape != q.shape:
        raise ValueError("diagonal length does not match the state dimension")
    # the support is taken where |f_i|^2 > 0: an amplitude that squares to
    # zero adds nothing to the block, and the root find needs every a_i > 0
    a = f.real * f.real + f.imag * f.imag
    s = a.nonzero()[0]
    if len(s) == 0:
        return 0.5 * float(q.sum())
    a = a[s]
    # tr B + the mass off S = ||f||^2 - sum q
    norm2 = float(a.sum())
    return 0.5 * (2.0 * _secular_root(a, q[s], norm2) - norm2 + float(q.sum()))


def _secular_root(a: np.ndarray, q: np.ndarray, norm2: float) -> float:
    """max(lambda, 0) for the largest eigenvalue lambda of f f^+ - diag(q),
    given a_i = |f_i|^2 > 0, q >= 0 and norm2 = sum a.

    Where lambda > 0 it is the root of w(x) = sum a_i / (x + q_i) = 1. The
    root find runs on r = 1 / w - 1, which is concave and increasing for
    x > -min q (1 / w is a weighted harmonic mean of the x + q_i), so a
    Newton step from the left of the root never passes it. It starts at a
    lower bound on max(lambda, 0): the Rayleigh quotient of f where that is
    positive, else the larger of max(a_i - q_i) and 0. It keeps the root
    bracketed by that start and norm2 (f f^+ - diag(q) <= f f^+), bisecting
    a step that would leave the bracket. Where r >= 0 at the start, the
    start is the answer.
    """
    lo = x = norm2 - float(a @ q) / norm2
    if x <= 0.0:
        # the Rayleigh bound is no use; max(a_i - q_i) keeps the start
        # right of every pole where some q_i = 0
        lo = x = max(float((a - q).max()), 0.0)
    hi = norm2
    for it in range(_SECULAR_STEPS):
        inv = 1.0 / (x + q)
        w = float(a @ inv)
        r = 1.0 / w - 1.0
        if r < 0.0:
            lo = x
        elif it == 0 or r == 0.0:
            # both bounds are at most lambda: r >= 0 there means x is the
            # root to rounding, or, at x = 0, that lambda <= 0
            return x
        else:
            hi = x
        nxt = x - r * w * w / float((a * inv) @ inv)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= _SECULAR_RESOLUTION * x:
            return nxt
        x = nxt
    raise NumericalInconsistency(
        f"secular root not resolved in {_SECULAR_STEPS} steps (bracket [{lo}, {hi}])"
    )


def _scaled_f(sign: float, p: complex, q: complex) -> complex:
    """e^{-(|p|^2 + |q|^2) / 2} f(conj(p) q), f = cosh (sign 1) or sinh
    (sign -1), with no overflow and no cancellation.

    With z = conj(p) q, t = +-1 making Re(t z) >= 0, and f(-z) = sign f(z),
    it is e^{-|p - t q|^2 / 2 + i Im(t z)} (1 + sign e^{-2 t z}) / 2, times
    sign where t = -1; the odd factor goes through ``expm1``, as in
    ``CatParams.normalization``.  At p = q it is p^+- = (1 +- e^{-2|p|^2}) / 2.
    """
    z = p.conjugate() * q
    t = -1.0 if z.real < 0 else 1.0
    tz = t * z
    v = 0.5 * (1.0 + cmath.exp(-2.0 * tz)) if sign > 0 else -0.5 * complex(np.expm1(-2.0 * tz))
    out = cmath.exp(complex(-0.5 * abs(p - t * q) ** 2, tz.imag)) * v
    return sign * out if t < 0 else out


def cat_span_distance(parity: str, beta: complex, a: complex) -> tuple[float, float, tuple]:
    """Trace distance from a parity cat to the symmetric coherent pair
    sigma = (|a><a| + |-a><-a|) / 2, and the cat's eigenvector residual
    under sigma; exact, with no truncation.

    The pair splits by parity as p^+ |cat_a^+><cat_a^+| + p^- |cat_a^-><cat_a^-|,
    p^+- = (1 +- e^{-2|a|^2}) / 2, and the cat psi lies wholly in its own
    sector s.  Off that sector the difference is minus a state of trace
    p^{-s}; on it, it lives on the span of psi and cat_a^s.  In the
    orthonormal basis (psi, e), e the unit part of cat_a^s orthogonal to
    psi, cat_a^s is v = (g, sqrt(q)), g = <psi|cat_a^s> and q = 1 - |g|^2,
    both in closed form, so cats nearly parallel to psi keep their
    relative accuracy.  The difference there is m = e_0 e_0^+ - c v v^+,
    c = p^s, with det m = -c q <= 0: one eigenvalue of each sign, so
    ||m||_1 = sqrt(tr(m)^2 + 4 c q).  The residual
    ||sigma psi - <psi|sigma|psi> psi|| is the e part of c conj(g) v,
    c sqrt(q) |g|.  The third value is the span, (g, sqrt(q), c, p^{-s}),
    for :func:`cat_span_frame`.
    """
    sign = {"even": 1.0, "odd": -1.0}[parity]
    a, b = complex(a), complex(beta)
    other = _scaled_f(-sign, a, a).real
    c = _scaled_f(sign, a, a).real
    if not c > 0:
        # an odd sector holds nothing of the pair at a = 0: sigma is all
        # off the sector, and psi is the whole span
        return min(0.5 * (1.0 + other), 1.0), 0.0, (0j, 1.0, 0.0, other)
    pb = _scaled_f(sign, b, b).real
    g = _scaled_f(sign, b, a) / math.sqrt(pb * c)
    g2 = g.real * g.real + g.imag * g.imag
    # q = 1 - |g|^2 from whichever of two exact forms has the smaller
    # terms: that difference itself, or (times p_a p_beta) the identity
    # f(a' a) f(b' b) - f(a' b) f(b' a) = sinh(u' u) sinh(v' v) + sign
    # sinh(v' u) sinh(u' v), u, v = (a +- b) / sqrt 2 (' the conjugate),
    # which keeps the small q of cats nearly parallel to psi but cancels
    # where p_beta is small
    u, v = (a + b) / math.sqrt(2.0), (a - b) / math.sqrt(2.0)
    scale = c * pb
    t1 = _scaled_f(-1.0, u, u) * _scaled_f(-1.0, v, v)
    t2 = sign * _scaled_f(-1.0, v, u) * _scaled_f(-1.0, u, v)
    if abs(t1) + abs(t2) < scale * (1.0 + g2):
        q = ((t1 + t2) / scale).real
    else:
        q = 1.0 - g2
    if q < -1e-10:
        raise NumericalInconsistency(f"coherent-span Gram defect {q:.3e} is negative")
    q = max(q, 0.0)
    tr = (1.0 - c * g2) - c * q
    d = 0.5 * (math.sqrt(tr * tr + 4.0 * c * q) + other)
    if d > 1.0 + 1e-12:
        raise NumericalInconsistency(f"coherent-span distance {d} exceeds 1")
    root = math.sqrt(q)
    return min(d, 1.0), c * root * abs(g), (g, root, c, other)


def cat_span_frame(span) -> tuple[np.ndarray, np.ndarray, float]:
    """The cat on an eigenbasis of the pair, from the span that
    :func:`cat_span_distance` returns.  The pair's part in the span is the
    rank-one c v v^+, with eigenvalues 0 and c ||v||^2 on the complement
    of v and on v / ||v||; the cat, e_0, has amplitudes sqrt(q) / ||v|| and
    conj(g) / ||v|| there.  Returns those amplitudes, the eigenvalues, and
    the pair's mass off the span."""
    g, root, c, other = span
    norm2 = g.real * g.real + g.imag * g.imag + root * root
    norm = math.sqrt(norm2)
    amps = np.array([root / norm, g.conjugate() / norm], dtype=np.complex128)
    return amps, np.array([0.0, c * norm2]), other


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
