"""Certified brackets on the trace distance to the classical states.

The distance of interest is the infimum of the trace distance between a
given state and the set of mixtures of coherent states.  Closed forms are
rare, so everything here is organized around two-sided brackets:

* lower bounds come from the peak normalized coherent overlap (pure
  states), from a triangle step from the number state |n>'s exact
  distance to a one-mode diagonal state on the vacuum and |n> (closed
  form, as d(rho, |n>) = 1 - eta), and, for a mixed tensor product, from
  monotonicity under discarding tensor factors;
* upper bounds come from explicit classical witnesses (every witness value
  is a computed trace distance, never a formula taken on trust), from
  convex splits, and from a direct minimization over number-diagonal
  classical mixtures.

Each per-family report lists its lower bounds and its witnesses; one
assembly step keeps the best of each side, cross-checks the ordering, and
marks the bracket exact only when a computed witness distance meets the
best lower bound within ``EXACT_TOL`` (on pure states, by the saturation
mechanism).  A pure state reaches the witness kernels as its support
(``fock._Support``), the occupations and amplitudes of its nonzero entries:
number and N00N reports write it down from their parameters and build no
Fock vector.  Each witness is measured once, exactly, on the frame it keeps
(:class:`_Frame`): a number-diagonal witness on the state's support, a
cat's coherent pair on the cat's coherent span, a coherent product against
itself as (1, 1, 0), and a tensor product of factor witnesses on the
Kronecker product of its factors' frames; no witness is realized on a
truncation.  Passive optics leaves every distance unchanged, so an optics
image of a family (an entangled-coherent state is B(eta)(cat (x) |0>), a
one-photon state W(u)(|1> (x) |0, ..., 0>)) gets the family's report with
its witnesses, padded with the vacuum, carried through the optics by
:func:`_image`; no state is rotated.  A state given without family metadata
(a vector or a density matrix) takes one path, :func:`_report_raw`.  A
one-mode number-diagonal state, a ``vacuum_number_mixture`` or a mixed
density, gets one report, :func:`_report_diagonal`: one ring-mixture LP
whose grid holds the occupied levels, and no Husimi search, which could
not beat it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import AffineOptics, affine_image
from .errors import NumericalInconsistency, TruncationTooSmall
from .fock import (
    DensityMatrix,
    FockVector,
    TruncationSpec,
    _Support,
    _poisson_columns,
    beam_splitter,
    mean_total_energy,
    mode_energies,
    partial_trace,
)
from .husimi import (
    DEFAULT_SEED,
    _support_overlaps,
    cat_qmax,
    gamma_n,
    noon_qmax_analytic,
    q_sup,
)
from .metrics import (
    cat_span_distance,
    cat_span_frame,
    trace_distance,
    trace_distance_diag,
    trace_distance_pure_diag,
)
from .states import (
    CatParams,
    ClassicalEnsemble,
    CoherentFactor,
    ProductComponent,
    RingFactor,
    StateSpec,
    coherent_point_ensemble,
    identify_pure_state,
    number_ring_product,
    phase_ring,
    two_point_mixture,
)

__all__ = [
    "Bound",
    "BoundReport",
    "convexity_upper",
    "default_energy_grid",
    "diag_classical_minimize",
    "diag_mixture_distance",
    "report",
    "upper_q",
    "upper_witness",
]

EXACT_TOL = 1e-9
ORDERING_SLACK = 1e-8
FACTOR_TOL = 1e-10
PURITY_TOL = 1e-9
SATURATION_TOL = 1e-9
ENERGY_GRID_POINTS = 41
_ONE_MINUS = 1.0 - 1e-12


# ---------------------------------------------------------------------------
# result containers


@dataclass
class Bound:
    """A single one-sided bound with its provenance identifier.

    A bound is computed, an actual trace distance to an explicit classical
    witness rather than a formula, exactly when it carries ``witness``, the
    witness's JSON form; only computed bounds may certify a bracket as
    exact.  ``candidate`` is that witness as an ensemble (with its
    interferometer, if any), where one was built: the report ranks the
    uppers that carry one to pick the witness it certifies and passes on.
    It is not serialized.
    """

    name: str
    value: float
    provenance: str
    witness: dict | None = None
    candidate: "_WitnessCandidate | None" = field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "value": float(self.value),
            "provenance": self.provenance,
        }
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class BoundReport:
    """Two-sided bracket for one state: all bounds plus the best of each.

    ``exact`` is set only when the bracket closes within ``EXACT_TOL``, the
    meeting upper bound is a computed witness distance, and, for a pure
    state, a witness within ``EXACT_TOL`` of the best passes the saturation
    mechanism.  ``saturation`` holds those witness diagnostics (eigenvector
    residual and overlap attainment) whenever the bracket closes; it is not
    serialized.
    """

    state_id: str
    lowers: list[Bound]
    uppers: list[Bound]
    best_lower: float
    best_upper: float
    exact: float | None
    saturation: dict | None = field(default=None, compare=False)
    sup_overlap: float | None = field(default=None, repr=False, compare=False)
    best_witness: "_WitnessCandidate | None" = field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> dict:
        return {
            "state_id": self.state_id,
            "lowers": [b.to_dict() for b in self.lowers],
            "uppers": [b.to_dict() for b in self.uppers],
            "best_lower": float(self.best_lower),
            "best_upper": float(self.best_upper),
            "exact": None if self.exact is None else float(self.exact),
        }


# ---------------------------------------------------------------------------
# witness machinery


def _factors_obj(comp: ProductComponent) -> list[dict]:
    out = []
    for f in comp.factors:
        if isinstance(f, RingFactor):
            out.append({"type": "ring", "energy": float(f.energy)})
        else:
            out.append(
                {"type": "coherent", "alpha": [f.alpha.real, f.alpha.imag]}
            )
    return out


def _ensemble_obj(ens: ClassicalEnsemble) -> dict:
    return {
        "components": [
            {"weight": float(w), "factors": _factors_obj(c)}
            for w, c in ens.components
        ]
    }


@dataclass
class _Frame:
    """A state and a witness on a finite orthonormal set where the witness
    is diagonal: the state's amplitudes (a vector) or block (a matrix)
    there, the witness's eigenvalues ``q`` there, and ``off``, its mass off
    the set, where the state has none."""

    state: np.ndarray
    q: np.ndarray
    off: float

    def measure(self) -> tuple[float, float | None]:
        """The trace distance and, for a vector f, the eigenvector residual
        ||(q - <q>) f|| / ||f||: by the secular route, the l1 route for a
        diagonal block, or dense eigenvalues, plus half the mass off."""
        unlisted = 0.5 * self.off
        f, q = self.state, self.q
        if f.ndim == 1:
            a = f.real * f.real + f.imag * f.imag
            norm2 = float(a.sum())
            dev = q - float(a @ q) / norm2
            residual = math.sqrt(float((dev * dev) @ a) / norm2)
            return trace_distance_pure_diag(f, q) + unlisted, residual
        if np.abs(f - np.diag(f.diagonal())).max() <= 1e-12:
            return trace_distance_diag(f.diagonal().real, q) + unlisted, None
        box = TruncationSpec((len(q) - 1,))  # the set, indexed as one mode
        dense = DensityMatrix(box, np.diag(q).astype(np.complex128))
        return trace_distance(DensityMatrix(box, f), dense) + unlisted, None

    def tensor(self, other: "_Frame") -> "_Frame":
        a, b = self.state, other.state
        if a.ndim != b.ndim:  # a pure factor beside a mixed one: its block
            a, b = (np.outer(x, x.conj()) if x.ndim == 1 else x for x in (a, b))
        off = self.off + other.off - self.off * other.off
        return _Frame(np.kron(a, b), np.kron(self.q, other.q), off)


# a pure coherent product measured against itself
_SELF_FRAME = _Frame(np.ones(1, dtype=np.complex128), np.ones(1), 0.0)


@dataclass
class _WitnessCandidate:
    """A classical witness: an ensemble, optionally conjugated by a passive
    interferometer (the rotation maps the ensemble's labels onto the
    state's modes).  ``residual`` is the eigenvector residual
    ||sigma f - <f|sigma|f> f|| of the pure state f the witness was
    measured against (0 where f is an eigenvector by construction, None
    where no pure state was measured); saturation reads it.  ``frame`` is
    the :class:`_Frame` it was measured on, or a callable that builds it
    when a product needs it; a witness without one is not tensored."""

    ensemble: ClassicalEnsemble
    rotation: np.ndarray | None = None
    residual: float | None = None
    frame: "_Frame | Callable[[], _Frame] | None" = field(default=None, repr=False)

    def to_obj(self) -> dict:
        obj = _ensemble_obj(self.ensemble)
        if self.rotation is not None:
            obj["mode_matrix"] = [
                [[u.real, u.imag] for u in row] for row in self.rotation
            ]
        return obj

    def tensor_with(self, other: "_WitnessCandidate") -> "_WitnessCandidate":
        comps = tuple(
            (wa * wb, ProductComponent(ca.factors + cb.factors))
            for wa, ca in self.ensemble.components
            for wb, cb in other.ensemble.components
        )
        rot = None
        if self.rotation is not None or other.rotation is not None:
            m = self.ensemble.nmodes
            rot = np.eye(m + other.ensemble.nmodes, dtype=np.complex128)
            if self.rotation is not None:
                rot[:m, :m] = self.rotation
            if other.rotation is not None:
                rot[m:, m:] = other.rotation
        fa, fb = (c.frame() if callable(c.frame) else c.frame for c in (self, other))
        frame = None if fa is None or fb is None else fa.tensor(fb)
        return _WitnessCandidate(ClassicalEnsemble(comps), rot, frame=frame)


def upper_witness(rho, sigma, *, name: str = "witness") -> Bound:
    """Upper bound from one number-diagonal classical state (rings and
    vacuum factors): the exact trace distance.  A pure ``rho`` (a
    FockVector, or its support) is measured on its support, where the
    witness is diagonal, and a DensityMatrix on its number basis."""
    if not sigma.is_diagonal():
        raise ValueError("upper_witness takes number-diagonal witnesses only")
    if isinstance(rho, FockVector):
        rho = _Support.of(rho)
    if isinstance(rho, DensityMatrix):
        rho = np.unravel_index(np.arange(rho.trunc.dim), rho.trunc.shape), rho.mat
    occ, state = rho
    q = sigma.diag_on(occ)
    frame = _Frame(state, q, 1.0 - float(q.sum()))
    d, residual = frame.measure()
    return _witness_bound(name, d, _WitnessCandidate(sigma, residual=residual, frame=frame))


def _witness_bound(name: str, d: float, cand: _WitnessCandidate) -> Bound:
    return Bound(
        name,
        min(max(d, 0.0), _ONE_MINUS),
        "eq2-witness-upper",
        witness=cand.to_obj(),
        candidate=cand,
    )


def _unitary_with_first_column(c: np.ndarray) -> np.ndarray:
    """Complete a unit vector to a unitary whose first column is exactly it."""
    c = np.asarray(c, dtype=np.complex128)
    c = c / np.linalg.norm(c)
    m = len(c)
    block = np.concatenate([c[:, None], np.eye(m, dtype=np.complex128)], axis=1)
    u, _ = np.linalg.qr(block)
    ph = np.vdot(u[:, 0], c)
    u[:, 0] = u[:, 0] * (ph / abs(ph))
    if np.linalg.norm(u[:, 0] - c) > 1e-12:
        raise NumericalInconsistency("unitary completion lost the leading column")
    return u


def _image(rep: "BoundReport", u: np.ndarray, state_id: str) -> "BoundReport":
    """The report of W(u)(psi (x) |0...0>) from ``rep``, psi's report, whose
    witnesses carry no rotation of their own.

    Passive optics maps the classical set onto itself, so the bounds, the
    frames the witnesses were measured on, ``exact`` and the saturation
    diagnostics carry over unchanged.  Each witness, padded with the vacuum,
    is renamed ``-image`` and has its labels moved by :func:`affine_image`
    where they can be (coherent points anywhere, rings through a phased
    permutation); otherwise u rides along as its rotation.  The best point
    alpha maps to u alpha."""

    def carry(cand: _WitnessCandidate) -> _WitnessCandidate:
        k = len(u) - cand.ensemble.nmodes
        ens = ClassicalEnsemble(tuple(
            (w, ProductComponent(c.factors + (CoherentFactor(0.0),) * k))
            for w, c in cand.ensemble.components
        ))
        try:
            return replace(cand, ensemble=affine_image(AffineOptics(u, np.zeros(len(u))), ens))
        except ValueError:  # a ring that the interferometer mixes with other modes
            return replace(cand, ensemble=ens, rotation=u)

    def carried(b: Bound) -> Bound:
        if b.name == "best-point":
            alpha = [complex(*a) for a in b.witness["alpha"]]
            return _point_upper(rep.sup_overlap, u @ (alpha + [0.0] * (len(u) - len(alpha))))
        if b.candidate is None:
            return b
        cand = carry(b.candidate)
        return replace(b, name=b.name + "-image", witness=cand.to_obj(), candidate=cand)

    best = None if rep.best_witness is None else carry(rep.best_witness)
    uppers = [carried(b) for b in rep.uppers]
    return replace(rep, state_id=state_id, uppers=uppers, best_witness=best)


# ---------------------------------------------------------------------------
# elementary bound constructors


def upper_q(m: float) -> Bound:
    """Upper bound for any state with peak normalized coherent overlap
    ``m``: the square root of one minus it."""
    v = math.sqrt(min(max(1.0 - m, 0.0), 1.0))
    return Bound("overlap-sqrt", min(v, _ONE_MINUS), "eq31-upper")


def convexity_upper(components) -> Bound:
    """Upper bound for a mixture: the weighted sum of the component
    brackets' best upper bounds."""
    comps = list(components)
    if not comps:
        raise ValueError("need at least one component")
    wsum = sum(w for w, _ in comps)
    if abs(wsum - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {wsum}, not 1")
    v = sum(w * rep.best_upper for w, rep in comps)
    return Bound(
        "convex-split", min(max(v, 0.0), _ONE_MINUS), "eq51-convexity-upper"
    )


# ---------------------------------------------------------------------------
# minimization over number-diagonal classical mixtures


def _sorted_distinct(x) -> np.ndarray:
    """The distinct values of ``x``, ascending: ``np.unique``'s result by a
    sort and an adjacent-difference mask, without the ``numpy.ma`` import
    that ``np.unique`` makes on its first call."""
    x = np.sort(x)
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def default_energy_grid(mean_energy: float) -> np.ndarray:
    """Hybrid linear + geometric grid of ``ENERGY_GRID_POINTS`` energies
    on [0, 2 * mean + 4]."""
    hi = 2.0 * max(mean_energy, 0.0) + 4.0
    nlin = (ENERGY_GRID_POINTS + 1) // 2
    lin = np.linspace(0.0, hi, nlin)
    geo = np.geomspace(max(hi * 1e-3, 1e-3), hi, ENERGY_GRID_POINTS - nlin)
    return _sorted_distinct(np.concatenate([lin, geo]))


def _diag_profile(rho: DensityMatrix) -> tuple[np.ndarray, float]:
    if rho.trunc.nmodes != 1:
        raise ValueError("the diagonal minimizer handles single-mode states")
    off = rho.mat - np.diag(rho.mat.diagonal())
    if np.abs(off).max() > 1e-10:
        raise ValueError("input is not number-diagonal; dephase it first")
    p = rho.mat.diagonal().real
    return p, max(1.0 - float(p.sum()), 0.0)


def _ring_distance(target: np.ndarray, cols: np.ndarray, w: np.ndarray) -> float:
    return 0.5 * float(np.abs(target - cols @ w).sum())


def diag_mixture_distance(rho: DensityMatrix, energies, weights) -> float:
    """Trace distance from a number-diagonal state to a weighted mixture
    of fixed-energy rings (exact, including beyond-cutoff mass)."""
    p, p_ext = _diag_profile(rho)
    energies = np.asarray(energies, dtype=float)
    w = np.asarray(weights, dtype=float)
    if energies.shape != w.shape:
        raise ValueError("energies and weights differ in length")
    cols = _poisson_columns(rho.trunc.cutoffs[0], energies)
    return _ring_distance(np.concatenate([p, [p_ext]]), cols, w)


# the ring LP's pivot cap, per column of its standard form
_RING_LP_PIVOTS_PER_COLUMN = 20
# reduced costs above -_RING_LP_TOL are optimal; pivots below
# _RING_LP_PIVOT_TOL are not taken
_RING_LP_TOL = 1e-12
_RING_LP_PIVOT_TOL = 1e-11
# basic values above -_RING_LP_FEAS_TOL are feasible; a lower one leaves
# the basis by a dual pivot
_RING_LP_FEAS_TOL = 1e-14
# the largest shift of a row's target in the perturbed problem, and the
# golden-ratio step that spreads the shifts over the rows
_RING_LP_SHIFT = 1e-13
_GOLDEN_FRACTION = 0.5 * (math.sqrt(5.0) - 1.0)


def _ring_lp(cols: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Minimize 0.5 * |target - cols @ w|_1 over the weight simplex.

    A primal simplex on the standard form ``[C -I I; 1 0 0] z = [p; 1]``,
    ``z = (w, u, v) >= 0``, with costs ``(0, 1/2, 1/2)``: at a vertex u and
    v are the positive and negative parts of ``C w - p``.  Variables are
    numbered w, u, v in that order.  The start basis is the best single
    column plus, on each row, the slack that carries its residual; it is
    feasible, so there is no phase 1.

    A slack column is a signed unit vector, so the basis is held reduced:
    the basic columns J, and on each row either the sign of its basic
    slack or none (a tight row, where ``C w = p``).  Only the square system
    ``[C[tight, J]; 1]`` is inverted, afresh at every pivot, and its inverse
    gives the weights, the duals and the pivot column.  Pricing is Dantzig's
    rule.  The ratio test takes a long step (Barrodale and Roberts, SIAM J.
    Numer. Anal. 10, 839 (1973)): a basic slack that reaches zero hands its
    row to its twin while the objective still falls, so one pivot crosses
    many kinks.
    Ties go to the smallest variable index.

    The pivots run first on a perturbed target, each row moved up by a
    distinct amount below ``_RING_LP_SHIFT`` (Charnes, Econometrica 20, 160
    (1952)), so the kinks of the objective along an edge do not coincide:
    on an even mixture of two grid rings, where every row turns tight at
    once, the simplex neither cycles nor makes a row of rounding-sized
    entries tight.  They go on from that basis on the true target, where
    it can price optimal yet hold a negative basic value (zero weights near
    -5e-10 on such a mixture); a dual simplex pivot takes that out.  In
    floating point a basis can recur once the objective falls by less than
    its rounding; each of the two runs then stops there.

    Returns the weights, the row duals (length ``len(target)``) and the
    pivot count.  Passing the pivot cap (over both runs), a singular basis,
    or a pivot with no blocking entry raises ``NumericalInconsistency``.
    """
    m, k = cols.shape
    j0 = int(np.argmin(np.abs(target[:, None] - cols).sum(axis=0)))
    # the perturbed target: row r moves by a distinct fraction of the shift
    shifted = target + _RING_LP_SHIFT * ((np.arange(1, m + 1) * _GOLDEN_FRACTION) % 1.0)
    basic = [j0]  # basic columns, in the order of the reduced system
    # +1: v_r is basic (p_r >= C_r w), -1: u_r is basic, 0: the row is tight
    sign = np.where(shifted < cols[:, j0], -1.0, 1.0)

    cap = _RING_LP_PIVOTS_PER_COLUMN * (k + 2 * m)
    pivots = 0
    for goal in (shifted, target):
        seen = set()
        while True:
            # array methods, not np.flatnonzero / np.argmin: their wrappers
            # cost about 20 us of a 200 us LP
            tight = (sign == 0.0).nonzero()[0]
            cj = cols[:, basic]
            nb = len(basic)
            mat = np.ones((nb, nb))
            mat[:-1] = cj[tight]
            try:
                inv = np.linalg.inv(mat)
            except np.linalg.LinAlgError:
                raise NumericalInconsistency("ring-mixture LP basis is singular") from None
            w_basic = inv[:, :-1] @ goal[tight] + inv[:, -1]
            # basic values: the basic columns, then the rows' slacks (0 if tight)
            value = np.concatenate([w_basic, sign * (goal - cj @ w_basic)])
            # a basic slack prices its row at +-1/2; the basic columns fix the rest
            y = 0.5 * sign
            z = -(y @ cj) @ inv
            y[tight] = z[:-1]
            d = np.concatenate([-(y @ cols + z[-1]), 0.5 + y, 0.5 - y])
            d[basic] = 0.0

            q, leave = int(d.argmin()), int(value.argmin())
            # a basis met before means the objective stopped falling past its
            # rounding: every basis on that cycle is optimal to within it
            basis = (frozenset(basic), sign.tobytes())
            if (d[q] >= -_RING_LP_TOL and value[leave] >= -_RING_LP_FEAS_TOL) or basis in seen:
                break
            seen.add(basis)
            if pivots >= cap:
                raise NumericalInconsistency(f"ring-mixture LP passed its pivot cap ({cap})")
            if d[q] < -_RING_LP_TOL:
                # the pivot column: B alpha = a_q, in the basic columns then the rows
                if q < k:
                    a_rows, last = cols[:, q], 1.0
                else:
                    a_rows, last = np.zeros(m), 0.0
                    a_rows[(q - k) % m] = 1.0 if q >= k + m else -1.0
                alpha_basic = inv[:, :-1] @ a_rows[tight] + last * inv[:, -1]
                alpha = np.concatenate([alpha_basic, sign * (a_rows - cj @ alpha_basic)])
                # leaving candidates: basic columns, then the rows' basic slacks
                # (a tight row has none, and its alpha is 0)
                var = np.concatenate([basic, k + np.arange(m) + np.where(sign > 0, m, 0)])
                eligible = (alpha > _RING_LP_PIVOT_TOL).nonzero()[0]
                if eligible.size == 0:
                    raise NumericalInconsistency("ring-mixture LP found no positive pivot")
                ratios = np.maximum(value[eligible], 0.0) / alpha[eligible]
                eligible = eligible[np.lexsort((var[eligible], ratios))]
                # long step: a slack that reaches 0 hands its row to its twin
                # while the objective still falls, the slope rising by alpha_i
                is_slack = eligible >= nb
                slope = d[q] + np.cumsum(np.where(is_slack, alpha[eligible], 0.0))
                stop = int(np.argmax(~is_slack | (slope >= -_RING_LP_TOL)))
                if is_slack[stop] and slope[stop] < -_RING_LP_TOL:
                    raise NumericalInconsistency("ring-mixture LP found no blocking pivot")
                sign[eligible[:stop] - nb] *= -1.0
                leave = int(eligible[stop])
            else:
                # the dual pivot: the pivot row rho B = e_leave, solved as y is
                e = np.zeros(nb + m)
                e[leave] = 1.0
                rho = e[nb:] * sign
                z = (e[:nb] - rho @ cj) @ inv
                rho[tight] = z[:-1]
                alpha = -np.concatenate([rho @ cols + z[-1], -rho, rho])
                alpha[basic] = 0.0
                eligible = (alpha > _RING_LP_PIVOT_TOL).nonzero()[0]
                if eligible.size == 0:
                    raise NumericalInconsistency("ring-mixture LP found no dual pivot")
                ratios = np.maximum(d[eligible], 0.0) / alpha[eligible]
                q = int(eligible[np.lexsort((eligible, ratios))[0]])

            if leave < nb:
                basic.pop(leave)
            else:
                sign[leave - nb] = 0.0
            if q < k:
                basic.append(q)
            else:
                sign[(q - k) % m] = 1.0 if q >= k + m else -1.0
            pivots += 1

    w = np.zeros(k)
    w[basic] = w_basic
    return w, y, pivots


def diag_classical_minimize(rho: DensityMatrix, energy_grid) -> Bound:
    """Minimize the trace distance from a number-diagonal state to
    mixtures of rings at the grid energies.

    The objective, half the l1 distance between the state's number
    distribution p (beyond-cutoff mass included) and the weighted Poisson
    columns c_j, is convex piecewise-linear on the weight simplex, so one
    linear program finds its exact minimum; :func:`_ring_lp` solves it by
    a primal simplex started from the best single ring.  The returned value
    is re-evaluated at the returned weights (clipped to the simplex) on the
    LP's columns, as :func:`diag_mixture_distance` evaluates it, never read
    off the solver.  It is certified by weak duality: for the row duals y
    clipped to [-1/2, 1/2], every mixture is at distance at least
    y.p - max_j c_j.y, and a value more than 1e-7 above that bound, or a
    failed solve, raises ``NumericalInconsistency``.  The witness's
    ``iterations`` entry counts the simplex pivots from the best single
    ring; the ring mixture itself rides on the bound as its candidate.
    """
    p, p_ext = _diag_profile(rho)
    energies = np.asarray(list(energy_grid), dtype=float)
    if energies.size == 0:
        raise ValueError("energy grid is empty")
    cols = _poisson_columns(rho.trunc.cutoffs[0], energies)
    target = np.concatenate([p, [p_ext]])

    w, y, pivots = _ring_lp(cols, target)
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    # the LP's own columns, as diag_mixture_distance would rebuild them
    value = _ring_distance(target, cols, w)
    # any y in the box [-1/2, 1/2] gives a lower bound on every mixture
    y = np.clip(y, -0.5, 0.5)
    dual = float(y @ target - (y @ cols).max())
    if not value <= dual + 1e-7:  # a non-finite value fails too
        raise NumericalInconsistency(
            f"ring-mixture value {value} exceeds the LP dual bound {dual}"
        )

    keep = w > 1e-12
    energies = [float(e) for e in energies[keep]]
    weights = [float(x) for x in w[keep]]
    total = sum(weights)
    ring = ClassicalEnsemble(
        tuple(
            (x / total, ProductComponent((RingFactor(e),)))
            for e, x in zip(energies, weights)
        )
    )
    return Bound(
        "diag-minimize",
        min(max(value, 0.0), _ONE_MINUS),
        "diag-minimize-upper",
        witness={
            "type": "ring-mixture",
            "energies": energies,
            "weights": weights,
            "iterations": pivots,
        },
        # a pure number-diagonal state is a basis vector: an eigenvector
        # of every number-diagonal witness
        candidate=_WitnessCandidate(
            ring, residual=0.0, frame=_Frame(rho.mat, cols[:-1] @ w, cols[-1] @ w)
        ),
    )


# ---------------------------------------------------------------------------
# saturation diagnostics


def _as_pure_vector(state) -> FockVector | None:
    if isinstance(state, FockVector):
        return state
    tr = state.trace()
    if tr > 0 and state.purity() / (tr * tr) >= 1.0 - PURITY_TOL:
        vals, vecs = np.linalg.eigh(state.mat)
        amps = vecs[:, -1] * math.sqrt(max(vals[-1], 0.0))
        return FockVector(state.trunc, amps.reshape(state.trunc.shape))
    return None


def _saturation_diagnostics(psi, cand: _WitnessCandidate, m_sup: float) -> dict:
    """Check the two exactness mechanisms on a pure state (its support or a
    coherent product's ensemble): the state is an eigenvector of the witness
    (the residual measured with the witness's distance), and every coherent
    point the witness is built from attains the peak overlap."""
    # a component of weight w moves the witness by at most w in trace
    # distance, so one lighter than the tolerance need not attain the peak
    # (the axis rings give a zero weight to an empty mode)
    points = [
        pt if cand.rotation is None else cand.rotation @ pt
        for w, comp in cand.ensemble.components
        if w > SATURATION_TOL
        for pt in comp.representative_points()
    ]
    attain_defect = 0.0
    if points:
        if isinstance(psi, _Support):
            overlaps = _support_overlaps(psi, points)
        else:
            # a coherent product at beta overlaps |alpha> by e^{-|alpha - beta|^2}
            beta = np.array([f.alpha for f in psi.components[0][1].factors])
            overlaps = np.exp(-(np.abs(np.array(points) - beta) ** 2).sum(axis=1))
        attain_defect = float(np.abs(m_sup - overlaps).max())

    return {
        "checked": True,
        "eigenvector_residual": cand.residual,
        "attainment_defect": attain_defect,
        "ok": cand.residual <= SATURATION_TOL and attain_defect <= SATURATION_TOL,
    }


# ---------------------------------------------------------------------------
# report assembly


def _assemble(
    state_id: str,
    lowers: list[Bound],
    uppers: list[Bound],
    state,
    sup_overlap: float | None = None,
) -> BoundReport:
    """Rank the bounds of one state and certify its bracket.

    ``state`` is what the saturation check reads: a pure state's support (or
    a FockVector), a coherent product's ensemble, a DensityMatrix, pure when
    its purity is 1, or None.  The report's witness is the best upper that
    carries a candidate.  When the bracket closes on a pure state, the
    candidates within ``EXACT_TOL`` of it are tried in value order and the
    first that passes the saturation mechanism is kept; if none does, the
    bracket is left without an exact value.
    """
    if not uppers:
        raise ValueError("a report needs at least one upper bound")
    # stable sorts: among equal values the first listed bound leads
    lowers = sorted(lowers, key=lambda b: -b.value)
    uppers = sorted(uppers, key=lambda b: b.value)
    best_lower = lowers[0].value if lowers else 0.0
    best_upper = uppers[0].value
    if best_lower > best_upper + ORDERING_SLACK:
        raise NumericalInconsistency(
            f"{state_id}: lower bound {best_lower} exceeds upper bound "
            f"{best_upper} beyond the allowed slack"
        )
    witnessed = [b.value for b in uppers if b.witness is not None]
    exact = None
    if (
        witnessed
        and best_upper - best_lower <= EXACT_TOL
        and min(witnessed) - best_lower <= EXACT_TOL
    ):
        exact = min(max(0.5 * (best_lower + best_upper), 0.0), _ONE_MINUS)

    ranked = [b for b in uppers if b.candidate is not None]
    best_cand = ranked[0].candidate if ranked else None

    saturation = None
    if exact is not None and ranked:
        # an ensemble reported with a peak overlap is a coherent product,
        # pure as well
        psi = state
        if isinstance(state, (FockVector, DensityMatrix)):
            vec = _as_pure_vector(state)
            psi = None if vec is None else _Support.of(vec)
        if psi is not None and sup_overlap is not None:
            tied = [b.candidate for b in ranked if b.value - ranked[0].value <= EXACT_TOL]
            diags = []
            for cand in tied:
                diags.append(_saturation_diagnostics(psi, cand, sup_overlap))
                if diags[-1]["ok"]:
                    best_cand = cand
                    break
            else:
                # the bracket closes only numerically (the state lies within
                # the tolerance of an exactly solvable one): no exact value,
                # and the best witness's diagnostics show why
                exact = None
                diags = diags[:1]
            saturation = diags[-1]
        else:
            saturation = {"checked": False, "reason": "no pure Fock-space state"}

    return BoundReport(
        state_id=state_id,
        lowers=lowers,
        uppers=uppers,
        best_lower=best_lower,
        best_upper=best_upper,
        exact=exact,
        saturation=saturation,
        sup_overlap=sup_overlap,
        best_witness=best_cand,
    )


def _point_upper(m_sup: float, points) -> Bound:
    """Upper bound from the best single coherent point: for a pure state
    the distance to the peak point is exactly sqrt(1 - m) (eq31)."""
    alphas = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    return Bound(
        "best-point",
        upper_q(m_sup).value,
        "eq2-witness-upper",
        witness={
            "type": "coherent-point",
            "alpha": [[a.real, a.imag] for a in alphas],
        },
    )


def _check_attained(state: _Support, alpha, claimed: float, spec: StateSpec):
    # exact: only amplitudes on the state's support enter |<alpha|psi>|^2,
    # and the sum runs over those alone
    got = _support_overlaps(state, np.atleast_1d(alpha)[None])[0]
    miss = abs(got - claimed)
    if miss <= 1e-8:
        return
    msg = (
        f"{spec.state_id()}: claimed peak overlap {claimed} but the state "
        f"gives {got} at the stated point"
    )
    # the mass delta cut off past the cutoffs moves |<alpha|psi>|^2 by at
    # most 2 sqrt(m delta) + delta: a miss within that is the truncation's
    delta = max(1.0 - float(np.vdot(state.amps, state.amps).real), 0.0)
    if miss <= 2.0 * math.sqrt(claimed * delta) + delta:
        raise TruncationTooSmall(msg, suggested_cutoffs=spec.default_trunc().cutoffs)
    raise NumericalInconsistency(msg)


def _pure_lowers(m_sup: float) -> list[Bound]:
    # eq17's 1 - sqrt(m) never exceeds 1 - m, so eq23 alone is listed
    return [
        Bound("pure-overlap", min(max(1.0 - m_sup, 0.0), _ONE_MINUS), "eq23-pure-lower")
    ]


# ---------------------------------------------------------------------------
# per-family reports


def _report_number(spec: StateSpec) -> BoundReport:
    """|n_1, ..., n_M> as a support of one entry, met by its ring product."""
    ns = tuple(int(n) for n in spec.params["ns"])
    psi = _Support(tuple(np.array([n]) for n in ns), np.ones(1, dtype=np.complex128))
    m = float(np.prod([gamma_n(n) for n in ns]))
    point = np.sqrt(np.asarray(ns, dtype=float)).astype(np.complex128)
    _check_attained(psi, point, m, spec)

    uppers = [
        upper_witness(psi, number_ring_product(ns), name="ring-product"),
        _point_upper(m, point),
    ]
    return _assemble(spec.state_id(), _pure_lowers(m), uppers, psi, sup_overlap=m)


def _report_one_photon(spec: StateSpec) -> BoundReport:
    """One photon along c, sum_m c_m |1_m> = W(u)(|1> (x) |0, ..., 0>) for any
    unitary u whose first column is c: the one-mode report of |1>, padded with
    the vacuum and carried through u by :func:`_image`; nothing is built."""
    rep = _report_number(StateSpec("number", {"ns": (1,)}))
    return _image(rep, _unitary_with_first_column(spec.params["c"]), spec.state_id())


def _report_axis_superposition(spec: StateSpec) -> BoundReport:
    """N00N states, n >= 2 photons spread over the modes.

    The witness is the mixture of axis rings weighted by
    a_m = |c_m|^2.  Against rings of weights w the distance is the root
    lambda of sum_m a_m / (lambda + w_m gamma_n) = 1; equal weights give
    1 - gamma_n / M, and since a -> a / (lambda + a gamma_n) is concave the
    sum at that lambda is at most 1 with w = a, so these weights do at
    least as well as equal ones.  The state is its support, the occupations
    n e_m with amplitudes c_m wherever c_m != 0; no Fock vector is built."""
    n, c = int(spec.params["n"]), np.asarray(spec.params["c"], dtype=np.complex128)
    c = c / np.linalg.norm(c)
    nmodes = len(c)
    lit = np.flatnonzero(c)
    psi = _Support(tuple(np.where(lit == j, n, 0) for j in range(nmodes)), c[lit])
    sup = noon_qmax_analytic(n, c)
    m = sup.value
    _check_attained(psi, sup.argmax[0], m, spec)

    rings = ClassicalEnsemble(tuple(
        (float(w), phase_ring(float(n), mode, nmodes).components[0][1])
        for mode, w in enumerate(np.abs(c) ** 2)
    ))
    uppers = [_point_upper(m, sup.argmax[0]), upper_witness(psi, rings, name="axis-rings")]
    return _assemble(spec.state_id(), _pure_lowers(m), uppers, psi, sup_overlap=m)


def _report_cat(spec: StateSpec) -> BoundReport:
    """Parity cats, and entangled-coherent states as the cat's beam-splitter
    image.  An entangled-coherent state is B(eta) applied to the cat and the
    vacuum; passive optics leaves every distance unchanged, so only the cat
    is built, and read once as its support; its witnesses go through the
    splitter as ``-image`` (the ring only at eta 0 or 1: no modes mix).
    The coherent pairs sigma_beta and sigma_alpha* are evaluated, with their
    saturation residuals, on the cat's coherent span; the ring on the cat's
    support."""
    parity, beta = spec.params["parity"], float(spec.params["beta"])
    cat = spec if spec.kind == "cat" else StateSpec("cat", {"parity": parity, "beta": beta})
    psi = _Support.of(cat.build())
    sup = cat_qmax(CatParams(parity, beta))
    m = sup.value
    alpha_star = float(np.real(sup.argmax[0][0]))
    _check_attained(psi, alpha_star, m, spec)

    def pair(name, a):
        # the pair +-a (the vacuum at a = 0), exact on the coherent span,
        # and framed there only if a product needs it
        ens = two_point_mixture([a], [-a]) if a else coherent_point_ensemble([0.0])
        d, residual, span = cat_span_distance(parity, beta, a)
        cand = _WitnessCandidate(ens, residual=residual, frame=lambda: _Frame(*cat_span_frame(span)))
        return _witness_bound(name, d, cand)

    uppers = [_point_upper(m, alpha_star), pair("sigma-beta", beta)]
    if spec.kind == "cat" or float(spec.params["eta"]) in (0.0, 1.0):
        # ring at the Husimi-peak energy; when the peak sits at the origin
        # the ring at the coherent-amplitude energy is still a usable
        # (looser) witness
        ring_energy = alpha_star**2 if alpha_star > 1e-9 else beta * beta
        uppers.append(upper_witness(psi, phase_ring(ring_energy), name="dephased-ring"))
    uppers.append(pair("sigma-alpha-star", alpha_star if alpha_star > 1e-9 else 0.0))
    rep = _assemble(spec.state_id(), _pure_lowers(m), uppers, psi, sup_overlap=m)
    if spec.kind == "cat":
        return rep
    return _image(rep, beam_splitter(float(spec.params["eta"])).T, spec.state_id())


def _report_classical_ensemble(
    ens: ClassicalEnsemble, state_id: str, sup_overlap: float | None = None
) -> BoundReport:
    """A classical state is its own witness: d(sigma, sigma) = 0 holds
    exactly, so nothing is realized, and the lower bound is the default 0.
    A pure one (a coherent product) passes its exact peak overlap, 1, on to
    a factor split that contains it, is an eigenvector of itself (residual
    0), and is framed as (1, 1, 0), dropping out of a tensored witness."""
    frame = _SELF_FRAME if sup_overlap is not None else None
    cand = _WitnessCandidate(ens, residual=0.0, frame=frame)
    uppers = [_witness_bound("self-witness", 0.0, cand)]
    return _assemble(state_id, [], uppers, ens, sup_overlap=sup_overlap)


def _report_diagonal(rho: DensityMatrix, state_id: str) -> BoundReport:
    """A one-mode number-diagonal state, of number distribution p: one
    ring-mixture LP and no Husimi search.

    The LP's grid holds the default grid at the mean energy and every
    occupied level k (p_k > 1e-14), so its value is at most that of the
    mixture sum_k p_k ring(k), sum_k p_k (1 - gamma_k).  No peak-overlap
    upper can beat it: Q(alpha) = sum_k p_k Pois_k(|alpha|^2) is at most
    sum_k p_k gamma_k, so sqrt(1 - m) >= 1 - m >= sum_k p_k (1 - gamma_k).

    A state on the vacuum and at most one level n, (1 - eta)|0><0| +
    eta|n><n|, lists one triangle step: it moves |n>'s exact distance
    1 - gamma_n (its eq23 bound) along d(rho, |n>) = 1 - eta, which is
    exact (rho - |n><n| moves the mass 1 - eta from |n> to |0>), so it is
    max(0, eta - gamma_n) in closed form.  The convex split of the |n> and
    vacuum brackets is at least eta (1 - gamma_n), and the triangle step's
    upper would be (1 - gamma_n) + (1 - eta), so neither is listed.  A
    state on one level is pure, with the exact peak overlap p_k gamma_k for
    the saturation check.  Any other state has its mean energy on the grid
    as well, and no lower bound.
    """
    p = rho.diagonal()
    levels = np.flatnonzero(p > 1e-14)
    excited = levels[levels > 0]
    mean = mean_total_energy(rho)
    lowers, extra = [], [mean]
    if len(excited) <= 1:
        gap = max([float(p[n]) - gamma_n(int(n)) for n in excited] + [0.0])
        lowers, extra = [Bound("triangle", min(gap, _ONE_MINUS), "eq32-triangle-lower")], []
    grid = _sorted_distinct(np.concatenate([default_energy_grid(mean), extra, levels]))
    sup = float(p[levels[0]]) * gamma_n(int(levels[0])) if len(levels) == 1 else None
    return _assemble(state_id, lowers, [diag_classical_minimize(rho, grid)], rho, sup_overlap=sup)


def _classical_terms(spec: StateSpec) -> ClassicalEnsemble | None:
    """The ensemble of a coherent or phase-randomized state, of the vacuum
    (the coherent point 0 on every mode), or of a mixture whose present
    terms are all such (through nested mixtures); None for any other
    state."""
    if spec.kind == "coherent":
        return coherent_point_ensemble(spec.params["alpha"])
    if spec.kind == "number" and not any(spec.params["ns"]):
        return coherent_point_ensemble([0.0] * len(spec.params["ns"]))
    if spec.kind == "phase_randomized":
        return phase_ring(spec.params["energy"])
    if spec.kind != "mixture":
        return None
    present = [(w, _classical_terms(t)) for w, t in spec.params["terms"] if w > 0]
    if any(ens is None for _, ens in present):
        return None
    return ClassicalEnsemble(tuple((w * v, c) for w, ens in present for v, c in ens.components))


def _cat_mixture_upper(present: list[tuple[float, StateSpec]]) -> Bound | None:
    """sigma_beta against a mixture of parity cats of one beta, in closed
    form.  sigma_beta = (|beta><beta| + |-beta><-beta|) / 2 is
    N+ |cat+><cat+| + N- |cat-><cat-| with N+- = (1 +- e^{-2 beta^2}) / 2,
    diagonal in the cat basis like the mixture, so with W- the summed odd
    weight the distance is |W- - N-|; nothing is realized.  None unless
    every present term is such a cat and both parities are present (cats of
    one parity mix to that cat, whose own report lists sigma-beta)."""
    if any(t.kind != "cat" for _, t in present):
        return None
    betas = {float(t.params["beta"]) for _, t in present}
    if len(betas) != 1 or len({t.params["parity"] for _, t in present}) != 2:
        return None
    beta = betas.pop()
    w_odd = sum(w for w, t in present if t.params["parity"] == "odd")
    d = abs(w_odd + 0.5 * math.expm1(-2.0 * beta * beta))
    ens = two_point_mixture([beta], [-beta])
    return _witness_bound("sigma-beta", d, _WitnessCandidate(ens))


def _report_mixture(spec: StateSpec, seed: int) -> BoundReport:
    present = [(float(w), term) for w, term in spec.params["terms"] if w > 0]
    if len(present) == 1:
        # the weights are normalized at parse time, so the mixture is its
        # one present term, and that term's report keeps its exact value
        rep = report(present[0][1], seed=seed)
        rep.state_id = spec.state_id()
        return rep
    ens = _classical_terms(spec)
    if ens is not None:  # a mixture of classical states is classical
        return _report_classical_ensemble(ens, spec.state_id())
    terms = [(w, report(term, seed=seed)) for w, term in present]
    uppers = [convexity_upper(terms)]
    pair = _cat_mixture_upper(present)
    if pair is not None:
        uppers.append(pair)
        if pair.value <= EXACT_TOL:  # sigma_beta itself: no search can move the bracket
            return _assemble(spec.state_id(), [], uppers, None)
    rho = spec.build()
    base = _report_raw(rho, seed)
    return _assemble(
        spec.state_id(),
        list(base.lowers),
        list(base.uppers) + uppers,
        rho,
        sup_overlap=base.sup_overlap,
    )


# ---------------------------------------------------------------------------
# raw containers: factor splitting and generic paths


def _vector_factor_split(psi: FockVector) -> tuple[list[FockVector], float] | None:
    """Split a pure state across the first contiguous bipartition where it
    factorizes exactly (within FACTOR_TOL); recurse on the pieces.  Returns
    the factors and the sum over the splits of sqrt(sum_{i>=1} s_i^2) / ||s||
    (s the singular values), which bounds the state's trace distance to the
    product of the factors."""
    m = psi.trunc.nmodes
    if m == 1:
        return None
    shape = psi.trunc.shape
    flatn = psi.norm()
    if flatn == 0:
        return None
    for k in range(1, m):
        da = int(np.prod(shape[:k]))
        db = int(np.prod(shape[k:]))
        mat = psi.flat.reshape(da, db)
        s = np.linalg.svd(mat, compute_uv=False)
        if len(s) > 1 and s[1] > FACTOR_TOL * max(s[0], 1.0):
            continue
        u, sv, vh = np.linalg.svd(mat, full_matrices=False)
        defect = float(np.linalg.norm(sv[1:]) / np.linalg.norm(sv))
        a = u[:, 0] * math.sqrt(sv[0])
        b = vh[0] * math.sqrt(sv[0])
        va = FockVector(
            TruncationSpec(psi.trunc.cutoffs[:k], psi.trunc.tail_tol),
            a.reshape(shape[:k]),
        )
        vb = FockVector(
            TruncationSpec(psi.trunc.cutoffs[k:], psi.trunc.tail_tol),
            b.reshape(shape[k:]),
        )
        left, dl = _vector_factor_split(va) or ([va], 0.0)
        right, dr = _vector_factor_split(vb) or ([vb], 0.0)
        return left + right, defect + dl + dr
    return None


def _density_factor_split(rho: DensityMatrix) -> tuple[list[DensityMatrix], float] | None:
    """As :func:`_vector_factor_split`, with the factors the marginals and
    each split's distance bounded by 0.5 sqrt(d) ||rho - rho_A (x) rho_B||_F
    (the trace norm is at most sqrt(rank) times the Frobenius norm)."""
    m = rho.trunc.nmodes
    if m == 1:
        return None
    for k in range(1, m):
        ra = partial_trace(rho, keep=range(k))
        rb = partial_trace(rho, keep=range(k, m))
        gap = rho.mat - np.kron(ra.mat, rb.mat)
        if np.abs(gap).max() > FACTOR_TOL:
            continue
        defect = 0.5 * math.sqrt(rho.trunc.dim) * float(np.linalg.norm(gap))
        left, dl = _density_factor_split(ra) or ([ra], 0.0)
        right, dr = _density_factor_split(rb) or ([rb], 0.0)
        return left + right, defect + dl + dr
    return None


def _combine_factor_reports(
    parts: list[BoundReport], sups: list[float], state, defect: float
) -> BoundReport:
    """An exact tensor product's bracket from its factors' reports and peak
    overlaps ``sups``, measured on the product of the factors, which lies
    within the split's ``defect`` of the state: its bounds are widened by
    that on both sides.  A pure product's eq23 lower 1 - prod m_i is never
    below a factor's 1 - m_i, so only a mixed one lists its best factor
    lower, unwidened, as a factor is the state's exact marginal (discarding
    factors cannot raise the distance).  The tensored witness is measured
    on its frame."""

    def widened(b: Bound, sign: float) -> Bound:
        return replace(b, value=min(max(b.value + sign * defect, 0.0), _ONE_MINUS))

    sup_joint = float(np.prod(sups))
    if isinstance(state, FockVector):
        lowers = [widened(b, -1.0) for b in _pure_lowers(sup_joint)]
    else:
        best_part = max(p.best_lower for p in parts)
        lowers = [Bound("factor-monotone", best_part, "factor-monotone-lower")]
    uppers = [widened(upper_q(sup_joint), 1.0)]
    if all(p.best_witness is not None for p in parts):
        joint = parts[0].best_witness
        for p in parts[1:]:
            joint = joint.tensor_with(p.best_witness)
        if joint.frame is not None:
            d, joint.residual = joint.frame.measure()
            uppers.append(_witness_bound("factor-witness", d + defect, joint))
    return _assemble(_default_id(state), lowers, uppers, state, sup_overlap=sup_joint)


def _report_raw(state, seed: int) -> BoundReport:
    """A FockVector or DensityMatrix given without family metadata: a pure
    one (a density of purity 1 as its top eigenvector) matched to a known
    family, an exact tensor product from its factors, a one-mode
    number-diagonal density by :func:`_report_diagonal`, and any other
    state by one ring witness and one Husimi search.  A product's factor
    reported without a peak overlap, a diagonal one, is searched for it, as
    the product's ``overlap-sqrt`` needs it."""
    state = _as_pure_vector(state) or state
    pure = isinstance(state, FockVector)
    spec = identify_pure_state(state) if pure else None
    if spec is not None:
        return _report_spec(spec, seed)
    split = _vector_factor_split(state) if pure else _density_factor_split(state)
    if split is not None:
        factors, defect = split
        parts = [_report_raw(f, seed) for f in factors]
        sups = [
            p.sup_overlap if p.sup_overlap is not None
            else q_sup(f, [np.sqrt(mode_energies(f)).astype(np.complex128)], seed=seed).value
            for p, f in zip(parts, factors)
        ]
        return _combine_factor_reports(parts, sups, state, defect)
    if not pure and state.trunc.nmodes == 1 and state.is_diagonal(1e-10):
        return _report_diagonal(state, _default_id(state))

    energies = mode_energies(state)
    form = _Support.of(state) if pure else state
    rings = ProductComponent(tuple(RingFactor(float(e)) for e in energies))
    wit = upper_witness(form, ClassicalEnsemble(((1.0, rings),)), name="mode-energy-rings")
    sup = q_sup(state, [np.sqrt(energies).astype(np.complex128)], seed=seed)
    m = sup.value
    if pure:
        lowers, uppers = _pure_lowers(m), [_point_upper(m, sup.argmax[0]), wit]
    else:
        lowers, uppers = [], [wit, upper_q(m)]
    return _assemble(_default_id(state), lowers, uppers, form, sup_overlap=m)


def _default_id(state) -> str:
    if isinstance(state, FockVector):
        return f"pure[{state.trunc.nmodes} modes]"
    if isinstance(state, DensityMatrix):
        return f"density[dim {state.trunc.dim}]"
    return f"classical[{state.nmodes} modes]"


# ---------------------------------------------------------------------------
# dispatch


# kinds whose reports read the state's support and never its truncation
SUPPORT_KINDS = ("number", "single_photon", "noon")


def _report_spec(spec: StateSpec, seed: int) -> BoundReport:
    if spec.kind in SUPPORT_KINDS:
        if spec.kind == "number":
            return _report_number(spec)
        if spec.kind == "noon" and spec.params["n"] != 1:
            return _report_axis_superposition(spec)
        return _report_one_photon(spec)
    if spec.kind in ("cat", "entangled_coherent"):
        return _report_cat(spec)
    if spec.kind == "coherent":
        ens = coherent_point_ensemble(spec.params["alpha"])
        return _report_classical_ensemble(ens, spec.state_id(), sup_overlap=1.0)
    if spec.kind == "phase_randomized":
        return _report_classical_ensemble(_classical_terms(spec), spec.state_id())
    if spec.kind == "vacuum_number_mixture":
        return _report_diagonal(spec.build(), spec.state_id())
    if spec.kind == "mixture":
        return _report_mixture(spec, seed)
    raise ValueError(f"unknown kind {spec.kind}")


def report(state, *, seed: int = DEFAULT_SEED) -> BoundReport:
    """Assemble the two-sided bracket for a state.

    Accepts a StateSpec (family metadata unlocks analytic suprema and the
    matching witnesses), a FockVector, a DensityMatrix, or a
    ClassicalEnsemble; a vector or density matrix takes
    :func:`_report_raw`.  A state is built at its own truncation
    (``StateSpec.trunc``, else the family default).  ``seed`` drives the
    multistart Husimi search on states without an analytic supremum.
    """
    if isinstance(state, StateSpec):
        return _report_spec(state, seed)
    if isinstance(state, ClassicalEnsemble):
        return _report_classical_ensemble(state, _default_id(state))
    if isinstance(state, (FockVector, DensityMatrix)):
        return _report_raw(state, seed)
    raise TypeError(f"cannot build a report for {type(state).__name__}")
