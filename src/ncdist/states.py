"""State constructors, classical ensembles, and the JSON state schema.

Classical reference states are finite mixtures of per-mode products whose
factors are either a coherent point or a phase-averaged coherent state
("ring") at fixed energy. Rings and their products are number-diagonal,
which the distance code exploits heavily; see
:meth:`ClassicalEnsemble.diag_on`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionTooLarge, SchemaError, TruncationTooSmall
from .fock import (
    DEFAULT_TAIL_TOL,
    DensityMatrix,
    FockVector,
    MAX_DENSE_DIM,
    TruncationSpec,
    _coherent_mode_amps,
    coherent_amps,
    default_cutoff_for_amplitude,
    minimal_cutoff_for_tail,
    number_basis_vector,
    outer,
    poisson_pmf,
    product_tail,
    suggest_trunc,
)

WEIGHT_SLACK = 1e-9  # mixture weights may miss 1 by this much before erroring


# ---------------------------------------------------------------------------
# classical ensembles


@dataclass(frozen=True)
class RingFactor:
    """Phase-averaged coherent state of one mode at fixed energy.

    Its number-basis realization is the Poisson(energy) diagonal.
    """

    energy: float

    def __post_init__(self):
        if self.energy < 0:
            raise ValueError("ring energy must be >= 0")


@dataclass(frozen=True)
class CoherentFactor:
    """A single coherent point of one mode."""

    alpha: complex


Factor = Union[RingFactor, CoherentFactor]


@dataclass(frozen=True)
class ProductComponent:
    """A product over modes of ring/coherent factors."""

    factors: tuple[Factor, ...]

    @property
    def nmodes(self) -> int:
        return len(self.factors)

    def is_diagonal(self) -> bool:
        return all(
            isinstance(f, RingFactor) or f.alpha == 0 for f in self.factors
        )

    def mode_energy(self, m: int) -> float:
        f = self.factors[m]
        return f.energy if isinstance(f, RingFactor) else abs(f.alpha) ** 2

    def representative_points(self, phases=(0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)):
        """Coherent points belonging to the component: ring factors are
        sampled at a few phases (jointly), coherent factors are fixed."""
        out = []
        for th in phases:
            pt = []
            for f in self.factors:
                if isinstance(f, RingFactor):
                    pt.append(math.sqrt(f.energy) * np.exp(1j * th))
                else:
                    pt.append(f.alpha)
            out.append(np.asarray(pt, dtype=np.complex128))
        return out


@dataclass(frozen=True)
class ClassicalEnsemble:
    """Finite mixture of product components; always a classical state."""

    components: tuple[tuple[float, ProductComponent], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("ensemble needs at least one component")
        m = self.components[0][1].nmodes
        if any(c.nmodes != m for _, c in self.components):
            raise ValueError("components disagree on the number of modes")
        ws = np.array([w for w, _ in self.components], dtype=float)
        if np.any(ws < 0):
            raise ValueError("weights must be >= 0")
        s = ws.sum()
        if abs(s - 1.0) > WEIGHT_SLACK:
            raise ValueError(f"weights sum to {s}, not 1")
        if s != 1.0:
            object.__setattr__(
                self,
                "components",
                tuple((w / s, c) for w, c in self.components),
            )

    @property
    def nmodes(self) -> int:
        return self.components[0][1].nmodes

    def is_diagonal(self) -> bool:
        return all(c.is_diagonal() for _, c in self.components)

    def required_cutoffs(self, tail_tol: float = DEFAULT_TAIL_TOL) -> tuple[int, ...]:
        """Per-mode cutoffs so every component keeps its mass to tail_tol."""
        m = self.nmodes
        out = []
        for mode in range(m):
            e = max(c.mode_energy(mode) for _, c in self.components)
            out.append(minimal_cutoff_for_tail(e, tail_tol / m))
        return tuple(out)

    def _check_tail(self, trunc: TruncationSpec):
        worst = max(
            product_tail(
                trunc.cutoffs,
                [comp.mode_energy(mode) for mode in range(trunc.nmodes)],
                trunc.tail_tol,
            )
            for _, comp in self.components
        )
        if worst > trunc.tail_tol:
            raise TruncationTooSmall(
                f"ensemble tail {worst:.3e} exceeds tail_tol {trunc.tail_tol:.1e}",
                suggested_cutoffs=tuple(
                    max(a, b)
                    for a, b in zip(
                        trunc.cutoffs, self.required_cutoffs(trunc.tail_tol)
                    )
                ),
            )

    def realize_diag(self, trunc: TruncationSpec) -> np.ndarray:
        """Flat number-basis diagonal; only for number-diagonal ensembles."""
        if not self.is_diagonal():
            raise ValueError("ensemble has off-diagonal components")
        if trunc.nmodes != self.nmodes:
            raise ValueError("mode count mismatch")
        self._check_tail(trunc)
        return self.diag_on(np.unravel_index(np.arange(trunc.dim), trunc.shape))

    def diag_on(self, occupations) -> np.ndarray:
        """Number-basis diagonal at the given occupations (one integer array
        per mode, as ``np.unravel_index`` gives), exact with no truncation:
        each entry is a weighted sum of products of ``poisson_pmf`` values."""
        if len(occupations) != self.nmodes:
            raise ValueError("mode count mismatch")
        out = 0.0
        for w, comp in self.components:
            vec = 1.0
            for mode, n in enumerate(occupations):
                p = poisson_pmf(comp.mode_energy(mode), int(np.max(n, initial=0)))
                vec = vec * p[n]
            out = out + w * vec
        return out

    def realize(self, trunc: TruncationSpec) -> DensityMatrix:
        """Dense realization (subject to the dense-dimension cap)."""
        if trunc.nmodes != self.nmodes:
            raise ValueError("mode count mismatch")
        if trunc.dim > MAX_DENSE_DIM:
            raise DimensionTooLarge(
                f"dense dimension {trunc.dim} exceeds the cap {MAX_DENSE_DIM}; "
                "use the diagonal/pure structured paths instead"
            )
        self._check_tail(trunc)
        if self.is_diagonal():
            return DensityMatrix(
                trunc, np.diag(self.realize_diag(trunc)).astype(np.complex128)
            )
        mat = np.zeros((trunc.dim, trunc.dim), dtype=np.complex128)
        for w, comp in self.components:
            factor = None
            for mode, n in enumerate(trunc.cutoffs):
                f = comp.factors[mode]
                if isinstance(f, RingFactor):
                    g = np.diag(poisson_pmf(f.energy, n)).astype(np.complex128)
                else:
                    v = _coherent_mode_amps(f.alpha, n)
                    g = np.outer(v, v.conj())
                factor = g if factor is None else np.kron(factor, g)
            mat += w * factor
        return DensityMatrix(trunc, mat)


def phase_ring(energy: float, mode: int = 0, nmodes: int = 1) -> ClassicalEnsemble:
    """Ring at the given energy in one mode, vacuum elsewhere."""
    factors = tuple(
        RingFactor(energy) if m == mode else CoherentFactor(0.0)
        for m in range(nmodes)
    )
    return ClassicalEnsemble(((1.0, ProductComponent(factors)),))


def number_ring_product(ns: Sequence[int]) -> ClassicalEnsemble:
    """Product of rings at integer energies: the natural witness for |n_1..n_M>."""
    comp = ProductComponent(tuple(RingFactor(float(n)) for n in ns))
    return ClassicalEnsemble(((1.0, comp),))


def uniform_axis_rings(energy: float, nmodes: int) -> ClassicalEnsemble:
    """Equal mixture over modes of a ring in that mode (vacuum elsewhere)."""
    comps = []
    for m in range(nmodes):
        factors = tuple(
            RingFactor(energy) if j == m else CoherentFactor(0.0)
            for j in range(nmodes)
        )
        comps.append((1.0 / nmodes, ProductComponent(factors)))
    return ClassicalEnsemble(tuple(comps))


def coherent_point_ensemble(alphas: Sequence[complex]) -> ClassicalEnsemble:
    comp = ProductComponent(tuple(CoherentFactor(complex(a)) for a in alphas))
    return ClassicalEnsemble(((1.0, comp),))


def two_point_mixture(
    a: Sequence[complex], b: Sequence[complex], w: float = 0.5
) -> ClassicalEnsemble:
    ca = ProductComponent(tuple(CoherentFactor(complex(x)) for x in a))
    cb = ProductComponent(tuple(CoherentFactor(complex(x)) for x in b))
    return ClassicalEnsemble(((w, ca), (1.0 - w, cb)))


# ---------------------------------------------------------------------------
# nonclassical state families


@dataclass(frozen=True)
class CatParams:
    parity: str  # "even" or "odd"
    beta: float

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        if not self.beta > 0:
            raise ValueError("beta must be > 0")

    @property
    def sign(self) -> float:
        return 1.0 if self.parity == "even" else -1.0

    def normalization(self) -> float:
        """N = 1 +/- e^{-2 beta^2}, computed without cancellation."""
        if self.parity == "even":
            return 1.0 + math.exp(-2.0 * self.beta**2)
        return -math.expm1(-2.0 * self.beta**2)


def cat_vector(params: CatParams, trunc: TruncationSpec) -> FockVector:
    """Normalized even/odd coherent superposition of +/-beta (single mode).

    Built from one coherent expansion: <n|-beta> = (-1)^n <n|beta> bit for
    bit, so the cat holds 2 <n|beta> on its own parity and exactly 0 on
    the other, and the analytic normalization keeps the tiny-beta odd cat
    stable.
    """
    if trunc.nmodes != 1:
        raise ValueError("cat states are single-mode")
    plus = coherent_amps(params.beta, trunc).amps
    norm = math.sqrt(2.0 * params.normalization())
    own = np.arange(trunc.cutoffs[0] + 1) % 2 == (0 if params.parity == "even" else 1)
    amps = np.where(own, 2.0 * plus, 0.0) / norm
    v = FockVector(trunc, amps)
    defect = v.norm_defect()
    if defect > trunc.tail_tol:
        sugg = minimal_cutoff_for_tail(
            params.beta**2, trunc.tail_tol * params.normalization() / 2.0
        )
        raise TruncationTooSmall(
            f"cat tail {defect:.3e} exceeds tail_tol {trunc.tail_tol:.1e}",
            suggested_cutoffs=(max(sugg, trunc.cutoffs[0]),),
        )
    return v


def noon_vector(
    n: int, c: Sequence[complex], trunc: TruncationSpec
) -> FockVector:
    """sum_m c_m |n in mode m, vacuum elsewhere> with ||c|| = 1."""
    c = np.asarray(c, dtype=np.complex128)
    if n < 1:
        raise ValueError("n must be >= 1")
    nrm = float(np.linalg.norm(c))
    if abs(nrm - 1.0) > WEIGHT_SLACK:
        raise ValueError(f"mode amplitudes have norm {nrm}, not 1")
    c = c / nrm
    m = len(c)
    if trunc.nmodes != m:
        raise ValueError("mode count mismatch")
    if any(cut < n for cut in trunc.cutoffs):
        raise TruncationTooSmall(
            f"cutoffs {trunc.cutoffs} cannot hold {n} photons",
            suggested_cutoffs=(max(n, 1),) * m,
        )
    amps = np.zeros(trunc.shape, dtype=np.complex128)
    for mode in range(m):
        idx = tuple(n if j == mode else 0 for j in range(m))
        amps[idx] = c[mode]
    return FockVector(trunc, amps)


def entangled_coherent_vector(
    params: CatParams, eta: float, trunc: TruncationSpec
) -> FockVector:
    """(|t1,t2> +/- |-t1,-t2>)/sqrt(2 N) with t1 = sqrt(eta) beta etc.

    Shares the cat normalization since <t1,t2|-t1,-t2> = e^{-2 beta^2}.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if trunc.nmodes != 2:
        raise ValueError("entangled-coherent states are two-mode")
    t = np.array(
        [math.sqrt(eta) * params.beta, math.sqrt(1.0 - eta) * params.beta]
    )
    plus = coherent_amps(t, trunc)
    minus = coherent_amps(-t, trunc)
    norm = math.sqrt(2.0 * params.normalization())
    v = FockVector(trunc, (plus.amps + params.sign * minus.amps) / norm)
    if v.norm_defect() > trunc.tail_tol:
        per = tuple(
            minimal_cutoff_for_tail(
                ti**2, trunc.tail_tol * params.normalization() / 4.0
            )
            for ti in t
        )
        raise TruncationTooSmall(
            f"tail {v.norm_defect():.3e} exceeds tail_tol {trunc.tail_tol:.1e}",
            suggested_cutoffs=tuple(
                max(a, b) for a, b in zip(trunc.cutoffs, per)
            ),
        )
    return v


def vacuum_number_diag(n: int, eta: float, trunc: TruncationSpec) -> DensityMatrix:
    """(1 - eta)|0><0| + eta |n><n| as a diagonal density matrix."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if trunc.nmodes != 1 or trunc.cutoffs[0] < n:
        raise TruncationTooSmall(
            f"cutoffs {trunc.cutoffs} cannot hold |{n}>",
            suggested_cutoffs=(max(n, 1),),
        )
    d = np.zeros(trunc.dim)
    d[0] = 1.0 - eta
    d[n] = eta
    return DensityMatrix(trunc, np.diag(d).astype(np.complex128))


# ---------------------------------------------------------------------------
# JSON state schema


_KINDS = (
    "number",
    "single_photon",
    "noon",
    "cat",
    "entangled_coherent",
    "coherent",
    "phase_randomized",
    "vacuum_number_mixture",
    "mixture",
)


def _need(obj: dict, key: str, ptr: str):
    if key not in obj:
        raise SchemaError(f"{ptr}/{key}", "missing required field")
    return obj[key]


def _finite(v, ptr: str) -> float:
    # JSON text may hold NaN, Infinity and integers too long for a float
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise SchemaError(ptr, f"expected a finite number, got {x}")
    return x


def _as_number(v, ptr: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(ptr, f"expected a number, got {type(v).__name__}")
    return _finite(v, ptr)


def _as_int(v, ptr: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(ptr, f"expected an integer, got {type(v).__name__}")
    return v


def _as_complex(v, ptr: str) -> complex:
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v)
    ):
        raise SchemaError(ptr, "expected a complex number as [re, im]")
    return complex(_finite(v[0], ptr), _finite(v[1], ptr))


def _as_complex_list(v, ptr: str, min_len: int = 1) -> tuple[complex, ...]:
    if not isinstance(v, list) or len(v) < min_len:
        raise SchemaError(ptr, f"expected a list of at least {min_len} [re, im] pairs")
    return tuple(_as_complex(x, f"{ptr}/{i}") for i, x in enumerate(v))


@dataclass(frozen=True)
class StateSpec:
    """Validated description of a state, with family metadata retained.

    Keeping the family (rather than just amplitudes) lets the bound
    machinery pick analytic formulas and the right classical witnesses.
    """

    kind: str
    params: dict
    trunc: TruncationSpec | None = None

    def state_id(self) -> str:
        p = self.params
        if self.kind == "number":
            return "number[" + ",".join(str(n) for n in p["ns"]) + "]"
        if self.kind == "single_photon":
            return f"single_photon[M={len(p['c'])}]"
        if self.kind == "noon":
            return f"noon[n={p['n']},M={len(p['c'])}]"
        if self.kind == "cat":
            return f"cat[{p['parity']},beta={p['beta']:g}]"
        if self.kind == "entangled_coherent":
            return (
                f"entangled_coherent[{p['parity']},beta={p['beta']:g},"
                f"eta={p['eta']:g}]"
            )
        if self.kind == "coherent":
            return f"coherent[M={len(p['alpha'])}]"
        if self.kind == "phase_randomized":
            return f"phase_randomized[E={p['energy']:g}]"
        if self.kind == "vacuum_number_mixture":
            return f"vacuum_number_mixture[n={p['n']},eta={p['eta']:g}]"
        if self.kind == "mixture":
            return f"mixture[{len(p['terms'])} terms]"
        return self.kind

    @property
    def nmodes(self) -> int:
        p = self.params
        if self.kind == "number":
            return len(p["ns"])
        if self.kind in ("single_photon", "noon"):
            return len(p["c"])
        if self.kind == "coherent":
            return len(p["alpha"])
        if self.kind == "entangled_coherent":
            return 2
        if self.kind == "mixture":
            return p["terms"][0][1].nmodes
        return 1

    def default_trunc(self) -> TruncationSpec:
        p = self.params
        if self.kind == "number":
            return TruncationSpec(tuple(max(n, 1) for n in p["ns"]))
        if self.kind == "single_photon":
            return TruncationSpec((1,) * len(p["c"]))
        if self.kind == "noon":
            return TruncationSpec((max(p["n"], 1),) * len(p["c"]))
        if self.kind == "cat":
            b = p["beta"]
            n = max(
                default_cutoff_for_amplitude(b),
                minimal_cutoff_for_tail(b * b, DEFAULT_TAIL_TOL / 4),
            )
            return TruncationSpec((n,))
        if self.kind == "entangled_coherent":
            b, eta = p["beta"], p["eta"]
            t = (math.sqrt(eta) * b, math.sqrt(1 - eta) * b)
            return TruncationSpec(
                tuple(
                    max(
                        default_cutoff_for_amplitude(x),
                        minimal_cutoff_for_tail(x * x, DEFAULT_TAIL_TOL / 8),
                    )
                    for x in t
                )
            )
        if self.kind == "coherent":
            return suggest_trunc(p["alpha"])
        if self.kind == "phase_randomized":
            e = p["energy"]
            return TruncationSpec(
                (
                    max(
                        default_cutoff_for_amplitude(math.sqrt(e)),
                        minimal_cutoff_for_tail(e, DEFAULT_TAIL_TOL / 2),
                    ),
                )
            )
        if self.kind == "vacuum_number_mixture":
            return TruncationSpec((max(p["n"], 1),))
        if self.kind == "mixture":
            subs = [t.default_trunc() for _, t in p["terms"]]
            cuts = tuple(
                max(s.cutoffs[m] for s in subs) for m in range(subs[0].nmodes)
            )
            return TruncationSpec(cuts)
        raise ValueError(f"unknown kind {self.kind}")

    def resolved_trunc(self) -> TruncationSpec:
        if self.trunc is None:
            return self.default_trunc()
        return self.trunc

    def build(self, trunc: TruncationSpec | None = None):
        """Realize the state at ``trunc`` (default: the resolved
        truncation): a FockVector for pure kinds, else a DensityMatrix. A
        ``phase_randomized`` state is its ring realized there, which raises
        TruncationTooSmall, naming sufficient cutoffs, where the ring's tail
        exceeds the budget."""
        tr = trunc or self.resolved_trunc()
        p = self.params
        if self.kind == "number":
            return number_basis_vector(p["ns"], tr)
        if self.kind == "single_photon":
            return noon_vector(1, p["c"], tr)
        if self.kind == "noon":
            return noon_vector(p["n"], p["c"], tr)
        if self.kind == "cat":
            return cat_vector(CatParams(p["parity"], p["beta"]), tr)
        if self.kind == "entangled_coherent":
            return entangled_coherent_vector(
                CatParams(p["parity"], p["beta"]), p["eta"], tr
            )
        if self.kind == "coherent":
            return coherent_amps(p["alpha"], tr)
        if self.kind == "phase_randomized":
            return phase_ring(p["energy"]).realize(tr)
        if self.kind == "vacuum_number_mixture":
            return vacuum_number_diag(p["n"], p["eta"], tr)
        if self.kind == "mixture":
            mat = None
            for w, term in p["terms"]:
                sub = term.build(tr)
                dm = outer(sub) if isinstance(sub, FockVector) else sub
                mat = w * dm.mat if mat is None else mat + w * dm.mat
            return DensityMatrix(tr, mat)
        raise ValueError(f"unknown kind {self.kind}")


def _parse_trunc(obj, ptr: str, nmodes: int) -> TruncationSpec:
    if not isinstance(obj, dict):
        raise SchemaError(ptr, "expected an object")
    cuts = _need(obj, "cutoffs", ptr)
    if not isinstance(cuts, list) or not cuts:
        raise SchemaError(f"{ptr}/cutoffs", "expected a non-empty list of integers")
    cuts = tuple(_as_int(c, f"{ptr}/cutoffs/{i}") for i, c in enumerate(cuts))
    if len(cuts) != nmodes:
        raise SchemaError(
            f"{ptr}/cutoffs", f"expected {nmodes} entries, got {len(cuts)}"
        )
    tol = obj.get("tail_tol", DEFAULT_TAIL_TOL)
    tol = _as_number(tol, f"{ptr}/tail_tol")
    if not 0 < tol < 1:
        raise SchemaError(f"{ptr}/tail_tol", "must lie in (0, 1)")
    unknown = set(obj) - {"cutoffs", "tail_tol"}
    if unknown:
        raise SchemaError(ptr, f"unknown fields {sorted(unknown)}")
    try:
        return TruncationSpec(cuts, tol)
    except ValueError as err:
        raise SchemaError(ptr, str(err)) from err


def _parse_spec(obj, ptr: str) -> StateSpec:
    if not isinstance(obj, dict):
        raise SchemaError(ptr or "/", "expected an object")
    kind = _need(obj, "kind", ptr)
    if kind not in _KINDS:
        raise SchemaError(f"{ptr}/kind", f"unknown kind {kind!r}; expected one of {_KINDS}")

    params: dict = {}
    allowed = {"kind", "trunc"}
    if kind == "number":
        ns = _need(obj, "ns", ptr)
        if not isinstance(ns, list) or not ns:
            raise SchemaError(f"{ptr}/ns", "expected a non-empty list of integers")
        ns = tuple(_as_int(n, f"{ptr}/ns/{i}") for i, n in enumerate(ns))
        if any(n < 0 for n in ns):
            raise SchemaError(f"{ptr}/ns", "photon numbers must be >= 0")
        params["ns"] = ns
        allowed |= {"ns"}
    elif kind in ("single_photon", "noon"):
        c = _as_complex_list(_need(obj, "c", ptr), f"{ptr}/c")
        nrm = float(np.linalg.norm(c))
        if abs(nrm - 1.0) > WEIGHT_SLACK:
            raise SchemaError(f"{ptr}/c", f"mode amplitudes have norm {nrm}, not 1")
        params["c"] = tuple(x / nrm for x in c)
        allowed |= {"c"}
        if kind == "noon":
            n = _as_int(_need(obj, "n", ptr), f"{ptr}/n")
            if n < 1:
                raise SchemaError(f"{ptr}/n", "must be >= 1")
            params["n"] = n
            allowed |= {"n"}
    elif kind in ("cat", "entangled_coherent"):
        parity = _need(obj, "parity", ptr)
        if parity not in ("even", "odd"):
            raise SchemaError(f"{ptr}/parity", "must be 'even' or 'odd'")
        beta = _as_number(_need(obj, "beta", ptr), f"{ptr}/beta")
        if not beta > 0:
            raise SchemaError(f"{ptr}/beta", "must be > 0")
        params["parity"], params["beta"] = parity, beta
        allowed |= {"parity", "beta"}
        if kind == "entangled_coherent":
            eta = _as_number(_need(obj, "eta", ptr), f"{ptr}/eta")
            if not 0.0 <= eta <= 1.0:
                raise SchemaError(f"{ptr}/eta", "must lie in [0, 1]")
            params["eta"] = eta
            allowed |= {"eta"}
    elif kind == "coherent":
        params["alpha"] = _as_complex_list(_need(obj, "alpha", ptr), f"{ptr}/alpha")
        allowed |= {"alpha"}
    elif kind == "phase_randomized":
        e = _as_number(_need(obj, "energy", ptr), f"{ptr}/energy")
        if e < 0:
            raise SchemaError(f"{ptr}/energy", "must be >= 0")
        params["energy"] = e
        allowed |= {"energy"}
    elif kind == "vacuum_number_mixture":
        n = _as_int(_need(obj, "n", ptr), f"{ptr}/n")
        if n < 1:
            raise SchemaError(f"{ptr}/n", "must be >= 1")
        eta = _as_number(_need(obj, "eta", ptr), f"{ptr}/eta")
        if not 0.0 <= eta <= 1.0:
            raise SchemaError(f"{ptr}/eta", "must lie in [0, 1]")
        params["n"], params["eta"] = n, eta
        allowed |= {"n", "eta"}
    elif kind == "mixture":
        terms = _need(obj, "terms", ptr)
        if not isinstance(terms, list) or not terms:
            raise SchemaError(f"{ptr}/terms", "expected a non-empty list")
        parsed = []
        for i, t in enumerate(terms):
            tp = f"{ptr}/terms/{i}"
            if not isinstance(t, dict):
                raise SchemaError(tp, "expected an object")
            w = _as_number(_need(t, "w", tp), f"{tp}/w")
            if w < 0:
                raise SchemaError(f"{tp}/w", "must be >= 0")
            sub = _parse_spec(_need(t, "state", tp), f"{tp}/state")
            if sub.trunc is not None:
                raise SchemaError(
                    f"{tp}/state/trunc", "truncation belongs at the top level"
                )
            unknown = set(t) - {"w", "state"}
            if unknown:
                raise SchemaError(tp, f"unknown fields {sorted(unknown)}")
            parsed.append((w, sub))
        s = sum(w for w, _ in parsed)
        if abs(s - 1.0) > WEIGHT_SLACK:
            raise SchemaError(f"{ptr}/terms", f"weights sum to {s}, not 1")
        parsed = [(w / s, t) for w, t in parsed]
        modes = {t.nmodes for _, t in parsed}
        if len(modes) != 1:
            raise SchemaError(f"{ptr}/terms", "terms disagree on the number of modes")
        params["terms"] = tuple(parsed)
        allowed |= {"terms"}

    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(ptr or "/", f"unknown fields {sorted(unknown)}")

    spec = StateSpec(kind, params)
    if "trunc" in obj:
        spec = StateSpec(
            kind, params, _parse_trunc(obj["trunc"], f"{ptr}/trunc", spec.nmodes)
        )
    return spec


def parse_state(source: Union[str, dict]) -> StateSpec:
    """Parse and validate a JSON state description.

    Accepts a JSON string or an already-decoded dict. Raises
    :class:`~ncdist.errors.SchemaError` carrying a JSON-pointer path on any
    validation failure.
    """
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as err:
            raise SchemaError("/", f"invalid JSON: {err}") from err
    else:
        obj = source
    return _parse_spec(obj, "")


# ---------------------------------------------------------------------------
# structure recovery for raw states


def identify_pure_state(psi: FockVector) -> StateSpec | None:
    """Recognize a raw amplitude vector as one of the supported families.

    Used when a density matrix arrives without metadata (e.g. a factor
    obtained by partial tracing): matching against a family unlocks the
    analytic bounds and the family's classical witnesses. The vector's norm
    must lie within 1e-6 of 1, and a match is accepted when the vector lies
    within an l2 distance of the family's reference, phases matched: 1e-8
    for a number state and a N00N or single-photon state, 1e-7 for a
    coherent state and a cat.
    """
    f = psi.flat
    nrm = float(np.linalg.norm(f))
    if abs(nrm - 1.0) > 1e-6:
        return None
    tol = 1e-8
    big = np.flatnonzero(np.abs(f) > 1e-10)
    if len(big) == 0:
        return None

    # single basis state
    if len(big) == 1:
        ns = psi.trunc.unravel(int(big[0]))
        ref = np.zeros_like(f)
        ref[big[0]] = f[big[0]] / abs(f[big[0]])
        if np.linalg.norm(f - ref) <= tol:
            return StateSpec("number", {"ns": ns})

    totals = psi.trunc.totals()
    m = psi.trunc.nmodes

    # N00N-type: support on {n e_mode}; the reference is compared on the
    # support itself, so an idle mode may be cut below n photons
    ts = {int(totals[i]) for i in big}
    if len(ts) == 1:
        n = ts.pop()
        occupations = [psi.trunc.unravel(int(i)) for i in big]
        # a total of n with n in one mode leaves every other mode empty
        if n >= 1 and all(max(ns) == n for ns in occupations):
            modes = [int(np.argmax(ns)) for ns in occupations]
            c = np.zeros(m, dtype=np.complex128)
            c[modes] = f[big]
            c = c / np.linalg.norm(c)
            ref = np.zeros_like(f)
            ref[big] = c[modes]
            if np.linalg.norm(f - ref) <= tol:
                kind = "single_photon" if n == 1 else "noon"
                params = {"c": tuple(c)} if n == 1 else {"n": n, "c": tuple(c)}
                return StateSpec(kind, params)

    if m == 1:
        # coherent state: fit alpha from the first moment
        alpha = (
            complex(
                np.vdot(f[:-1], np.sqrt(np.arange(1, len(f))) * f[1:])
                / max(nrm, 1e-30) ** 2
            )
            if len(f) > 1
            else 0.0
        )
        try:
            ref = coherent_amps(
                alpha, TruncationSpec(psi.trunc.cutoffs, 1e-6)
            )
            phase = np.vdot(ref.flat, f)
            phase = phase / abs(phase) if abs(phase) > 0 else 1.0
            if np.linalg.norm(f - phase * ref.flat) <= 1e-7:
                return StateSpec("coherent", {"alpha": (complex(alpha),)})
        except TruncationTooSmall:
            pass

        # cat state: definite parity, geometric profile in beta^2
        parities = {int(i) % 2 for i in big}
        if len(parities) == 1 and len(big) >= 2:
            par = "even" if parities.pop() == 0 else "odd"
            k = int(big[np.argmax(np.abs(f[big]))])
            if k + 2 < len(f) and abs(f[k]) > 0 and abs(f[k + 2]) > abs(f[k]) * 1e-12:
                b2 = f[k + 2] / f[k] * math.sqrt((k + 1) * (k + 2))
            elif k >= 2 and abs(f[k - 2]) > 0:
                b2 = f[k] / f[k - 2] * math.sqrt((k - 1) * k)
            else:
                b2 = 0.0
            if abs(b2) > 0 and abs(b2.imag) <= 1e-8 * abs(b2) and b2.real > 0:
                beta = math.sqrt(b2.real)
                try:
                    ref = cat_vector(
                        CatParams(par, beta), TruncationSpec(psi.trunc.cutoffs, 1e-6)
                    )
                    phase = np.vdot(ref.flat, f)
                    phase = phase / abs(phase) if abs(phase) > 0 else 1.0
                    if np.linalg.norm(f - phase * ref.flat) <= 1e-7:
                        return StateSpec("cat", {"parity": par, "beta": beta})
                except TruncationTooSmall:
                    pass
    return None
