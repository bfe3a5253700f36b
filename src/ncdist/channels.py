"""Channels that preserve classicality: affine optics, dephasing, adjoining.

Affine optics = passive interferometer followed by displacements, acting on
coherent labels as alpha -> U alpha + gamma. All three channel families map
the classical set into itself, which makes them safe preprocessing steps
for distance bounds; the constructive ``affine_image`` returns the
classical ensemble a classical input is carried to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationTooSmall
from .fock import (
    DensityMatrix,
    FockVector,
    TruncationSpec,
    displacement,
    outer,
    passive_unitary,
    tensor,
)
from .states import (
    ClassicalEnsemble,
    CoherentFactor,
    ProductComponent,
    RingFactor,
)


@dataclass(frozen=True)
class AffineOptics:
    """Passive mode mixing followed by displacement: alpha -> U alpha + gamma."""

    mode_matrix: np.ndarray
    displacements: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.mode_matrix, dtype=np.complex128)
        g = np.atleast_1d(np.asarray(self.displacements, dtype=np.complex128))
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("mode matrix must be square")
        if len(g) != u.shape[0]:
            raise ValueError("one displacement per mode required")
        object.__setattr__(self, "mode_matrix", u)
        object.__setattr__(self, "displacements", g)

    @property
    def nmodes(self) -> int:
        return self.mode_matrix.shape[0]

    def label_map(self, alphas) -> np.ndarray:
        a = np.atleast_1d(np.asarray(alphas, dtype=np.complex128))
        return self.mode_matrix @ a + self.displacements


def apply_affine(channel: AffineOptics, state):
    """Apply the channel to a FockVector or DensityMatrix on its truncation.

    The interferometer acts first, then the displacements.  Each is an
    operator U whose ``apply`` multiplies along the flat basis axis: U psi
    for a vector, and U rho U^+ = (U (U rho)^+)^+ for a matrix.  The
    interferometer keeps the photon number, so it is built only on the
    shells the state's diagonal occupies; an identity mode matrix and
    D(0) = I are skipped.
    Probability lost past the cutoffs must stay within 10x the truncation
    budget; otherwise the cutoffs are too tight for the moved state and the
    call fails with a suggestion.
    """
    if not isinstance(state, (FockVector, DensityMatrix)):
        raise TypeError(f"unsupported state type {type(state)!r}")
    trunc = state.trunc
    if channel.nmodes != trunc.nmodes:
        raise ValueError("channel/state mode count mismatch")
    vec = isinstance(state, FockVector)
    x = state.flat if vec else state.mat
    ops = []
    if not np.array_equal(channel.mode_matrix, np.eye(channel.nmodes)):
        diag = x if vec else x.diagonal()
        shells = np.unique(trunc.totals()[diag != 0])
        ops.append(passive_unitary(channel.mode_matrix, trunc, shells))
    if np.any(channel.displacements):
        ops.append(displacement(channel.displacements, trunc))
    for op in ops:
        x = op.apply(x) if vec else op.apply(op.apply(x).conj().T).conj().T

    if vec:
        out = FockVector(trunc, x.reshape(trunc.shape))
        leak = abs(out.norm_defect() - state.norm_defect())
    else:
        out = DensityMatrix(trunc, x)
        leak = abs(state.trace() - out.trace())
    if leak > 10.0 * trunc.tail_tol:
        grow = max(4, int(math.ceil(4.0 * float(np.abs(channel.displacements).max() + 1.0)
                                    * math.sqrt(max(trunc.cutoffs)))))
        raise TruncationTooSmall(
            f"channel leaked {leak:.3e} probability past the cutoffs",
            suggested_cutoffs=tuple(n + grow for n in trunc.cutoffs),
        )
    return out


def affine_image(channel: AffineOptics, ens: ClassicalEnsemble) -> ClassicalEnsemble:
    """The classical ensemble an affine channel carries a classical input to.

    Exact for coherent points (labels just move); ring factors only survive
    when the interferometer does not mix their mode with others, i.e. the
    mode matrix is a phased permutation. Anything else raises.
    """
    u = channel.mode_matrix
    mags = np.abs(u)
    is_phased_perm = (
        np.all(np.isclose(mags[mags > 1e-12], 1.0, atol=1e-12))
        and np.all((mags > 1e-12).sum(axis=0) == 1)
        and np.all((mags > 1e-12).sum(axis=1) == 1)
    )
    has_rings = any(
        isinstance(f, RingFactor) and f.energy > 0
        for _, c in ens.components
        for f in c.factors
    )
    if has_rings and not is_phased_perm:
        raise ValueError(
            "ring factors only map constructively through phased permutations"
        )
    out = []
    m = ens.nmodes
    for wgt, comp in ens.components:
        if all(isinstance(f, CoherentFactor) for f in comp.factors):
            moved = channel.label_map([f.alpha for f in comp.factors])
            out.append(
                (wgt, ProductComponent(tuple(CoherentFactor(a) for a in moved)))
            )
            continue
        # phased permutation: mode j receives mode perm[j]
        factors: list = [None] * m
        for j in range(m):
            src = int(np.argmax(mags[j]))
            f = comp.factors[src]
            if isinstance(f, RingFactor):
                if abs(channel.displacements[j]) > 1e-12 and f.energy > 0:
                    raise ValueError(
                        "displaced rings leave the supported ensemble family"
                    )
                factors[j] = RingFactor(f.energy)
            else:
                factors[j] = CoherentFactor(
                    u[j, src] * f.alpha + channel.displacements[j]
                )
        out.append((wgt, ProductComponent(tuple(factors))))
    return ClassicalEnsemble(tuple(out))


def dephase_number(state) -> DensityMatrix:
    """Project onto the number-basis diagonal (exactly idempotent)."""
    if isinstance(state, FockVector):
        return DensityMatrix(
            state.trunc, np.diag(state.probabilities()).astype(np.complex128)
        )
    if isinstance(state, DensityMatrix):
        return DensityMatrix(
            state.trunc,
            np.diag(state.mat.diagonal().real).astype(np.complex128),
        )
    raise TypeError(f"unsupported state type {type(state)!r}")


def adjoin(state, ancilla, ancilla_trunc: TruncationSpec | None = None):
    """Tensor an ancilla onto the state (classical ancillas keep bounds valid).

    ``ancilla`` may be a FockVector, DensityMatrix, or ClassicalEnsemble;
    ensembles are realized at ``ancilla_trunc`` (default: their certified
    cutoffs at the state's tail tolerance).
    """
    if isinstance(ancilla, ClassicalEnsemble):
        tol = state.trunc.tail_tol
        tr = ancilla_trunc or TruncationSpec(
            ancilla.required_cutoffs(tol), tol
        )
        ancilla = ancilla.realize(tr)
    if isinstance(state, FockVector) and isinstance(ancilla, FockVector):
        return tensor(state, ancilla)
    if isinstance(state, FockVector):
        state = outer(state)
    if isinstance(ancilla, FockVector):
        ancilla = outer(ancilla)
    return tensor(state, ancilla)
