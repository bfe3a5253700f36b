"""Certified bounds on the distance from Fock-space states to the classical set."""

from .errors import (
    DimensionTooLarge,
    NumericalInconsistency,
    SchemaError,
    TruncationTooSmall,
)
from .fock import (
    DEFAULT_TAIL_TOL,
    DensityMatrix,
    FockVector,
    TruncationSpec,
    beam_splitter,
    coherent_amps,
    displacement,
    mean_total_energy,
    mode_means,
    number_basis_vector,
    outer,
    overlap,
    partial_trace,
    passive_unitary,
    poisson_tail,
    tensor,
)
from .states import (
    CatParams,
    ClassicalEnsemble,
    CoherentFactor,
    ProductComponent,
    RingFactor,
    StateSpec,
    cat_vector,
    coherent_point_ensemble,
    entangled_coherent_vector,
    identify_pure_state,
    noon_vector,
    number_ring_product,
    parse_state,
    phase_ring,
    two_point_mixture,
    uniform_axis_rings,
    vacuum_number_diag,
)
from .metrics import (
    fidelity,
    fuchs_vdg_check,
    helstrom_saturation,
    trace_distance,
    trace_distance_diag,
    trace_distance_pure_diag,
)
from .husimi import (
    QSupremum,
    cat_q_tilde,
    cat_qmax,
    gamma_n,
    noon_qmax_analytic,
    q_sup,
    q_tilde,
)
from .channels import (
    AffineOptics,
    adjoin,
    affine_image,
    apply_affine,
    dephase_number,
)
from .bounds import (
    Bound,
    BoundReport,
    convexity_upper,
    default_energy_grid,
    diag_classical_minimize,
    diag_mixture_distance,
    report,
    upper_q,
    upper_witness,
)
from .figures import FIGURES, compute_rows, write_figure
from .verify import CheckLine, format_results, run_checks

__version__ = "0.1.0"
