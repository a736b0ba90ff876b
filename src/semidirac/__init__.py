"""Spectral bench for a half-plane semi-Dirac operator.

The operator couples first-order transport in y with a shifted second
derivative in x on the upper half-plane, matched across the edge by a
component-identification boundary condition.  The package assembles the
discrete operator family (free, scalar potential, 2x2 coupling), solves
for spectra with certified in-gap counts, and checks the closed-form
predictions (square identity, Weyl scaling, bound-state window, cutoff
integrals, coupling threshold) that describe when the spectral gap
survives or breaks.
"""

from .assembly import (
    FIRST_ORDER,
    SQUARE_FORM,
    HermitianOperator,
    apply,
    assemble_H,
    assemble_H_eps,
    assemble_square_form,
    assemble_T,
    edge_embedding,
    export_coordinate_text,
    first_derivative_y,
    read_coordinate_text,
    stiffness_x,
)
from .eigensolve import (
    ConvergenceError,
    SpectrumReport,
    count_below,
    count_within,
    dense_eigs,
    gap_eigs,
    lowest_of_square,
    nearest_eigenvalues,
    participation_ratio,
    y_decay_rate,
)
from .fiber import dispersion, fiber_edge, fiber_operator, union_edge
from .lattice import (
    BoxPotential,
    Grid2D,
    GridMismatchError,
    NoPotential,
    Params,
    PerturbationField,
    PotentialSpec,
    SpinorField,
    XOnlyPotential,
    inner_product,
    sample,
)
from .quasimode import (
    BoxTrial,
    BumpProfile,
    CutoffProfile,
    PerturbationModel,
    SpinorTrial,
    WeylTrial,
    a_eps_derived,
    a_eps_paper,
    aeps_divergence,
    box_energy_analytic,
    box_energy_numeric,
    box_perturbation,
    boundstate_window,
    cutoff_derivative_integrals,
    cutoff_g,
    cutoff_row,
    disk_bump,
    disk_perturbation,
    eps_threshold,
    fit_slope,
    product_bump,
    smoothstep_profile,
    square_identity_residual,
    standard_trials,
    trial_energy,
    weyl_bound,
    weyl_residual,
    weyl_rows,
    weyl_trial,
)
from .scan import (
    ConvergenceStudy,
    ScanResult,
    SolverConfig,
    convergence_study,
    delocalization_probe,
    gap_window,
    is_localized,
    scan_perturbation,
    scan_potential,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
