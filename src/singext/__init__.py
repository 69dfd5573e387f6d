"""Finite-rank singular perturbations of nonnegative operators with
symmetries, in finite boundary-triplet coordinates.

The package computes admissible regularization matrices from sampled
symmetry data, evaluates Weyl functions and eigenvalue conditions
through Krein's formula, decides nonnegativity and homogeneity of
self-adjoint realizations, and produces scattering matrices, with four
concrete solvable model backends and a batch CLI.
"""

from .admissibility import (AllHomogeneous, GramFunction, InfiniteSolutions,
                            NoSolution, OnlyA0, UniquePair, UniqueSolution,
                            beta, classify_rank_one, residual_homogeneous,
                            solve_homogeneous_R)
from .errors import (ConvergenceError, DimensionMismatchError,
                     InsufficientDataError, PoleError)
from .models import (ModelSpec, build_one_dim_model, build_padic_model,
                     build_point_interaction, build_scaling_invariant_3d,
                     gram_limit_at_one, model_from_json, model_info)
from .spectra_scattering import (SMatrix, is_homogeneous_realization,
                                 is_nonnegative_realization, nonnegative_grid,
                                 s_matrix, s_matrix_grid, spectrum_ladder)
from .symmetry import (NotPowerLaw, PowerLaw, SymmetryFamily,
                       ValidationReport, Violation, classify_power_law,
                       validate_family)
from .triplet import (AdmissibleMatrix, BoundaryCoordinates, boundary_form,
                      in_realization_domain, is_selfadjoint_realization,
                      to_regularized_triplet)
from .weyl import (SpectralModel, WeylEvaluation, check_weyl_homogeneity,
                   find_negative_eigenvalues, krein_correction, weyl_m,
                   weyl_m_grid)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleMatrix", "AllHomogeneous", "BoundaryCoordinates",
    "ConvergenceError", "DimensionMismatchError", "GramFunction",
    "InfiniteSolutions", "InsufficientDataError", "ModelSpec", "NoSolution",
    "NotPowerLaw", "OnlyA0", "PoleError", "PowerLaw", "SMatrix",
    "SpectralModel", "SymmetryFamily", "UniquePair", "UniqueSolution",
    "ValidationReport", "Violation", "WeylEvaluation", "beta",
    "boundary_form", "build_one_dim_model", "build_padic_model",
    "build_point_interaction", "build_scaling_invariant_3d",
    "check_weyl_homogeneity", "classify_power_law", "classify_rank_one",
    "find_negative_eigenvalues", "gram_limit_at_one",
    "in_realization_domain", "is_homogeneous_realization",
    "is_nonnegative_realization", "is_selfadjoint_realization",
    "krein_correction", "model_from_json", "model_info",
    "nonnegative_grid", "residual_homogeneous", "s_matrix", "s_matrix_grid",
    "solve_homogeneous_R", "spectrum_ladder", "to_regularized_triplet",
    "validate_family", "weyl_m", "weyl_m_grid",
]
