"""Matrices are checked once, where they enter the package.

Every public entry point that takes a matrix rejects a non-square one
with ``DimensionMismatchError`` and a NaN or infinite entry with
``ValueError``; functions behind these entry points trust the checked
arrays they are handed.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import singext as sx
from singext.errors import DimensionMismatchError

COORDS = sx.BoundaryCoordinates([1.0], [0.5])

# name -> call with the matrix under test in the named role; the other
# arguments are valid, for the one-channel p-adic model
ENTRY_POINTS = {
    "weyl_m (R)": lambda m, spec, r: sx.weyl_m(spec.spectral, m, 0.5j),
    "weyl_m_grid (R)": lambda m, spec, r: sx.weyl_m_grid(spec.spectral, m, [0.5j, -1.0]),
    "krein_correction (B)": lambda m, spec, r: sx.krein_correction([[1.0j]], m),
    "find_negative_eigenvalues (B)": lambda m, spec, r: sx.find_negative_eigenvalues(
        spec.spectral, r, m, (-3.0, -0.3)),
    "nonnegative_grid (B)": lambda m, spec, r: sx.nonnegative_grid(m[None], r),
    "nonnegative_grid (R)": lambda m, spec, r: sx.nonnegative_grid([[[-1.0]]], m),
    "s_matrix": lambda m, spec, r: sx.s_matrix(m, 0.4),
    "s_matrix_grid": lambda m, spec, r: sx.s_matrix_grid(m, np.array([0.4, 0.4 + 0.9j])),
    "is_selfadjoint_realization": lambda m, spec, r: sx.is_selfadjoint_realization(m),
    "in_realization_domain (B)": lambda m, spec, r: sx.in_realization_domain(
        COORDS, m, r),
    "in_realization_domain (R)": lambda m, spec, r: sx.in_realization_domain(
        COORDS, [[0.0]], m),
    "to_regularized_triplet": lambda m, spec, r: sx.to_regularized_triplet(COORDS, m),
    "residual_homogeneous": lambda m, spec, r: sx.residual_homogeneous(
        spec.family, spec.gram, m),
    "CouplingMatrix": lambda m, spec, r: sx.CouplingMatrix(m),
    "AdmissibleMatrix": lambda m, spec, r: sx.AdmissibleMatrix(m),
}


# name -> (matrix, exception, message fragment); a NaN or infinity in
# either part of an entry is refused by the same rule
BAD_MATRICES = {
    "non-square": (np.ones((1, 2)), DimensionMismatchError, "square"),
    "nan": (np.array([[np.nan]]), ValueError, "finite"),
    "-inf": (np.array([[-np.inf]]), ValueError, "finite"),
    "imaginary inf": (np.array([[complex(1.0, np.inf)]]), ValueError, "finite"),
}


@pytest.mark.parametrize("bad", BAD_MATRICES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_rejects_bad_matrix(entry, bad, padic, padic_r):
    matrix, error, fragment = BAD_MATRICES[bad]
    with pytest.raises(error, match=fragment):
        ENTRY_POINTS[entry](matrix, padic, padic_r)


# A z that is not finite is refused where it enters, as by weyl_m; the
# S-matrix returned NaN from the grid, numpy's "SVD did not converge"
# from s_matrix, and a RuntimeWarning at an infinite z.
@pytest.mark.parametrize("bad", [complex(float("nan"), 0.0), float("nan"),
                                 complex(0.5, float("inf")), float("-inf")])
def test_smatrix_refuses_z_that_is_not_finite(bad):
    with pytest.raises(ValueError, match="z must be finite"):
        sx.s_matrix([[0.5]], bad)
    with pytest.raises(ValueError, match="z must be finite"):
        sx.s_matrix_grid([[0.5]], [bad, 1.0])
    with pytest.raises(ValueError, match="z must be finite"):
        sx.s_matrix_grid(np.eye(2), np.array([[0.5j, 1.0], [2.0, bad]]))


def test_nothing_loads_scipy():
    # every model builds from closed forms and arrays, the exact eigenvalue
    # search of the continuous families uses numpy only, and the quadrature
    # oracles (criteria 2 and 9) are a numpy tanh-sinh rule.  scipy is no
    # dependency: scipy.integrate cost 0.79 s and about 52 MB at its first
    # import, and scipy.linalg 0.3 to 0.45 s and about 26 MB.
    script = "\n".join([
        "import contextlib, io, sys",
        "import singext",
        "from singext import acceptance, cli",
        "singext.build_one_dim_model()",
        "for d in (1, 2, 3):",
        "    singext.build_point_interaction(d)",
        "singext.build_padic_model(2, 1.5)",
        "singext.build_scaling_invariant_3d(1.5)",
        "calls = [['verify', '--criteria', '1'],",
        "         ['model', 'info', '--kind', 'OneDimDeltaDeltaPrime'],",
        "         ['model', 'info', '--kind', 'PointInteractionRd', '--d', '2'],",
        "         ['model', 'info', '--kind', 'PAdicVladimirov', '--p', '3', '--alpha', '0.75'],",
        "         ['model', 'info', '--kind', 'ScalingInvariant3D', '--alpha', '1.3'],",
        "         ['classify', '--kind', 'PointInteractionRd', '--d', '3'],",
        "         ['weyl', '--kind', 'PointInteractionRd', '--d', '3', '--z=-1,0'],",
        "         ['spectrum', '--kind', 'PAdicVladimirov', '--p', '2', '--alpha', '1.5',",
        "          '--B', '[[-0.57]]', '--interval=-3,-0.3'],",
        "         ['spectrum', '--kind', 'ScalingInvariant3D', '--alpha', '1.5', '--n', '2',",
        "          '--B', '[[0.5,0],[0,0.5]]', '--interval=-3,-0.3'],",
        "         ['spectrum', '--kind', 'OneDimDeltaDeltaPrime',",
        "          '--B', '[[-1,0],[0,4]]', '--interval=-3,-0.1']]",
        "for argv in calls:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.run(argv) == 0, argv",
        "assert all(r.passed for r in acceptance.run_criteria())",
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]",
        "assert not loaded, loaded",
    ])
    src = pathlib.Path(sx.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=False,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


# A tolerance is a finite number above 0; NaN in particular made every
# comparison false, so these returned verdicts that meant nothing.
TOL_ENTRY_POINTS = {
    "validate_family": lambda tol, spec: sx.validate_family(spec.family, tol),
    "classify_power_law": lambda tol, spec: sx.classify_power_law(
        [(2.0, 0.5), (4.0, 0.25)], tol),
    "solve_homogeneous_R": lambda tol, spec: sx.solve_homogeneous_R(
        spec.family, spec.gram, tol),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10])
@pytest.mark.parametrize("entry", TOL_ENTRY_POINTS)
def test_tolerance_must_be_finite_and_above_zero(entry, tol, one_dim):
    with pytest.raises(ValueError, match="finite tol above 0"):
        TOL_ENTRY_POINTS[entry](tol, one_dim)
