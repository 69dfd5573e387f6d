"""Nonnegativity and homogeneity of realizations, spectrum ladder, S-matrix.

For orthonormal, form-domain-independent channels with the unique
homogeneous R, a self-adjoint realization with coupling B is
nonnegative exactly when

    det(B R + I) != 0   and   0 <= -(B R + I)^-1 B <= -R^-1

in the Loewner order, decided here through Hermitian eigenvalue bounds
with norm-scaled tolerances.  A realization is homogeneous exactly when
xi_i(t) xi_j(t) = p(t) at every sample for every index pair carrying a
nonzero coupling entry; a homogeneous realization with p(t0) != 1 has
essential spectrum reaching 0 and a spectrum invariant under
multiplication by powers of p(t0) (the geometric spectrum ladder).

The scattering matrix of a nonnegative realization against the free
evolution is the Cayley-type quotient

    S(z) = (I - 2 i z B) (I + 2 i z B)^-1,

unitary for real z and Hermitian B, contractive in the upper half-plane
for nonnegative realizations.  The closed form is established for the
orthonormal scaling-invariant model with exponent 3/2; other uses are
formal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .symmetry import DEFAULT_TOL, SymmetryFamily
from .triplet import (POLE_RTOL, AdmissibleMatrix, CouplingMatrix, as_matrix,
                      frozen_matrix, is_hermitian, within)

S_MATRIX_PROVENANCE_NOTE = (
    "closed form established for the orthonormal scaling-invariant model "
    "with exponent 3/2; other configurations are formal")


@dataclass(frozen=True)
class RealizationSpec:
    """Coupling matrix B plus regularization R, with an optional family
    for homogeneity queries."""

    B: CouplingMatrix
    R: AdmissibleMatrix
    family: SymmetryFamily | None = None

    def __post_init__(self):
        b, r = self.B, self.R
        if not isinstance(b, CouplingMatrix):
            b = CouplingMatrix(b)
            object.__setattr__(self, "B", b)
        if not isinstance(r, AdmissibleMatrix):
            r = AdmissibleMatrix(r)
            object.__setattr__(self, "R", r)
        if b.n != r.n:
            raise ValueError(f"B is {b.n}x{b.n} but R is {r.n}x{r.n}")
        if self.family is not None and self.family.n != b.n:
            raise ValueError("family channel count disagrees with B")

    @property
    def n(self) -> int:
        return self.B.n


@dataclass(frozen=True)
class NonnegativityReport:
    nonnegative: bool
    reason: str
    det_value: complex
    x_min_eig: float | None
    gap_min_eig: float | None

    def __bool__(self) -> bool:
        return self.nonnegative

    def to_json(self) -> dict:
        return {
            "nonnegative": self.nonnegative,
            "reason": self.reason,
            "det_BR_plus_I": [self.det_value.real, self.det_value.imag],
            "x_min_eig": self.x_min_eig,
            "gap_min_eig": self.gap_min_eig,
        }


def is_nonnegative_realization(spec: RealizationSpec,
                               tol: float = DEFAULT_TOL) -> NonnegativityReport:
    """Decide nonnegativity of the realization from (B, R) alone.

    Preconditions (not checkable here): R is the unique homogeneous
    solution for orthonormal channels independent of the form-domain
    scale, and R is invertible.  B must be Hermitian.
    """
    b = spec.B.matrix
    r = spec.R.matrix
    if not is_hermitian(b, tol):
        raise ValueError("nonnegativity criterion requires a Hermitian B")
    svals = np.linalg.svd(r, compute_uv=False)
    if within(svals[-1], tol, float(svals[0])):
        raise ValueError("R must be invertible")
    n = spec.n
    k = b @ r + np.eye(n)
    det = complex(np.linalg.det(k))
    if within(abs(det), tol, float(np.linalg.norm(k)) ** n):
        return NonnegativityReport(False, "det(BR+I) vanishes", det, None, None)
    x = -np.linalg.solve(k, b)
    x_h = (x + x.conj().T) / 2
    x_norm = float(np.linalg.norm(x_h))
    if not within(float(np.linalg.norm(x - x.conj().T)), tol, x_norm):
        return NonnegativityReport(False, "-(BR+I)^-1 B is not Hermitian",
                                   det, None, None)
    x_min = float(np.linalg.eigvalsh(x_h).min())
    gap = -np.linalg.inv(r) - x_h
    gap_h = (gap + gap.conj().T) / 2
    gap_min = float(np.linalg.eigvalsh(gap_h).min())
    if not within(-x_min, tol, x_norm):
        return NonnegativityReport(False, "lower Loewner bound 0 <= X fails",
                                   det, x_min, gap_min)
    if not within(-gap_min, tol, float(np.linalg.norm(gap_h))):
        return NonnegativityReport(False, "upper Loewner bound X <= -R^-1 fails",
                                   det, x_min, gap_min)
    return NonnegativityReport(True, "", det, x_min, gap_min)


def is_homogeneous_realization(spec: RealizationSpec,
                               tol: float = DEFAULT_TOL) -> bool:
    """True when xi_i(t) xi_j(t) = p(t) holds at every sample for every
    index pair with |B[i, j]| > tol (vacuously true for B = 0)."""
    if spec.family is None:
        raise ValueError("homogeneity query needs a symmetry family")
    fam = spec.family
    b = spec.B.matrix
    for i in range(spec.n):
        for j in range(spec.n):
            if abs(b[i, j]) <= tol:
                continue
            for t in fam.sample_points:
                if abs(fam.xi[i][t] * fam.xi[j][t] - fam.p[t]) > tol:
                    return False
    return True


def spectrum_ladder(lambda0: complex, p_t0: float,
                    n_range: tuple[int, int]) -> list[complex]:
    """Geometric ladder lambda0 * p_t0^k, k in the inclusive range.

    The ladder of spectral points implied for homogeneous realizations;
    it accumulates at 0, consistent with 0 in the essential spectrum.
    Degenerate ratios (p_t0 = 0 or 1) are rejected.
    """
    ratio = float(p_t0)
    if ratio == 0.0:
        raise ValueError("ladder ratio must be nonzero")
    if ratio == 1.0:
        raise ValueError("ladder is degenerate for p(t0) = 1")
    a, b = int(n_range[0]), int(n_range[1])
    return [complex(lambda0) * ratio ** k for k in range(a, b + 1)]


@dataclass(frozen=True, eq=False)
class SMatrix:
    """Scattering matrix at one spectral parameter, with diagnostics.

    ``unitary`` is set for real z with Hermitian B, ``contractive`` for
    Im z > 0; both are None when the hypothesis does not apply.
    """

    z: complex
    matrix: np.ndarray
    unitary_defect: float
    max_singular_value: float
    unitary: bool | None
    contractive: bool | None

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen_matrix(self.matrix))


def s_matrix_grid(coupling, z) -> np.ndarray:
    """S(z) = (I - 2iz B)(I + 2iz B)^-1 at every point of an array of z.

    Returns an array of shape ``np.shape(z) + (n, n)``; raises
    ``PoleError`` when I + 2iz B is singular at any of the points.
    """
    b = as_matrix(coupling)
    wb = (2j * np.asarray(z, dtype=complex))[..., None, None] * b
    eye = np.eye(b.shape[0])
    denom = eye + wb
    svals = np.linalg.svd(denom, compute_uv=False)
    # The ``within`` rule, point by point.
    if (svals[..., -1] <= POLE_RTOL * np.maximum(svals[..., 0], 1.0)).any():
        raise PoleError("I + 2iz B is singular at the requested point")
    numer = eye - wb
    # S = N D^-1, solved as D^T S^T = N^T.
    return np.linalg.solve(denom.swapaxes(-2, -1),
                           numer.swapaxes(-2, -1)).swapaxes(-2, -1)


def s_matrix(coupling, z: complex, tol: float = 1e-12) -> SMatrix:
    """Evaluate S(z) = (I - 2iz B)(I + 2iz B)^-1 with status diagnostics."""
    z = complex(z)
    s = s_matrix_grid(coupling, z)
    # Reductions of the one 2-D matrix: a stacked norm(..., axis=(-2, -1))
    # rounds differently in the last bit of the printed defect.
    defect = float(np.linalg.norm(s.conj().T @ s - np.eye(s.shape[0])))
    max_sv = float(np.linalg.svd(s, compute_uv=False)[0])
    unitary = defect <= tol if (z.imag == 0.0 and is_hermitian(coupling)) else None
    contractive = max_sv <= 1.0 + tol if z.imag > 0.0 else None
    return SMatrix(z, s, defect, max_sv, unitary, contractive)
