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

from .errors import DimensionMismatchError
from .symmetry import DEFAULT_TOL, SymmetryFamily, check_tol
from .triplet import (AdmissibleMatrix, CouplingMatrix, as_matrix,
                      frozen_matrix, hermitian_within, refuse_stacked_poles,
                      within, within_grid)

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


NONNEGATIVITY_REASONS = (
    "",
    "det(BR+I) vanishes",
    "-(BR+I)^-1 B is not Hermitian",
    "lower Loewner bound 0 <= X fails",
    "upper Loewner bound X <= -R^-1 fails",
)


def _fro(mats: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., n, n)."""
    return np.linalg.norm(mats, axis=(-2, -1))


def _nonnegativity_grid(b: np.ndarray, r: np.ndarray, tol: float):
    """The criterion at every B of a checked stack (..., n, n), for one R.

    Returns (reason, det, x_min, gap_min), each of shape b.shape[:-2]:
    the index into ``NONNEGATIVITY_REASONS`` (0 for a nonnegative
    realization), det(BR+I), and the smallest eigenvalues of
    X = -(BR+I)^-1 B and of -R^-1 - X.  The last two are meaningless
    where the reason is 1 or 2, which the report gives as None.
    """
    b_adj = b.conj().swapaxes(-2, -1)
    if not within_grid(_fro(b - b_adj), tol, _fro(b)).all():
        raise ValueError("nonnegativity criterion requires a Hermitian B")
    svals = np.linalg.svd(r, compute_uv=False)
    if within(svals[-1], tol, float(svals[0])):
        raise ValueError("R must be invertible")
    n = r.shape[0]
    eye = np.eye(n)
    k = b @ r + eye
    det = np.linalg.det(k)
    singular = within_grid(np.abs(det), tol, _fro(k) ** n)
    # a singular BR+I is swapped for I: its X is never read
    x = -np.linalg.solve(np.where(singular[..., None, None], eye, k), b)
    x_adj = x.conj().swapaxes(-2, -1)
    x_h = (x + x_adj) / 2
    x_norm = _fro(x_h)
    skew = ~within_grid(_fro(x - x_adj), tol, x_norm)
    x_min = np.linalg.eigvalsh(x_h).min(axis=-1)
    gap = -np.linalg.inv(r) - x_h
    gap_h = (gap + gap.conj().swapaxes(-2, -1)) / 2
    gap_min = np.linalg.eigvalsh(gap_h).min(axis=-1)
    lower = ~within_grid(-x_min, tol, x_norm)
    upper = ~within_grid(-gap_min, tol, _fro(gap_h))
    reason = np.select([singular, skew, lower, upper], [1, 2, 3, 4], 0)
    return reason, det, x_min, gap_min


def is_nonnegative_realization(spec: RealizationSpec,
                               tol: float = DEFAULT_TOL) -> NonnegativityReport:
    """Decide nonnegativity of the realization from (B, R) alone.

    Preconditions (not checkable here): R is the unique homogeneous
    solution for orthonormal channels independent of the form-domain
    scale, and R is invertible.  B must be Hermitian.  This is
    ``nonnegative_grid``'s kernel at one B, with its report.  A ``tol``
    that is not finite and above 0 raises ``ValueError``.
    """
    check_tol(tol)
    reason, det, x_min, gap_min = _nonnegativity_grid(spec.B.matrix,
                                                      spec.R.matrix, tol)
    reason = int(reason)
    if reason in (1, 2):
        x_min = gap_min = None
    else:
        x_min, gap_min = float(x_min), float(gap_min)
    return NonnegativityReport(reason == 0, NONNEGATIVITY_REASONS[reason],
                               complex(det), x_min, gap_min)


def nonnegative_grid(couplings, reg, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``is_nonnegative_realization`` verdicts over a stack of B, for one R.

    ``couplings`` has shape (..., n, n) and ``reg`` is the n x n R; the
    result is a boolean array of shape ``np.shape(couplings)[:-2]``.  The
    same preconditions hold, and it raises what the one-B call raises
    (``ValueError`` for a B that is not Hermitian or not finite, or an R
    that is not invertible), if it would for any B of the stack, and
    ``ValueError`` for a ``tol`` that is not finite and above 0.
    """
    check_tol(tol)
    r = reg if isinstance(reg, AdmissibleMatrix) else AdmissibleMatrix(reg)
    b = np.asarray(couplings, dtype=complex)
    if b.ndim < 2 or b.shape[-2:] != (r.n, r.n):
        raise DimensionMismatchError(
            f"expected square {r.n}x{r.n} couplings, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("matrix entries must be finite")
    return _nonnegativity_grid(b, r.matrix, tol)[0] == 0


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
    Degenerate ratios (p_t0 = 0 or 1) and ratios that are not finite
    are rejected.
    """
    ratio = float(p_t0)
    if not np.isfinite(ratio):
        raise ValueError(f"ladder ratio must be finite, got {ratio!r}")
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
    return _cayley_grid(as_matrix(coupling), z)


def _cayley_grid(b: np.ndarray, z) -> np.ndarray:
    """``s_matrix_grid`` for a checked coupling matrix."""
    wb = (2j * np.asarray(z, dtype=complex))[..., None, None] * b
    eye = np.eye(b.shape[0])
    denom = eye + wb
    refuse_stacked_poles(denom, "I + 2iz B")
    numer = eye - wb
    # S = N D^-1, solved as D^T S^T = N^T.
    return np.linalg.solve(denom.swapaxes(-2, -1),
                           numer.swapaxes(-2, -1)).swapaxes(-2, -1)


def s_matrix(coupling, z: complex, tol: float = 1e-12) -> SMatrix:
    """Evaluate S(z) = (I - 2iz B)(I + 2iz B)^-1 with status diagnostics."""
    z = complex(z)
    b = as_matrix(coupling)
    s = _cayley_grid(b, z)
    # Reductions of the one 2-D matrix: a stacked norm(..., axis=(-2, -1))
    # rounds differently in the last bit of the printed defect.
    defect = float(np.linalg.norm(s.conj().T @ s - np.eye(s.shape[0])))
    max_sv = float(np.linalg.svd(s, compute_uv=False)[0])
    unitary = defect <= tol if (z.imag == 0.0 and hermitian_within(b)) else None
    contractive = max_sv <= 1.0 + tol if z.imag > 0.0 else None
    s.setflags(write=False)  # fresh: frozen in place, stored without a copy
    return SMatrix(z, s, defect, max_sv, unitary, contractive)
