"""Boundary-triplet coordinates and operator-realization membership.

Elements f of the adjoint domain are represented solely by the
coordinate pair (a, b): ``a`` holds the coefficients of f along the
defect basis h_1..h_n and ``b`` the values of the singular functionals
on the regular part u of f.  The regularized triplet attached to a
Hermitian matrix R is

    Gamma0 f = b + R a,        Gamma1 f = -a,

so component j of Gamma0 f is the value of the extended functional on
f.  A coupling matrix B then carves out the realization domain through
the boundary condition B Gamma0 f = Gamma1 f; the realization is
self-adjoint exactly when B is Hermitian.

Sign convention: Gamma1 f = -a is adopted as is; comparisons with other
triplet conventions must account for this sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

HERMITICITY_RTOL = 1e-12
POLE_RTOL = 1e-14


def as_matrix(m) -> np.ndarray:
    """Coerce a wrapper or array-like to a checked square complex matrix."""
    arr = np.asarray(getattr(m, "matrix", m), dtype=complex)
    arr = arr if arr.ndim == 2 else np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def frozen_matrix(m) -> np.ndarray:
    """``as_matrix`` made read-only, for storage in a frozen value type.

    A writable array that is the caller's own, or a view of one, is
    copied first (keeping its memory layout), so the caller's array
    stays writable and cannot change the stored matrix.  A read-only
    array is stored as is: a fresh result is frozen in place, not copied.
    """
    arr = as_matrix(m)
    if arr.flags.writeable and (arr is m or not arr.flags.owndata):
        arr = arr.copy(order="K")
    arr.setflags(write=False)
    return arr


def within(x: float, tol: float, scale: float = 1.0) -> bool:
    """The package's tolerance rule: x <= tol * max(1, scale)."""
    return x <= tol * max(1.0, scale)


def _frozen_vector(v) -> np.ndarray:
    arr = np.array(v, dtype=complex).ravel()
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    arr.setflags(write=False)
    return arr


def hermitian_defect(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat - mat.conj().T))


def hermitian_within(mat: np.ndarray, tol: float = HERMITICITY_RTOL) -> bool:
    """Hermitian within ``tol`` relative to the Frobenius norm; trusts ``mat``."""
    return within(hermitian_defect(mat), tol, float(np.linalg.norm(mat)))


def is_hermitian(m, tol: float = HERMITICITY_RTOL) -> bool:
    """``hermitian_within`` for any matrix input, checked by ``as_matrix``."""
    return hermitian_within(as_matrix(m), tol)


@dataclass(frozen=True, eq=False)
class BoundaryCoordinates:
    """Coordinates (a, b) of an element of the adjoint domain.

    ``a`` are the defect-basis coefficients, ``b`` the functional values
    on the regular part; the infinite-dimensional part of the element is
    never materialized.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _frozen_vector(self.a)
        b = _frozen_vector(self.b)
        if a.shape != b.shape:
            raise DimensionMismatchError(
                f"coordinate vectors disagree: {a.shape} vs {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, eq=False)
class AdmissibleMatrix:
    """Hermitian matrix R fixing the extension of the singular functionals."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = frozen_matrix(self.matrix)
        if not hermitian_within(mat):
            raise ValueError(
                f"R must be Hermitian (defect {hermitian_defect(mat):.3e})")
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Coefficient matrix B of the singular perturbation.

    Hermiticity is a queried property, not a requirement: non-Hermitian
    B parameterizes non-self-adjoint realizations.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen_matrix(self.matrix))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def to_regularized_triplet(coords: BoundaryCoordinates,
                           reg: AdmissibleMatrix | np.ndarray,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Map coordinates (a, b) to the regularized boundary values.

    Returns (Gamma0 f, Gamma1 f) = (b + R a, -a); linear in the
    coordinates for fixed R.
    """
    r = as_matrix(reg)
    if r.shape[0] != coords.n:
        raise DimensionMismatchError(
            f"R is {r.shape[0]}x{r.shape[0]} but coordinates have n={coords.n}")
    return coords.b + r @ coords.a, -coords.a


def in_realization_domain(coords: BoundaryCoordinates,
                          coupling: CouplingMatrix | np.ndarray,
                          reg: AdmissibleMatrix | np.ndarray,
                          tol: float = 1e-10) -> bool:
    """Test the boundary condition B Gamma0 f = Gamma1 f within tol."""
    b_mat = as_matrix(coupling)
    g0, g1 = to_regularized_triplet(coords, reg)
    if b_mat.shape[0] != g0.shape[0]:
        raise DimensionMismatchError(
            f"B is {b_mat.shape[0]}x{b_mat.shape[0]} but coordinates have n={g0.shape[0]}")
    return float(np.linalg.norm(b_mat @ g0 - g1)) <= tol


def is_selfadjoint_realization(coupling: CouplingMatrix | np.ndarray,
                               tol: float = HERMITICITY_RTOL) -> bool:
    """True when B is Hermitian (relative to its norm), i.e. the realization is self-adjoint."""
    return is_hermitian(coupling, tol)


def boundary_form(first: tuple[np.ndarray, np.ndarray],
                  second: tuple[np.ndarray, np.ndarray]) -> complex:
    """Green pairing (g1, g0') - (g0, g1') of two boundary-value pairs.

    Inner product convention: (x, y) = sum_k x_k conj(y_k).  For pairs
    produced with a Hermitian R the value is independent of R and flips
    to minus its conjugate when the two elements are swapped.
    """
    g0, g1 = first
    g0p, g1p = second
    return complex(np.vdot(g0p, g1) - np.vdot(g1p, g0))
